"""Reference constructions for the tests, kept outside the package.

``diagram_by_eigh`` is the diagram check by a dense eigendecomposition of
the lifted Hamiltonian: the algebra route is exp(i lift_H(H)) from
``np.linalg.eigh`` of the M x M Hermitian part, rebuilt as
V e^{i Lambda} V^dag. ``photonlift.verify.check_diagram`` takes the same
exponential from the lifted single-photon eigenbasis instead, so this route
serves as its oracle. It reads ``lift_hamiltonian`` and ``_expansion_lifts``
from ``photonlift.verify`` at call time, so a fault patched into either one
reaches both routes.
"""

from dataclasses import dataclass

import numpy as np

import photonlift.verify as verify
from photonlift.matfuncs import _as_square, _exp_i_hermitian, frobenius_norm


@dataclass(frozen=True)
class EighDiagram:
    """Residuals of the diagram check by a dense ``eigh`` of the lifted H."""

    residual_diagram: float
    residual_unitarity: float
    residual_hermiticity: float
    sparsity_violations: int
    passed: bool


def diagram_by_eigh(h_single, photons: int, tol: float = 1e-8) -> EighDiagram:
    """Compare lift_U(e^{iH}) with exp(i lift_H(H)) taken by an M x M ``eigh``."""
    matrix = _as_square(h_single)
    lifted_h = verify.lift_hamiltonian(matrix, photons, tol=tol)
    lifted = lifted_h.matrix
    (group,) = verify._expansion_lifts([_exp_i_hermitian(matrix)], photons)
    values, vectors = np.linalg.eigh((lifted + lifted.conj().T) / 2)
    algebra = (vectors * np.exp(1j * values)) @ vectors.conj().T
    eye = np.eye(len(group), dtype=complex)
    residual_diagram = frobenius_norm(group - algebra)
    residual_unitarity = frobenius_norm(group.conj().T @ group - eye)
    residual_hermiticity = frobenius_norm(lifted - lifted.conj().T)
    violations = verify._count_sparsity_violations(lifted_h)
    passed = (
        residual_diagram <= tol
        and residual_unitarity <= tol
        and residual_hermiticity <= tol
        and violations == 0
    )
    return EighDiagram(
        residual_diagram,
        residual_unitarity,
        residual_hermiticity,
        violations,
        passed,
    )
