"""Reference constructions for the tests, kept outside the package.

``diagram_by_eigh`` is the diagram check by a dense eigendecomposition of
the lifted Hamiltonian: the algebra route is exp(i lift_H(H)) from
``np.linalg.eigh`` of the M x M Hermitian part, rebuilt as
V e^{i Lambda} V^dag. ``photonlift.verify.check_diagram`` takes the same
exponential from the lifted single-photon eigenbasis instead, so this route
serves as its oracle. It reads ``lift_hamiltonian`` and ``_expansion_lifts``
from ``photonlift.verify`` at call time, so a fault patched into either one
reaches both routes.

``sweep_by_checks`` is ``run_sweep`` as a loop over the public checks, one
call per check on freshly drawn inputs, and serves as the oracle of the
fused sweep trial.
"""

from dataclasses import dataclass

import numpy as np

import photonlift.verify as verify
from photonlift.fock import _mode_number, _whole_number
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


def sweep_by_checks(
    modes: int,
    photons: int,
    trials: int,
    seed: int = verify.DEFAULT_SEED,
    tol: float = 1e-8,
    homomorphism_tol: float = 1e-9,
    phase_tol: float = 1e-10,
) -> list[tuple[str, int, object]]:
    """The seeded sweep by the public ``check_*`` calls, one check at a time.

    Draws what ``run_sweep`` draws, in the same order, and leaves the
    checks of photons and tolerances to the check that first receives them.
    """
    trials = _whole_number(trials, 1, "trial")
    modes = _mode_number(modes)
    rng = np.random.default_rng(seed)
    results: list[tuple[str, int, object]] = []
    for trial in range(trials):
        hermitian = verify.random_hermitian(modes, rng)
        results.append(("diagram", trial, verify.check_diagram(hermitian, photons, tol)))
        first = verify.random_unitary(modes, rng)
        second = verify.random_unitary(modes, rng)
        homomorphism = verify.check_homomorphism(first, second, photons, homomorphism_tol)
        results.append(("homomorphism", trial, homomorphism))
        phase = rng.uniform(-np.pi, np.pi)
        scattering = verify.random_unitary(modes, rng)
        global_phase = verify.check_global_phase(scattering, phase, photons, phase_tol)
        results.append(("global_phase", trial, global_phase))
    return results
