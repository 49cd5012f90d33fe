"""Multi-photon descriptions of linear optical networks.

Lift an m-mode single-photon scattering matrix, or its effective
Hamiltonian, to the full n-photon description on the occupation-number
basis, and check numerically that exponentiating and lifting commute.

The public names are re-exported lazily (PEP 562): ``import photonlift``
loads no submodule, and the first access to a name imports its home
module and keeps the name here, so later accesses are plain lookups.
``from photonlift import ...`` and ``from photonlift import *`` see every
name of ``__all__``, ``dir()`` lists them and the five submodules, and
``photonlift.fock`` and the others import on first access too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in ``__all__`` order.
_HOMES = {
    "PERMANENT_SIZE_LIMIT": "matfuncs",
    "DEFAULT_SEED": "verify",
    "OccupationState": "fock",
    "FockBasis": "fock",
    "MoveKind": "fock",
    "LiftedUnitary": "lift",
    "LiftedHamiltonian": "lift",
    "DiagramReport": "verify",
    "HomomorphismReport": "verify",
    "GlobalPhaseReport": "verify",
    "MatrixFileError": "io",
    "NotUnitaryError": "matfuncs",
    "NotHermitianError": "matfuncs",
    "dimension": "fock",
    "enumerate_basis": "fock",
    "photon_move_relation": "fock",
    "bunched_first_order": "fock",
    "frobenius_norm": "matfuncs",
    "is_unitary": "matfuncs",
    "is_hermitian": "matfuncs",
    "matrix_exponential": "matfuncs",
    "unitary_logarithm": "matfuncs",
    "permanent": "matfuncs",
    "lift_unitary_expansion": "lift",
    "lift_unitary_permanent": "lift",
    "lift_hamiltonian": "lift",
    "hamiltonian_element": "lift",
    "global_phase_lift": "lift",
    "transition_distribution": "lift",
    "balanced_beam_splitter": "lift",
    "check_diagram": "verify",
    "check_homomorphism": "verify",
    "check_global_phase": "verify",
    "check_derivative_oracle": "verify",
    "random_hermitian": "verify",
    "random_unitary": "verify",
    "run_sweep": "verify",
    "read_matrix": "io",
    "write_matrix": "io",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _HOMES.values():
        # Importing a submodule binds it here as well.
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES.values()})
