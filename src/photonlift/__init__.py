"""Multi-photon descriptions of linear optical networks.

Lift an m-mode single-photon scattering matrix, or its effective
Hamiltonian, to the full n-photon description on the occupation-number
basis, and check numerically that exponentiating and lifting commute.
"""

from .fock import (
    FockBasis,
    MoveKind,
    OccupationState,
    bunched_first_order,
    dimension,
    enumerate_basis,
    photon_move_relation,
)
from .io import MatrixFileError, read_matrix, write_matrix
from .lift import (
    LiftedHamiltonian,
    LiftedUnitary,
    balanced_beam_splitter,
    global_phase_lift,
    hamiltonian_element,
    lift_hamiltonian,
    lift_unitary_expansion,
    lift_unitary_permanent,
    transition_distribution,
)
from .matfuncs import (
    PERMANENT_SIZE_LIMIT,
    NotHermitianError,
    NotUnitaryError,
    frobenius_norm,
    is_hermitian,
    is_unitary,
    matrix_exponential,
    permanent,
    unitary_logarithm,
)
from .verify import (
    DEFAULT_SEED,
    DiagramReport,
    GlobalPhaseReport,
    HomomorphismReport,
    check_derivative_oracle,
    check_diagram,
    check_global_phase,
    check_homomorphism,
    random_hermitian,
    random_unitary,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "PERMANENT_SIZE_LIMIT",
    "DEFAULT_SEED",
    "OccupationState",
    "FockBasis",
    "MoveKind",
    "LiftedUnitary",
    "LiftedHamiltonian",
    "DiagramReport",
    "HomomorphismReport",
    "GlobalPhaseReport",
    "MatrixFileError",
    "NotUnitaryError",
    "NotHermitianError",
    "dimension",
    "enumerate_basis",
    "photon_move_relation",
    "bunched_first_order",
    "frobenius_norm",
    "is_unitary",
    "is_hermitian",
    "matrix_exponential",
    "unitary_logarithm",
    "permanent",
    "lift_unitary_expansion",
    "lift_unitary_permanent",
    "lift_hamiltonian",
    "hamiltonian_element",
    "global_phase_lift",
    "transition_distribution",
    "balanced_beam_splitter",
    "check_diagram",
    "check_homomorphism",
    "check_global_phase",
    "check_derivative_oracle",
    "random_hermitian",
    "random_unitary",
    "run_sweep",
    "read_matrix",
    "write_matrix",
]
