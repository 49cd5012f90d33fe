"""Runnable consistency checks for the lift maps, with seeded sweeps.

The central check: lifting an effective Hamiltonian and exponentiating must
give the same n-photon unitary as exponentiating first and lifting the
resulting scattering matrix. The lift-then-exponentiate side needs no
M x M eigendecomposition: with H = V Lambda V^dag, the lifted eigenbasis
W = lift_U(V) diagonalises lift_H(H) with eigenvalues q . lambda, one per
basis state q. The check measures how far lift_H(H) W is from
W diag(q . lambda) and how far W is from unitary; when both are within
tolerance, W diag(e^{i q . lambda}) W^dag is exp(i lift_H(H)) to rounding,
so comparing it with the lifted e^{iH} compares the two routes.
Companions cover product preservation, global phases, and a
finite-difference route to the Hamiltonian lift. All randomness is drawn
from an explicit seed (DEFAULT_SEED when unspecified) so every report is
reproducible.

Each check validates its arguments, lifts, and hands the checked arrays and
their lifts to a private report core (``_diagram_report``,
``_homomorphism_report``, ``_phase_report``) that holds every residual and
every pass rule. ``run_sweep`` feeds the same cores from one fused trial:
one ``rng.random`` call draws the whole trial, one stacked expression
builds its four Hermitian matrices, one stacked ``eigh`` of them gives
every m x m exponential, and one stacked expansion lift walks all seven
matrices the three checks need. At small M a trial's cost is per-call
overhead, so a fixed number of calls per trial is most of its speed.

Every M x M array a check writes, the lifts and the scratch array its
residuals are taken in, is a slot of one array allocated per call (per
sweep in ``run_sweep``), once every argument is checked; see
``_work_array``. Nothing is kept between calls, so the checks are safe to
call concurrently.

The sparsity count reads an index of the state pairs at most one photon
move apart, built per (m, n) from the basis occupations alone, so it stays
independent of the ladder table that builds the lifted H. The index is
kept in the plan store of ``fock``, which also keeps the ladder tables and
the lifts' plans and evicts least recently used plans past one byte
budget; it shares their storage and nothing else.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    _mode_number,
    _photon_number,
    _stored_plan,
    _whole_number,
    enumerate_basis,
    ladder_table,
)
from .lift import (
    LiftedHamiltonian,
    _check_phase,
    _checked_hamiltonian,
    _expansion_lifts,
    _fill_hamiltonian,
    lift_hamiltonian,
    lift_unitary_expansion,
)
from .matfuncs import (
    _as_square,
    _check_tol,
    _eigh_hermitian_part,
    _exp_i_eigh,
    _exp_i_hermitian,
    frobenius_norm,
)

__all__ = [
    "DEFAULT_SEED",
    "DiagramReport",
    "HomomorphismReport",
    "GlobalPhaseReport",
    "check_diagram",
    "check_homomorphism",
    "check_global_phase",
    "check_derivative_oracle",
    "random_hermitian",
    "random_unitary",
    "run_sweep",
]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class DiagramReport:
    """Residuals of the exponentiate-then-lift vs lift-then-exponentiate paths.

    ``residual_diagram`` compares lift_U(e^{iH}) with W diag(e^{i mu}) W^dag,
    W = lift_U(V) for the eigenvectors V of H and mu_q = q . lambda.
    ``residual_eigen`` (||lift_H(H) W - W diag(mu)||_F) and
    ``residual_eigenbasis`` (||W^dag W - I||_F) are what make that product
    the exponential of the lifted H: a complete orthonormal set of its
    eigenvectors with their eigenvalues fixes every function of a Hermitian
    matrix. All residuals are Frobenius norms gated on ``tolerance``, along
    with zero ``sparsity_violations``.
    """

    modes: int
    photons: int
    residual_diagram: float
    residual_unitarity: float
    residual_hermiticity: float
    sparsity_violations: int
    residual_eigen: float
    residual_eigenbasis: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class HomomorphismReport:
    """Residual of lifting a product vs multiplying the lifts."""

    modes: int
    photons: int
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class GlobalPhaseReport:
    """Residual of lifting a rephased matrix vs rephasing the lift."""

    modes: int
    photons: int
    phase: float
    residual: float
    tolerance: float
    passed: bool


@_stored_plan
def _near_pairs(modes: int, photons: int) -> np.ndarray:
    """Flat positions of the M x M pairs at most one photon move apart.

    Those are the pairs (p, q) at occupation L1 distance 0 or 2: the
    diagonal, and p = q - e_l + e_j for j != l, the pairs that share the
    n - 1 photon state r = q - e_l = p - e_j. So every state q is listed
    once per occupied mode l with its parent row q - e_l, and the list is
    grouped by the parent rows' bytes in a dict, with no sort and no
    ranking. Each parent r has exactly m children r + e_j, so the groups
    form an (M', m) array, and every ordered pair of distinct members of a
    group is one move apart, each pair in exactly one group. Everything
    comes from the basis occupations alone: no ladder table and no M x M
    temporary. The read-only result holds M + M' m (m - 1) positions, the
    number of entries a lifted H may fill, in no particular order.
    """
    occupations = enumerate_basis(modes, photons).occupations
    size = len(occupations)
    states, lowered = np.nonzero(occupations)
    parents = occupations[states]
    parents[np.arange(len(states)), lowered] -= 1
    children = {}
    for state, parent in zip(states.tolist(), map(bytes, parents)):
        children.setdefault(parent, []).append(state)
    groups = np.array(list(children.values()), dtype=np.intp).reshape(-1, modes)
    pairs = groups[:, :, None] * size + groups[:, None, :]
    moves = pairs[:, ~np.eye(modes, dtype=bool)].ravel()
    near = np.concatenate([moves, np.arange(size) * (size + 1)])
    near.flags.writeable = False
    return near


def _count_nonzero_entries(values: np.ndarray) -> int:
    """Entries of a C-contiguous complex array with a non-zero part, NaN included.

    Compares the float64 view with 0 and reads each entry's two flags as
    one uint16: what ``np.count_nonzero`` counts, about nine times faster
    than it runs on complex input.
    """
    return int(np.count_nonzero(np.not_equal(values.view(float), 0).view(np.uint16)))


def _count_sparsity_violations(lifted) -> int:
    """Non-zero entries between states more than one photon move apart.

    Two states are one move apart when their occupations differ by 2 in L1
    distance. The count is the non-zero entries of the whole matrix less
    those at the stored positions of ``_near_pairs``, so a NaN entry counts
    as non-zero, as ``np.nonzero`` counts it. Those positions come from the
    basis states themselves, not from the ladder table that built the
    matrix, so the check stays independent of the construction it checks.
    A call costs one O(M^2) comparison with zero and a gather of the
    O(M' m^2) near positions. The index is built once per size, from
    O(m M') rows, and kept in the plan store of ``fock``.
    """
    matrix = np.ascontiguousarray(lifted.matrix, dtype=complex)
    near = np.take(matrix, _near_pairs(lifted.basis.modes, lifted.basis.photons))
    return _count_nonzero_entries(matrix) - _count_nonzero_entries(near)


def _work_array(slots: int, modes: int, photons: int) -> np.ndarray:
    """``slots`` M x M complex arrays as the slots of one (slots, M, M) array.

    The counts are checked as ``ladder_table`` checks them, before anything
    is allocated: an empty matrix's mode count is refused here. The contents
    are undefined, so each slot is written in full before it is read.
    """
    size = len(ladder_table(modes, photons).basis)
    # One block, not one array per slot: glibc's free raises its mmap
    # threshold to the size of a freed mmap'd block and its trim threshold
    # to twice that (mallopt(3), "dynamic mmap threshold"). Once a block
    # of all the slots has been freed, the next one comes from the heap,
    # and what a check frees stays under the trim threshold, so later
    # checks reuse those pages. Separate M x M arrays would leave the trim
    # threshold at two of them, below the heap top a check frees, and
    # every check would hand its pages back and fault them in again.
    return np.empty((slots, size, size), dtype=complex)


def _distance_to_identity(product: np.ndarray) -> float:
    """||A - I||_F for a square C-contiguous A, subtracting I in place."""
    product.reshape(-1)[:: len(product) + 1] -= 1
    return frobenius_norm(product)


def _diagram_report(
    lifted_h: LiftedHamiltonian,
    values: np.ndarray,
    group: np.ndarray,
    lifted_vectors: np.ndarray,
    scratch: np.ndarray,
    tol: float,
) -> DiagramReport:
    """The diagram report from checked arrays: every residual and the pass rule.

    ``values`` are the eigenvalues lambda of the single-photon H, and
    ``group`` and ``lifted_vectors`` the expansion lifts G = lift_U(e^{iH})
    and W = lift_U(V). The lifted H and W are overwritten. Every residual
    is taken in ``scratch``, a C-contiguous M x M complex array whose
    contents do not matter, so the report allocates no M x M array.
    """
    lifted = lifted_h.matrix
    np.conjugate(lifted.T, out=scratch)
    scratch -= lifted
    residual_hermiticity = frobenius_norm(scratch)
    violations = _count_sparsity_violations(lifted_h)
    energies = lifted_h.basis.occupations @ values
    np.matmul(lifted, lifted_vectors, out=scratch)
    # The lifted H is not needed past that product, so its array is reused.
    np.multiply(lifted_vectors, energies, out=lifted)
    scratch -= lifted
    residual_eigen = frobenius_norm(scratch)
    # Gram matrices X^dag X as conj(X)^T X, with conj(X) in the freed array.
    np.conjugate(lifted_vectors, out=lifted)
    np.matmul(lifted.T, lifted_vectors, out=scratch)
    residual_eigenbasis = _distance_to_identity(scratch)
    np.conjugate(group, out=lifted)
    np.matmul(lifted.T, group, out=scratch)
    residual_unitarity = _distance_to_identity(scratch)
    # W e^{i mu} W^dag - G; W is conjugated in place, as only W^dag is left to use.
    np.multiply(lifted_vectors, np.exp(1j * energies), out=lifted)
    np.conjugate(lifted_vectors, out=lifted_vectors)
    np.matmul(lifted, lifted_vectors.T, out=scratch)
    scratch -= group
    residual_diagram = frobenius_norm(scratch)
    passed = (
        residual_diagram <= tol
        and residual_unitarity <= tol
        and residual_hermiticity <= tol
        and residual_eigen <= tol
        and residual_eigenbasis <= tol
        and violations == 0
    )
    return DiagramReport(
        modes=lifted_h.basis.modes,
        photons=lifted_h.basis.photons,
        residual_diagram=residual_diagram,
        residual_unitarity=residual_unitarity,
        residual_hermiticity=residual_hermiticity,
        sparsity_violations=violations,
        residual_eigen=residual_eigen,
        residual_eigenbasis=residual_eigenbasis,
        tolerance=tol,
        passed=passed,
    )


def check_diagram(h_single, photons: int, tol: float = 1e-8) -> DiagramReport:
    """Compare both routes from a single-photon Hamiltonian to the n-photon unitary.

    The group route exponentiates and lifts: G = lift_U(e^{iH}). The
    algebra route is exp(i lift_H(H)), taken from the paper's own
    eigenbasis instead of an M x M ``eigh``. With H = V Lambda V^dag from
    ``eigh`` of the m x m Hermitian part, every column q of W = lift_U(V)
    should be an eigenvector of lift_H(H) with eigenvalue mu_q = q . lambda,
    the occupations of q dotted with the single-photon eigenvalues. Two
    residuals check that directly:

    * ``residual_eigen`` = ||lift_H(H) W - W diag(mu)||_F, one dense product;
    * ``residual_eigenbasis`` = ||W^dag W - I||_F.

    When both are within ``tol``, W diag(e^{i mu}) W^dag is exp(i lift_H(H))
    to rounding: a function of a Hermitian matrix is fixed by any complete
    orthonormal set of its eigenvectors and their eigenvalues. So
    ``residual_diagram`` = ||G - W diag(e^{i mu}) W^dag||_F compares the two
    routes, and a fault in either lift shows in one of the three residuals.
    G and W come from one stacked call of the expansion lift, so the check
    runs no M x M eigendecomposition; the dense product and the Gram
    matrices are O(M^3) GEMMs.

    Also records how unitary G is, how Hermitian the lifted H is, and how
    many far-apart state pairs picked up a non-zero coupling, counted
    against a stored index of the near pairs built from the basis alone (see
    ``_count_sparsity_violations``). Around the four GEMMs, that count is
    one O(M^2) comparison with zero, and each norm one O(M^2) dot with no
    temporary. The input must be Hermitian within ``tol``. Lambda, V and
    e^{iH} come from its Hermitian part, (H + H^dag) / 2, so a matrix that
    is Hermitian only within ``tol`` still gives a unitary G to rounding.
    Its anti-Hermitian part shows in ``residual_hermiticity``, taken from
    the lifted H itself, and adds at most half of that to
    ``residual_eigen``. A NaN or negative ``tol`` raises ValueError.

    Every argument is checked, in the order ``lift_hamiltonian`` checks
    them, before anything M x M is allocated. Then the lifted H, G, W and
    the scratch array every residual is taken in are the four slots of one
    (4, M, M) array (see ``_work_array``), so the check allocates no other
    M x M array. Its peak is those four beside the lift walk of W.
    """
    matrix, table = _checked_hamiltonian(h_single, photons, tol)
    values, vectors = _eigh_hermitian_part(matrix)
    basis = table.basis
    work = _work_array(4, basis.modes, basis.photons)
    lifted_h = _fill_hamiltonian(matrix, table, work[0])
    group, lifted_vectors = _expansion_lifts(
        [_exp_i_eigh(values, vectors), vectors], basis.photons, work[2:]
    )
    return _diagram_report(lifted_h, values, group, lifted_vectors, work[1], tol)


def _homomorphism_report(
    modes: int,
    photons: int,
    combined: np.ndarray,
    lifted_b: np.ndarray,
    lifted_a: np.ndarray,
    scratch: np.ndarray,
    tol: float,
) -> HomomorphismReport:
    """The homomorphism report from the lifts of b @ a, b and a.

    The product of the lifts is taken in ``scratch``, an M x M complex
    array whose contents do not matter.
    """
    # separate - combined, in place: the norm is that of combined - separate.
    np.matmul(lifted_b, lifted_a, out=scratch)
    scratch -= combined
    residual = frobenius_norm(scratch)
    return HomomorphismReport(
        modes=modes,
        photons=photons,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def check_homomorphism(first, second, photons: int, tol: float = 1e-9) -> HomomorphismReport:
    """Check that lifting second @ first equals the product of the lifts.

    ``first`` acts first, ``second`` after it, matching operator order. The
    three lifts share stacked passes (see ``lift._expansion_lifts``), and
    they and the product of two of them are the slots of one array.
    """
    a = _as_square(first)
    b = _as_square(second)
    if a.shape != b.shape:
        raise ValueError(f"matrix sizes differ: {a.shape} vs {b.shape}")
    _check_tol(tol)
    product = _as_square(b @ a)
    photons = _photon_number(photons)
    work = _work_array(4, a.shape[0], photons)
    lifts = _expansion_lifts([product, b, a], photons, work[1:])
    return _homomorphism_report(a.shape[0], photons, *lifts, work[0], tol)


def _phase_report(
    modes: int,
    photons: int,
    phase: float,
    plain: np.ndarray,
    shifted: np.ndarray,
    scratch: np.ndarray,
    tol: float,
) -> GlobalPhaseReport:
    """The global-phase report from the lifts of S and e^{i phase} S.

    The difference is taken in ``scratch``, an M x M complex array whose
    contents do not matter.
    """
    np.multiply(np.exp(1j * photons * phase), plain, out=scratch)
    np.subtract(shifted, scratch, out=scratch)
    residual = frobenius_norm(scratch)
    return GlobalPhaseReport(
        modes=modes,
        photons=photons,
        phase=phase,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def check_global_phase(
    scattering, phase: float, photons: int, tol: float = 1e-10
) -> GlobalPhaseReport:
    """Check that a global phase on S surfaces as n times the phase on the lift.

    S and e^{i phase} S are lifted in shared stacked passes (see
    ``lift._expansion_lifts``), and they and the difference are the slots
    of one array. A NaN or infinite ``phase`` raises ValueError before
    anything is lifted.
    """
    matrix = _as_square(scattering)
    _check_tol(tol)
    photons = _photon_number(photons)
    _check_phase(phase)
    rephased = _as_square(np.exp(1j * phase) * matrix)
    work = _work_array(3, matrix.shape[0], photons)
    lifts = _expansion_lifts([matrix, rephased], photons, work[1:])
    return _phase_report(matrix.shape[0], photons, phase, *lifts, work[0], tol)


def check_derivative_oracle(h_single, photons: int, step: float) -> float:
    """Residual between a finite-difference lift derivative and the direct lift.

    The lifted Hamiltonian is, up to a factor i, the derivative at zero of
    lifting exp(i H t). A central difference with step ``step`` therefore
    approximates i times the direct construction with O(step^2) error; the
    returned Frobenius residual shrinks fourfold when the step halves.
    """
    matrix = _as_square(h_single)
    if not 0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    forward = lift_unitary_expansion(_exp_i_hermitian(step * matrix), photons)
    backward = lift_unitary_expansion(_exp_i_hermitian(-step * matrix), photons)
    difference = (forward.matrix - backward.matrix) / (2 * step)
    direct = lift_hamiltonian(matrix, photons).matrix
    return frobenius_norm(difference - 1j * direct)


def random_hermitian(modes: int, rng: "np.random.Generator") -> np.ndarray:
    """Hermitian matrix with entries built from Uniform(-1, 1) draws."""
    raw = rng.uniform(-1, 1, (modes, modes)) + 1j * rng.uniform(-1, 1, (modes, modes))
    return (raw + raw.conj().T) / 2


def random_unitary(modes: int, rng: "np.random.Generator") -> np.ndarray:
    """Unitary matrix obtained by exponentiating i times a random Hermitian."""
    return _exp_i_hermitian(random_hermitian(modes, rng))


def run_sweep(
    modes: int,
    photons: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
    homomorphism_tol: float = 1e-9,
    phase_tol: float = 1e-10,
) -> list[tuple[str, int, object]]:
    """Run the diagram, homomorphism, and global-phase checks on random inputs.

    Returns (kind, trial, report) triples in a deterministic order for the
    given seed. Aggregation (e.g. all-passed) is order-independent. Every
    argument is checked before the first draw. ``trials`` and ``modes``
    must be whole numbers >= 1 and ``photons`` a whole number >= 0: 2.0
    counts as 2, while booleans, fractions and strings raise ValueError, so
    an empty sweep never passes. A NaN or negative tolerance raises
    ValueError too, as the public checks raise it.

    Each trial draws its 8 m^2 + 1 doubles u with one ``rng.random`` call,
    in this order: the real then the imaginary parts of the m x m entries
    of the diagram check's H (2 m^2), then of the Hermitian generators of
    the homomorphism's ``first`` (a) and ``second`` (b), then the phase,
    then the generator of the phase check's S. They are scaled as
    ``Generator.uniform`` scales them, -1 + 2u for the entries and
    -pi + 2 pi u for the phase, so they are the doubles that
    ``random_hermitian`` and ``rng.uniform`` would draw in that order. The
    four draws are built in one stacked (raw + raw^dag) / 2, exactly
    Hermitian and finite, so they go to ``eigh`` as they are, with no
    Hermitian-part step and no tolerance check: the tolerances were checked
    before the first draw. The trial then takes one stacked ``eigh``, which
    gives lambda and V of H and all four m x m exponentials, the lift of H
    (what ``lift_hamiltonian`` gives), and one stacked expansion lift of
    [e^{iH}, V, b a, b, a, S, e^{i phase} S]. The reports come from the
    cores the public checks use, and equal, by ``repr``, what calling those
    checks one after another on the same draws gives. The lifted H, the
    scratch array and the seven lifts are the slots of one (9, M, M) array
    (see ``_work_array``), allocated once the arguments are checked and
    rewritten by every trial, so no trial allocates an M x M array.
    """
    trials = _whole_number(trials, 1, "trial")
    modes = _mode_number(modes)
    photons = _photon_number(photons)
    for bound in (tol, homomorphism_tol, phase_tol):
        _check_tol(bound)
    table = ladder_table(modes, photons)
    # Slots: the lifted H, the scratch array, then the seven lifts.
    work = _work_array(9, modes, photons)
    rng = np.random.default_rng(seed)
    results: list[tuple[str, int, object]] = []
    # Each trial's draws: 6 m^2 for H, a and b, the phase, then 2 m^2 for S.
    cut = 6 * modes**2
    for trial in range(trials):
        draws = rng.random(cut + 2 * modes**2 + 1)
        # rng.uniform(low, high) is low + (high - low) * u: the same doubles.
        phase = -math.pi + 2 * math.pi * float(draws[cut])
        parts = np.concatenate((draws[:cut], draws[cut + 1 :]))
        raw = -1.0 + 2.0 * parts.reshape(4, 2, modes, modes)
        raw = raw[:, 0] + 1j * raw[:, 1]
        drawn = (raw + raw.conj().swapaxes(1, 2)) / 2
        values, vectors = np.linalg.eigh(drawn)
        exponential, a, b, scattering = _exp_i_eigh(values, vectors)
        lifted_h = _fill_hamiltonian(drawn[0], table, work[0])
        rephased = np.exp(1j * phase) * scattering
        lifts = _expansion_lifts(
            [exponential, vectors[0], b @ a, b, a, scattering, rephased],
            photons,
            work[2:],
        )
        scratch = work[1]
        diagram = _diagram_report(lifted_h, values[0], *lifts[:2], scratch, tol)
        homomorphism = _homomorphism_report(
            modes, photons, *lifts[2:5], scratch, homomorphism_tol
        )
        global_phase = _phase_report(
            modes, photons, phase, *lifts[5:], scratch, phase_tol
        )
        results += [
            ("diagram", trial, diagram),
            ("homomorphism", trial, homomorphism),
            ("global_phase", trial, global_phase),
        ]
    return results
