"""Runnable consistency checks for the lift maps, with seeded sweeps.

The central check: lifting an effective Hamiltonian and exponentiating must
give the same n-photon unitary as exponentiating first and lifting the
resulting scattering matrix. The lift-then-exponentiate side needs no
M x M eigendecomposition: with H = V Lambda V^dag, the lifted eigenbasis
W = lift_U(V) diagonalises lift_H(H) with eigenvalues q . lambda, one per
basis state q. The check measures how far lift_H(H) W is from
W diag(q . lambda) and how far W is from unitary; when both are within
tolerance, W diag(e^{i q . lambda}) W^dag is exp(i lift_H(H)) to rounding,
so comparing it with the lifted e^{iH} compares the two routes. Those are
its three M x M products; how far G = lift_U(e^{iH}) is from unitary is
bounded from two of their residuals (see ``_diagram_report``).
Companions cover product preservation, global phases, and a
finite-difference route to the Hamiltonian lift. All randomness is drawn
from an explicit seed (DEFAULT_SEED when unspecified) so every report is
reproducible.

Each check validates its arguments, lifts, and hands the lifts to its one
report function: ``_diagram_report``, ``_homomorphism_report`` or
``_phase_report``. A report function writes each residual into one
scratch slot and takes its norm, one BLAS dot of the slot's float64 view,
before the next residual is written; it also holds its check's pass rule.
``run_sweep`` calls the same three functions, so the public checks and the
sweep share one residual path. Around them a sweep trial is one fixed run
of array calls: one ``rng.random`` call draws the whole trial, its four
raw matrices are views of the draws and two ufunc calls make them
Hermitian, one stacked ``eigh`` gives every m x m exponential, written by
one ``matmul`` straight into the stack of the seven matrices the three
checks lift, and one stacked expansion lift walks them. At small M a
trial's cost is per-call overhead, so a small, fixed number of calls per
trial is most of its speed.

Every M x M array a check writes, the lifts and the scratch slot its
residuals are taken in, is a slot of one array allocated per call (per
sweep in ``run_sweep``), once every argument is checked; see
``_work_array``. Nothing is kept between calls, so the checks are safe to
call concurrently.

The sparsity count zeroes, in the non-zero mask of the lifted H, the
state pairs at most one photon move apart and counts what is left, from
an index built per (m, n) from the basis occupations alone, so it stays
independent of the ladder table that builds the lifted H. The index is
kept in the plan store of ``fock``, which also keeps the ladder tables
and the lifts' plans and evicts least recently used plans past one byte
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
    # No check here calls it; kept as ``verify.lift_hamiltonian`` for
    # callers that read it from this module.
    lift_hamiltonian,
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
    with zero ``sparsity_violations``. ``residual_unitarity`` is not measured:
    it is an upper bound on ||G^dag G - I||_F, G = lift_U(e^{iH}), from the
    eigenbasis and diagram residuals (see ``_diagram_report``), so the check
    takes three M x M products.
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


def _count_sparsity_violations(lifted) -> int:
    """Non-zero entries between states more than one photon move apart.

    Two states are one move apart when their occupations differ by 2 in L1
    distance. The count is one ``np.count_nonzero`` over the matrix's
    non-zero mask with the stored positions of ``_near_pairs`` zeroed. The
    mask compares the float64 view with 0 and reads each entry's two flags
    as one uint16, so a NaN entry counts as non-zero, as ``np.nonzero``
    counts it, about nine times faster than ``np.count_nonzero`` runs on
    complex input. The near positions come from the basis states
    themselves, not from the ladder table that built the matrix, so the
    check stays independent of the construction it checks. A call costs
    one O(M^2) comparison with zero into a mask of 2 M^2 bytes, an eighth
    of the matrix, and a scatter of zeros to the O(M' m^2) near positions.
    The index is built once per size, from O(m M') rows, and kept in the
    plan store of ``fock``.
    """
    matrix = np.ascontiguousarray(lifted.matrix, dtype=complex)
    mask = np.not_equal(matrix.view(float), 0).view(np.uint16)
    mask.reshape(-1)[_near_pairs(lifted.basis.modes, lifted.basis.photons)] = 0
    return int(np.count_nonzero(mask))


def _work_array(slots: int, table) -> np.ndarray:
    """``slots`` M x M complex arrays as the slots of one (slots, M, M) array.

    M is the size of the basis of ``table``, a ladder table, so the photon
    and mode counts were checked, as ``ladder_table`` checks them, before
    anything is allocated: an empty matrix's mode count is refused there.
    The contents are undefined, so each slot is written in full before it
    is read.
    """
    size = len(table.basis)
    # One block, not one array per slot: glibc's free raises its mmap
    # threshold to the size of a freed mmap'd block and its trim threshold
    # to twice that (mallopt(3), "dynamic mmap threshold"). Once a block
    # of all the slots has been freed, the next one comes from the heap,
    # and what a check frees stays under the trim threshold, so later
    # checks reuse those pages. Separate M x M arrays would leave the trim
    # threshold at two of them, below the heap top a check frees, and
    # every check would hand its pages back and fault them in again.
    return np.empty((slots, size, size), dtype=complex)


def _slot_norm(flat: np.ndarray) -> float:
    """The Frobenius norm of a slot from its flat float64 view, as one BLAS dot.

    ``frobenius_norm`` takes the same dot of the same view, so the two give
    the same bits, NaN, infinities and overflow to inf included. This one
    skips its layout and dtype steps, and the method call skips the
    dispatch of ``np.dot``: at small M a sweep trial takes six norms, and
    these per-call costs are a few percent of the trial.
    """
    return math.sqrt(flat.dot(flat))


def _diagram_report(
    lifted_h: LiftedHamiltonian,
    values: np.ndarray,
    group: np.ndarray,
    lifted_vectors: np.ndarray,
    scratch: np.ndarray,
    tol: float,
) -> DiagramReport:
    """The report of ``check_diagram`` from its checked arrays.

    ``values`` are the eigenvalues lambda of the single-photon H, and
    ``group`` and ``lifted_vectors`` the expansion lifts G = lift_U(e^{iH})
    and W = lift_U(V). The lifted H and W are overwritten. Every residual
    is taken in ``scratch``, a C-contiguous M x M complex array whose
    contents do not matter, each norm before the next residual is written,
    so the report allocates no M x M array. It takes three M x M products,
    lift_H(H) W, W^dag W and W e^{i mu} W^dag. The check's one pass rule,
    for ``check_diagram`` and ``run_sweep`` alike, gates every residual
    on ``tol`` along with zero sparsity violations.

    The unitarity residual is the bound e (2 + e) + 2 d (1 + e) + d^2 on
    ||G^dag G - I||_F, from e = ||W^dag W - I||_F and d = ||D||_F for
    D = G - W E W^dag, E = diag(e^{i mu}). With A = W^dag W - I,
    G^dag G - I = (W W^dag - I) + W E^dag A E W^dag + W E^dag W^dag D
    + D^dag W E W^dag + D^dag D, and ||W W^dag - I||_F = e (W is square)
    and ||W||_2^2 <= 1 + e bound the terms by e, (1 + e) e, twice (1 + e) d,
    and d^2. A NaN or infinite residual gives a bound that fails the rule.
    """
    lifted = lifted_h.matrix
    flat = scratch.ravel().view(float)
    violations = _count_sparsity_violations(lifted_h)
    np.conjugate(lifted.T, out=scratch)
    scratch -= lifted
    hermiticity = _slot_norm(flat)
    energies = lifted_h.basis.occupations @ values
    np.matmul(lifted, lifted_vectors, out=scratch)
    # The lifted H is not needed past that product, so its array is reused.
    np.multiply(lifted_vectors, energies, out=lifted)
    scratch -= lifted
    eigen = _slot_norm(flat)
    # The Gram matrix W^dag W as conj(W)^T W, with conj(W) in the freed
    # array, less I in the real parts of its diagonal.
    np.conjugate(lifted_vectors, out=lifted)
    np.matmul(lifted.T, lifted_vectors, out=scratch)
    flat[:: 2 * len(scratch) + 2] -= 1
    eigenbasis = _slot_norm(flat)
    # W e^{i mu} W^dag - G; W is conjugated in place, as only W^dag is left to use.
    np.multiply(lifted_vectors, np.exp(1j * energies), out=lifted)
    np.conjugate(lifted_vectors, out=lifted_vectors)
    np.matmul(lifted, lifted_vectors.T, out=scratch)
    scratch -= group
    diagram = _slot_norm(flat)
    unitarity = eigenbasis * (2 + eigenbasis) + 2 * diagram * (1 + eigenbasis) + diagram**2
    passed = (
        diagram <= tol
        and unitarity <= tol
        and hermiticity <= tol
        and eigen <= tol
        and eigenbasis <= tol
        and violations == 0
    )
    return DiagramReport(
        modes=lifted_h.basis.modes,
        photons=lifted_h.basis.photons,
        residual_diagram=diagram,
        residual_unitarity=unitarity,
        residual_hermiticity=hermiticity,
        sparsity_violations=violations,
        residual_eigen=eigen,
        residual_eigenbasis=eigenbasis,
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
    runs no M x M eigendecomposition; its three M x M products, the dense
    product, the Gram matrix and W e^{i mu} W^dag, are O(M^3) GEMMs.

    Also records a bound on how far G is from unitary,
    e (2 + e) + 2 d (1 + e) + d^2 for e = ``residual_eigenbasis`` and
    d = ``residual_diagram``: with G = W E W^dag + D, E unitary and
    diagonal, ||W W^dag - I||_F = e and ||W||_2^2 <= 1 + e bound each term
    of G^dag G - I (see ``_diagram_report``). It also records how Hermitian
    the lifted H is, and how many far-apart state pairs picked up a
    non-zero coupling, counted against a stored index of the near pairs
    built from the basis alone (see ``_count_sparsity_violations``).
    Around the three GEMMs, that count is
    one O(M^2) comparison with zero, and each norm one O(M^2) dot with no
    temporary. The input must be Hermitian within ``tol``. Lambda,
    V and e^{iH} come from its Hermitian part, (H + H^dag) / 2, so a
    matrix that is Hermitian only within ``tol`` still gives a unitary G to
    rounding. Its anti-Hermitian part shows in ``residual_hermiticity``,
    taken from the lifted H itself, and adds at most half of that to
    ``residual_eigen``. A NaN or negative ``tol`` raises ValueError.

    Every argument is checked, in the order ``lift_hamiltonian`` checks
    them, before anything M x M is allocated. Then the lifted H, G, W and
    the scratch array every residual is taken in are the four slots of one
    (4, M, M) array (see ``_work_array``), so the check allocates no other
    M x M array. Its peak is those four beside the lift walk of W. The
    residuals and the pass rule are ``_diagram_report``'s, which every
    ``run_sweep`` trial calls too.
    """
    matrix, table = _checked_hamiltonian(h_single, photons, tol)
    values, vectors = _eigh_hermitian_part(matrix)
    basis = table.basis
    work = _work_array(4, table)
    lifted_h = _fill_hamiltonian(matrix, table, work[0])
    group, lifted_vectors = _expansion_lifts(
        [_exp_i_eigh(values, vectors), vectors], basis.photons, work[2:]
    )
    return _diagram_report(lifted_h, values, group, lifted_vectors, work[1], tol)


def _homomorphism_report(
    basis, combined, lifted_b, lifted_a, scratch: np.ndarray, tol: float
) -> HomomorphismReport:
    """The report of ``check_homomorphism`` from the lifts of b a, b and a.

    The residual ||lift(b) lift(a) - lift(b a)||_F is taken in ``scratch``,
    a C-contiguous M x M complex array over ``basis`` that is none of the
    three lifts and whose contents do not matter. Holds the check's one
    pass rule, for ``check_homomorphism`` and ``run_sweep`` alike.
    """
    np.matmul(lifted_b, lifted_a, out=scratch)
    scratch -= combined
    residual = _slot_norm(scratch.ravel().view(float))
    return HomomorphismReport(
        modes=basis.modes,
        photons=basis.photons,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def check_homomorphism(first, second, photons: int, tol: float = 1e-9) -> HomomorphismReport:
    """Check that lifting second @ first equals the product of the lifts.

    ``first`` acts first, ``second`` after it, matching operator order. The
    three lifts share stacked passes (see ``lift._expansion_lifts``), and
    they and the product of two of them are the slots of one array. The
    residual and the pass rule are ``_homomorphism_report``'s, which every
    ``run_sweep`` trial calls too.
    """
    a = _as_square(first)
    b = _as_square(second)
    if a.shape != b.shape:
        raise ValueError(f"matrix sizes differ: {a.shape} vs {b.shape}")
    _check_tol(tol)
    product = _as_square(b @ a)
    photons = _photon_number(photons)
    table = ladder_table(a.shape[0], photons)
    work = _work_array(4, table)
    lifts = _expansion_lifts([product, b, a], photons, work[1:])
    return _homomorphism_report(table.basis, *lifts, work[0], tol)


def _phase_report(
    basis, phase: float, plain, shifted, scratch: np.ndarray, tol: float
) -> GlobalPhaseReport:
    """The report of ``check_global_phase`` from the lifts of S and e^{i phase} S.

    The residual ||lift(e^{i phase} S) - e^{i n phase} lift(S)||_F is taken
    in ``scratch``, a C-contiguous M x M complex array over ``basis``
    whose contents do not matter. It is neither lift: numpy's complex
    product can round differently in place. Holds the check's one pass
    rule, for ``check_global_phase`` and ``run_sweep`` alike.
    """
    np.multiply(np.exp(1j * basis.photons * phase), plain, out=scratch)
    np.subtract(shifted, scratch, out=scratch)
    residual = _slot_norm(scratch.ravel().view(float))
    return GlobalPhaseReport(
        modes=basis.modes,
        photons=basis.photons,
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
    anything is lifted. The residual and the pass rule are
    ``_phase_report``'s, which every ``run_sweep`` trial calls too.
    """
    matrix = _as_square(scattering)
    _check_tol(tol)
    photons = _photon_number(photons)
    _check_phase(phase)
    rephased = _as_square(np.exp(1j * phase) * matrix)
    table = ladder_table(matrix.shape[0], photons)
    work = _work_array(3, table)
    lifts = _expansion_lifts([matrix, rephased], photons, work[1:])
    return _phase_report(table.basis, phase, *lifts, work[0], tol)


def check_derivative_oracle(h_single, photons: int, step: float) -> float:
    """Residual between a finite-difference lift derivative and the direct lift.

    The lifted Hamiltonian is, up to a factor i, the derivative at zero of
    lifting exp(i H t). A central difference with step ``step`` therefore
    approximates i times the direct construction with O(step^2) error; the
    returned Frobenius residual shrinks fourfold when the step halves.
    H must be Hermitian within 1e-9, as ``lift_hamiltonian`` requires by
    default, and is refused before anything is lifted. Then the lifted H
    and the lifts at +step and -step are the three slots of one (3, M, M)
    array (see ``_work_array``), the pair lifted in one stacked walk, and
    the residual is taken in those slots, with no M x M array beside them.
    """
    matrix, table = _checked_hamiltonian(h_single, photons, 1e-9)
    if not 0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    work = _work_array(3, table)
    direct = _fill_hamiltonian(matrix, table, work[0]).matrix
    pair = [_exp_i_hermitian(step * matrix), _exp_i_hermitian(-step * matrix)]
    forward, backward = _expansion_lifts(pair, table.basis.photons, work[1:])
    # In place: the difference quotient in forward, i times H in backward.
    np.subtract(forward, backward, out=forward)
    forward /= 2 * step
    np.multiply(1j, direct, out=backward)
    forward -= backward
    return frobenius_norm(forward)


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
    must be whole numbers >= 1, and ``photons`` and ``seed`` whole numbers
    >= 0: 2.0 counts as 2, while booleans, fractions, strings and None
    raise ValueError, so an empty sweep never passes and no sweep draws
    from an unseeded generator. A NaN or negative tolerance raises
    ValueError too, as the public checks raise it.

    Each trial draws its 8 m^2 + 1 doubles u with one ``rng.random`` call,
    in this order: the real then the imaginary parts of the m x m entries
    of the diagram check's H (2 m^2), then of the Hermitian generators of
    the homomorphism's ``first`` (a) and ``second`` (b), then the phase,
    then the generator of the phase check's S. They stand for the doubles
    ``Generator.uniform`` makes of them, -1 + 2u for the entries and
    -pi + 2 pi u for the phase, which ``random_hermitian`` and
    ``rng.uniform`` would draw in that order. One ``np.concatenate`` cuts
    the phase out of u - 1/2, and the rest, viewed as (4, 2, m, m), holds
    the real and imaginary parts w and w' of the four raw matrices. Then
    ``np.add`` writes w + w^T and ``np.subtract`` w' - w'^T into the two
    parts of their Hermitian parts (raw + raw^dag) / 2, in steps that are
    exact, so they equal the public checks' inputs bit for bit.
    They are exactly Hermitian and finite, so they go to ``eigh`` as they
    are, with no Hermitian-part step and no tolerance check: the tolerances
    were checked before the first draw. One stacked ``eigh`` gives lambda
    and V of H and, through one ``matmul``, all four m x m exponentials,
    written straight into the stack [V, e^{iH}, a, b, S, b a,
    e^{i phase} S] that one stacked expansion lift walks. The lift of H is
    what ``lift_hamiltonian`` gives.

    The lifted H and the seven lifts are the first eight slots of one
    (9, M, M) array (see ``_work_array``), and slot 8 is the one scratch
    slot every residual passes through. The reports come from the three
    report functions the public checks call, ``_diagram_report``,
    ``_homomorphism_report`` and ``_phase_report``, so the sweep has no
    residual code of its own, and they equal, by ``repr``, what calling
    those checks one after another on the same draws gives. The array is
    allocated once the arguments are checked and rewritten by every trial,
    so no trial allocates an M x M array.
    """
    trials = _whole_number(trials, 1, "trial counts must be whole numbers")
    modes = _mode_number(modes)
    photons = _photon_number(photons)
    seed = _whole_number(seed, 0, "seed must be a whole number")
    for bound in (tol, homomorphism_tol, phase_tol):
        _check_tol(bound)
    table = ladder_table(modes, photons)
    basis = table.basis
    work = _work_array(9, table)
    # Slot 0 holds the lifted H, and slots 1-7 the lifts of the stack: W
    # and G side by side in 1 and 2, then lift(a), lift(b), lift(S),
    # lift(b a) and lift(e^{i phase} S). Slot 8 is the scratch slot.
    lifted_vectors, group, lifted_a, lifted_b, plain, combined, shifted, scratch = work[1:]
    drawn = np.empty((4, modes, modes), dtype=complex)
    stack = np.empty((7, modes, modes), dtype=complex)
    rng = np.random.default_rng(seed)
    results: list[tuple[str, int, object]] = []
    phase_at = 6 * modes**2
    for trial in range(trials):
        draws = rng.random(8 * modes**2 + 1)
        # rng.uniform(low, high) is low + (high - low) * u: the same double.
        phase = -math.pi + 2 * math.pi * float(draws[phase_at])
        # (raw + raw^dag) / 2 for raw = (-1 + 2u) + i (-1 + 2u'), in exact
        # steps: with w = u - 1/2 it is w + conj(w)^T, entry by entry
        # (w_ij + w_ji) + i (w'_ij - w'_ji).
        draws -= 0.5
        parts = np.concatenate((draws[:phase_at], draws[phase_at + 1 :]))
        real, imaginary = parts.reshape(4, 2, modes, modes).swapaxes(0, 1)
        np.add(real, real.swapaxes(1, 2), out=drawn.real)
        np.subtract(imaginary, imaginary.swapaxes(1, 2), out=drawn.imag)
        values, vectors = np.linalg.eigh(drawn)
        stack[0] = vectors[0]
        _exp_i_eigh(values, vectors, out=stack[1:5])
        np.matmul(stack[3], stack[2], out=stack[5])
        np.multiply(np.exp(1j * phase), stack[4], out=stack[6])
        lifted_h = _fill_hamiltonian(drawn[0], table, work[0])
        _expansion_lifts(stack, photons, work[1:8])
        diagram = _diagram_report(lifted_h, values[0], group, lifted_vectors, scratch, tol)
        homomorphism = _homomorphism_report(
            basis, combined, lifted_b, lifted_a, scratch, homomorphism_tol
        )
        global_phase = _phase_report(basis, phase, plain, shifted, scratch, phase_tol)
        results += [
            ("diagram", trial, diagram),
            ("homomorphism", trial, homomorphism),
            ("global_phase", trial, global_phase),
        ]
    return results
