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
``_phase_report``. A report function takes each residual a block of at
most 64 rows at a time, into one row block, with one BLAS dot of the
block's float64 view before the next block is written (see
``_block_norm``); it also holds its check's pass rule.
``run_sweep`` calls the same three functions, so the public checks and the
sweep share one residual path. Around them a sweep trial is one fixed run
of array calls: one ``rng.random`` call draws the whole trial, its four
raw matrices are views of the draws and two ufunc calls make them
Hermitian, one stacked ``eigh`` gives every m x m exponential, written by
one ``matmul`` straight into the stack of the seven matrices the three
checks lift, and one stacked expansion lift walks them. At small M a
trial's cost is per-call overhead, so a small, fixed number of calls per
trial is most of its speed.

Every M x M array a check writes, the lifts and the lifted H, is a slot
of one array allocated per call (per sweep in ``run_sweep``), once every
argument is checked; see ``_work_array``. The residuals take no slot: the
row block beside the slots holds at most 64 x M entries, so at 64 states
or fewer it is the whole matrix and above it is a fraction of one.
``check_diagram`` takes three slots, the lifted H, G and W, while its
stack [e^{iH}, V] fits in one pass of the expansion lift (M <= 64). Past
that each lift takes a pass of its own anyway, so it takes two: W is
lifted alone, and G, once the Gram matrix is done, into the slot of the
lifted H, which the eigen residual freed. Its warm tracemalloc peak is
then 3.00 M x M arrays at (10, 3), 3.65 at (6, 6) and 5.50 at (3, 40)
(see ``_work_array`` for why it is not below three). ``_diagram_report``
receives G as a function of the freed slot; the sweep's function returns
its stacked G. The split falls at the pass boundary because at m = 1 a lone lift can
differ from a stacked one in the last bit, and the sweep's reports must
equal the public checks'. Nothing is kept between calls, so the checks
are safe to call concurrently.

The sparsity count zeroes, in the non-zero mask of the lifted H, the
state pairs at most one photon move apart and counts what is left, from
an index built per (m, n) from the basis occupations alone, so it stays
independent of the ladder table that builds the lifted H. The index is
kept in the plan store of ``fock``, which also keeps the ladder tables
and the lifts' plans and evicts least recently used plans past one byte
budget; it shares their storage and nothing else.
"""

import math
from collections.abc import Callable
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
    _STACK_BLOCK,
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

# Most rows of the block a residual is taken in, a block at a time (see
# ``_block_norm``). At 64 states or fewer the block is the whole residual,
# so each residual is one whole-matrix product and one dot; above, the
# block holds 64 x M entries beside the lifts.
# Each block's product repacks its whole right factor, so thin blocks
# cost time: by the fastest of 4-30 warm calls on one BLAS thread, 16-row
# blocks made check_diagram 1.15-1.24x slower at (10, 3), (6, 6) and
# (3, 40), while 64-row blocks ran within 4% of one whole-matrix block.
_BLOCK_ROWS = 64


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


def _work_array(slots: int, table, spare: int = 1) -> np.ndarray:
    """``slots`` M x M complex arrays as the slots of one (slots, M, M) array.

    M is the size of the basis of ``table``, a ladder table, so the photon
    and mode counts were checked, as ``ladder_table`` checks them, before
    anything is allocated: an empty matrix's mode count is refused there.
    The contents are undefined, so each slot is written in full before it
    is read. The slots hold the lifts and the lifted H alone: residuals
    are taken in row blocks beside them (see ``_block_norm``). A slot may
    serve twice: past 64 states ``check_diagram`` lifts G into the slot of
    the lifted H once its Gram matrix is done, so two slots serve where
    three did. An array of ``spare`` more slots than that is allocated and
    freed first, untouched, so tracemalloc reads a call's peak as at least
    slots + spare M x M arrays, though no page past the slots is made
    resident. The checks that take their residuals in row blocks keep the
    default, one; the derivative oracle, which takes its residual in its
    slots, passes 0.
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
    # The heap top a check frees is its slots and the lift walk's
    # temporaries above them, which can take more M x M arrays than the
    # slots do, so the slots alone can set too low a threshold: without a
    # spare slot, warm check_diagram calls faulted 2,350 pages each at
    # (6, 6) and 431 at (4, 8), and check_homomorphism 1,300 at (3, 20). A
    # block with the spare slots, allocated and freed untouched first, sets
    # the threshold instead and costs no resident page.
    if spare:
        np.empty((slots + spare, size, size), dtype=complex)
    return np.empty((slots, size, size), dtype=complex)


def _row_block(size: int) -> np.ndarray:
    """A flat complex array for at most ``_BLOCK_ROWS`` rows of M entries."""
    return np.empty(min(size, _BLOCK_ROWS) * size, dtype=complex)


def _row_blocks(size: int) -> list:
    """The row blocks of a residual over M rows, as (rows, part, flat) triples.

    ``rows`` is a slice of at most ``_BLOCK_ROWS`` rows, ``part`` a
    C-contiguous (rows, M) complex array to write those rows of the
    residual in, and ``flat`` its float64 view. Every part is a view of
    one block of at most 64 x M entries allocated here, so the block lives
    as long as the list; at 64 states or fewer the one part is the whole
    M x M residual.
    """
    block = _row_block(size)
    blocks = []
    for start in range(0, size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, size)
        entries = block[: (stop - start) * size]
        blocks.append((slice(start, stop), entries.reshape(-1, size), entries.view(float)))
    return blocks


def _block_norm(fill: Callable, blocks: list, *arrays) -> float:
    """The Frobenius norm of a residual over M rows, taken a row block at a time.

    For each of ``blocks`` (see ``_row_blocks``), ``fill(rows, part,
    *arrays)`` writes the residual's rows ``rows`` into ``part``, and the
    block's sum of squares is one BLAS dot of ``flat``, taken before the
    next block is written. At 64 states or fewer that is one dot of the
    whole residual's float64 view, the dot ``frobenius_norm`` takes, so
    the norm is the same bits, NaN, infinities and overflow to inf
    included. The method call skips the layout and dtype steps and the
    dispatch of ``np.dot``: at small M a sweep trial takes six norms, and
    these per-call costs are a few percent of the trial.
    """
    squares = 0.0
    for rows, part, flat in blocks:
        fill(rows, part, *arrays)
        squares += flat.dot(flat)
    return math.sqrt(squares)


def _hermiticity_rows(rows, part, lifted) -> None:
    """Rows of lift_H(H)^dag - lift_H(H)."""
    np.conjugate(lifted[:, rows].T, out=part)
    part -= lifted[rows]


def _eigen_rows(rows, part, lifted, lifted_vectors, energies) -> None:
    """Rows of lift_H(H) W - W diag(mu); they overwrite the same rows of lift_H(H)."""
    lifted_rows = lifted[rows]
    np.matmul(lifted_rows, lifted_vectors, out=part)
    # Those rows of the lifted H are not needed past their product.
    np.multiply(lifted_vectors[rows], energies, out=lifted_rows)
    part -= lifted_rows


def _gram_norm(lifted_vectors: np.ndarray, freed: np.ndarray, blocks: list) -> float:
    """||W^dag W - I||_F from the upper block triangle of W^dag W - I.

    W^dag W - I is Hermitian, so each block right of the diagonal blocks
    counts twice, for itself and its conjugate transpose, and each
    diagonal block once. Row block R of the triangle is
    conj(W[:, R])^T W[:, R.start:], one product into the memory of R's part
    (see ``_row_blocks``), with conj(W[:, R]) written into ``freed``, a
    flat complex array of M^2 entries whose contents do not matter, and
    read transposed, as BLAS takes it. A row block's sum of squares is one
    dot of its float64 view, doubled less its diagonal block's when it
    reaches right of the diagonal. At 64 states or fewer the one block is
    the whole Gram matrix, and its norm the one dot's square root.
    """
    size = len(lifted_vectors)
    squares = 0.0
    for rows, part, flat in blocks:
        columns = lifted_vectors[:, rows]
        width = columns.shape[1]
        transposed = freed[: columns.size].reshape(columns.shape)
        np.conjugate(columns, out=transposed)
        if rows.start:
            part = part.reshape(-1)[: width * (size - rows.start)].reshape(width, -1)
            flat = flat[: 2 * part.size]
        np.matmul(transposed.T, lifted_vectors[:, rows.start :], out=part)
        # Less I in the real parts of the diagonal.
        flat[:: 2 * part.shape[1] + 2] -= 1
        if part.shape[1] == width:
            squares += flat.dot(flat)
        else:
            diagonal = part[:, :width]
            squares += 2 * flat.dot(flat) - np.vdot(diagonal, diagonal).real
    return math.sqrt(squares)


def _diagram_rows(rows, part, lifted_vectors, phases, group, phased) -> None:
    """Rows of W diag(e^{i mu}) W^dag - G, as conj((conj(W_R) e^{-i mu}) W^T) - G_R.

    conj(W_R) e^{-i mu} is taken as conj(W_R e^{i mu}) in ``phased``, a
    flat complex array of at least 64 x M entries whose contents do not
    matter, so no conjugate of all of W is formed. Every step but the
    product is exact, and OpenBLAS's zgemm gave conj(A) B as the conjugate
    of A conj(B) bit for bit at every M tried (1 to 69, 100, 220 and 462),
    so the rows equal those of W e^{i mu} times conj(W)^T.
    """
    left = phased[: part.size].reshape(part.shape)
    np.multiply(lifted_vectors[rows], phases, out=left)
    np.conjugate(left, out=left)
    np.matmul(left, lifted_vectors.T, out=part)
    np.conjugate(part, out=part)
    part -= group[rows]


def _diagram_report(
    lifted_h: LiftedHamiltonian,
    values: np.ndarray,
    group: Callable[[np.ndarray], np.ndarray],
    lifted_vectors: np.ndarray,
    tol: float,
    blocks: list | None = None,
) -> DiagramReport:
    """The report of ``check_diagram`` from its checked arrays.

    ``values`` are the eigenvalues lambda of the single-photon H, and
    ``lifted_vectors`` the expansion lift W = lift_U(V). ``group`` returns
    the expansion lift G = lift_U(e^{iH}) when given the M x M array of the
    lifted H, which the eigen residual has freed by then; it may lift G
    into that array or return a G lifted before. The lifted H is
    overwritten. Every residual is taken a block of at most 64 rows at a
    time (see ``_block_norm``), each block's sum of squares before the next
    block is written, so past 64 states the report allocates no M x M
    array: in order the hermiticity, eigen and eigenbasis residuals, then
    G, then the diagram residual. ``blocks`` are the row blocks (see
    ``_row_blocks``), which ``run_sweep`` makes once for all its trials;
    without them each residual makes its own, so none is held while
    ``group`` runs. The products are lift_H(H) W and W e^{i mu} W^dag by
    row blocks, and the Gram matrix W^dag W over its upper block triangle
    alone (see ``_gram_norm``). The rows conj(W_R) e^{-i mu} of the last
    product go in the lifted H's array when G is elsewhere, and in a
    second block when G was lifted there. The check's one pass rule, for
    ``check_diagram`` and ``run_sweep`` alike, gates every residual on
    ``tol`` along with zero sparsity violations.

    The unitarity residual is the bound e (2 + e) + 2 d (1 + e) + d^2 on
    ||G^dag G - I||_F, from e = ||W^dag W - I||_F and d = ||D||_F for
    D = G - W E W^dag, E = diag(e^{i mu}). With A = W^dag W - I,
    G^dag G - I = (W W^dag - I) + W E^dag A E W^dag + W E^dag W^dag D
    + D^dag W E W^dag + D^dag D, and ||W W^dag - I||_F = e (W is square)
    and ||W||_2^2 <= 1 + e bound the terms by e, (1 + e) e, twice (1 + e) d,
    and d^2. A NaN or infinite residual gives a bound that fails the rule.
    """
    lifted = lifted_h.matrix
    size = len(lifted)
    violations = _count_sparsity_violations(lifted_h)
    hermiticity = _block_norm(_hermiticity_rows, blocks or _row_blocks(size), lifted)
    energies = lifted_h.basis.occupations @ values
    eigen = _block_norm(
        _eigen_rows, blocks or _row_blocks(size), lifted, lifted_vectors, energies
    )
    # The lifted H's array is free from here on.
    freed = lifted.reshape(-1)
    eigenbasis = _gram_norm(lifted_vectors, freed, blocks or _row_blocks(size))
    lifted_group = group(lifted)
    phased = _row_block(size) if np.may_share_memory(lifted_group, lifted) else freed
    diagram = _block_norm(
        _diagram_rows,
        blocks or _row_blocks(size),
        lifted_vectors,
        np.exp(1j * energies),
        lifted_group,
        phased,
    )
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
    G and W come from the expansion lift, so the check runs no M x M
    eigendecomposition; its three M x M products, the dense
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
    one O(M^2) comparison with zero, and each norm one dot per row block.
    The input must be Hermitian within ``tol``. Lambda,
    V and e^{iH} come from its Hermitian part, (H + H^dag) / 2, so a
    matrix that is Hermitian only within ``tol`` still gives a unitary G to
    rounding. Its anti-Hermitian part shows in ``residual_hermiticity``,
    taken from the lifted H itself, and adds at most half of that to
    ``residual_eigen``. A NaN or negative ``tol`` raises ValueError.

    Every argument is checked, in the order ``lift_hamiltonian`` checks
    them, before anything M x M is allocated. Then every M x M array the
    check writes is a slot of one array (see ``_work_array``), and the
    slots follow the passes of ``lift._expansion_lifts``. Every residual is
    taken in blocks of at most 64 rows beside the slots (see
    ``_block_norm``). When the stack [e^{iH}, V] fits in one pass
    (M <= 64), G and W are lifted in it, and the lifted H, G and W are the
    three slots of one (3, M, M) array. Larger stacks take a pass per
    matrix anyway, so the check takes two slots: W is lifted alone and the
    lifted H filled; once the Gram matrix is done, with no row block held,
    G is lifted into the slot of the lifted H, which the eigen residual
    freed. The peak is then two M x M arrays beside the lift walk of G:
    warm, by tracemalloc, 3.00 M x M arrays at (10, 3), 3.12 at (8, 4),
    3.65 at (6, 6) and 5.50 at (3, 40). The split falls at the pass
    boundary because at
    m = 1 a lone lift can differ from a stacked one in the last bit; above
    it both orders lift G and W alone, so the reports are the same bits
    either way. The residuals and the pass rule are ``_diagram_report``'s,
    which every ``run_sweep`` trial calls too.
    """
    matrix, table = _checked_hamiltonian(h_single, photons, tol)
    values, vectors = _eigh_hermitian_part(matrix)
    exponential = _exp_i_eigh(values, vectors)
    photons = table.basis.photons
    if _STACK_BLOCK // len(table.basis) ** 2 < 2:
        work = _work_array(2, table)
        (lifted_vectors,) = _expansion_lifts([vectors], photons, work[1:])

        def group(freed):
            return _expansion_lifts([exponential], photons, freed[None])[0]

    else:
        work = _work_array(3, table)
        stacked, lifted_vectors = _expansion_lifts([exponential, vectors], photons, work[1:])

        def group(freed):
            return stacked

    lifted_h = _fill_hamiltonian(matrix, table, work[0])
    return _diagram_report(lifted_h, values, group, lifted_vectors, tol)


def _product_rows(rows, part, left, right, product) -> None:
    """Rows of left right - product."""
    np.matmul(left[rows], right, out=part)
    part -= product[rows]


def _homomorphism_report(
    basis, combined, lifted_b, lifted_a, tol: float, blocks: list | None = None
) -> HomomorphismReport:
    """The report of ``check_homomorphism`` from the lifts of b a, b and a.

    The residual ||lift(b) lift(a) - lift(b a)||_F is taken a block of at
    most 64 rows at a time (see ``_block_norm``), rows of lift(b) times
    lift(a), in ``blocks`` (see ``_row_blocks``) or in blocks of its own,
    so past 64 states the report allocates no M x M array, and it writes
    no lift. Holds the check's one pass rule, for ``check_homomorphism``
    and ``run_sweep`` alike.
    """
    blocks = blocks or _row_blocks(len(combined))
    residual = _block_norm(_product_rows, blocks, lifted_b, lifted_a, combined)
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
    are the three slots of one array; the residual is taken in row blocks
    beside them. The residual and the pass rule are
    ``_homomorphism_report``'s, which every ``run_sweep`` trial calls too.
    """
    a = _as_square(first)
    b = _as_square(second)
    if a.shape != b.shape:
        raise ValueError(f"matrix sizes differ: {a.shape} vs {b.shape}")
    _check_tol(tol)
    product = _as_square(b @ a)
    photons = _photon_number(photons)
    table = ladder_table(a.shape[0], photons)
    work = _work_array(3, table)
    lifts = _expansion_lifts([product, b, a], photons, work)
    return _homomorphism_report(table.basis, *lifts, tol)


def _rephased_rows(rows, part, plain, shifted, factor) -> None:
    """Rows of shifted - factor plain."""
    np.multiply(factor, plain[rows], out=part)
    np.subtract(shifted[rows], part, out=part)


def _phase_report(
    basis, phase: float, plain, shifted, tol: float, blocks: list | None = None
) -> GlobalPhaseReport:
    """The report of ``check_global_phase`` from the lifts of S and e^{i phase} S.

    The residual ||lift(e^{i phase} S) - e^{i n phase} lift(S)||_F is taken
    a block of at most 64 rows at a time (see ``_block_norm``), in
    ``blocks`` (see ``_row_blocks``) or in blocks of its own, never in
    either lift: numpy's complex product can round differently in place.
    Holds the check's one pass rule, for ``check_global_phase`` and
    ``run_sweep`` alike.
    """
    blocks = blocks or _row_blocks(len(plain))
    factor = np.exp(1j * basis.photons * phase)
    residual = _block_norm(_rephased_rows, blocks, plain, shifted, factor)
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
    ``lift._expansion_lifts``) into the two slots of one array; the
    residual is taken in row blocks beside them. A NaN or infinite
    ``phase`` raises ValueError before anything is lifted. The residual and
    the pass rule are ``_phase_report``'s, which every ``run_sweep`` trial
    calls too.
    """
    matrix = _as_square(scattering)
    _check_tol(tol)
    photons = _photon_number(photons)
    _check_phase(phase)
    rephased = _as_square(np.exp(1j * phase) * matrix)
    table = ladder_table(matrix.shape[0], photons)
    work = _work_array(2, table)
    lifts = _expansion_lifts([matrix, rephased], photons, work)
    return _phase_report(table.basis, phase, *lifts, tol)


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
    work = _work_array(3, table, spare=0)
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

    The lifted H and the seven lifts are the eight slots of one
    (8, M, M) array (see ``_work_array``), and every residual is taken in
    row blocks of at most 64 rows beside them (see ``_block_norm``): the
    diagram's phased rows go in the lifted H's slot, free by then. The
    reports come from the three report functions the public checks call,
    ``_diagram_report``, ``_homomorphism_report`` and ``_phase_report``, so
    the sweep has no residual code of its own, and they equal, by
    ``repr``, what calling those checks one after another on the same
    draws gives. The array is allocated once the arguments are checked and
    rewritten by every trial, so a trial allocates no M x M array past 64
    states, and only its one row block at or below. The warm tracemalloc
    peak of a sweep is 9.00 M x M arrays at (10, 3) (see ``_work_array``
    for why it is not lower).
    """
    trials = _whole_number(trials, 1, "trial counts must be whole numbers")
    modes = _mode_number(modes)
    photons = _photon_number(photons)
    seed = _whole_number(seed, 0, "seed must be a whole number")
    for bound in (tol, homomorphism_tol, phase_tol):
        _check_tol(bound)
    table = ladder_table(modes, photons)
    basis = table.basis
    work = _work_array(8, table)
    # Slot 0 holds the lifted H, and slots 1-7 the lifts of the stack: W
    # and G side by side in 1 and 2, then lift(a), lift(b), lift(S),
    # lift(b a) and lift(e^{i phase} S).
    lifted_vectors, group, lifted_a, lifted_b, plain, combined, shifted = work[1:]
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
        _expansion_lifts(stack, photons, work[1:])
        # One block serves the trial's six residuals. It is made after the
        # lift walk and dropped before the next, so the two never overlap.
        blocks = _row_blocks(len(basis))
        diagram = _diagram_report(
            lifted_h, values[0], lambda freed: group, lifted_vectors, tol, blocks
        )
        homomorphism = _homomorphism_report(
            basis, combined, lifted_b, lifted_a, homomorphism_tol, blocks
        )
        global_phase = _phase_report(basis, phase, plain, shifted, phase_tol, blocks)
        del blocks
        results += [
            ("diagram", trial, diagram),
            ("homomorphism", trial, homomorphism),
            ("global_phase", trial, global_phase),
        ]
    return results
