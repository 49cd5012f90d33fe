"""Lift single-photon network matrices to their n-photon counterparts.

The m x m scattering matrix S of a photon-conserving linear network fixes
the evolution of any number of photons. ``lift_unitary_expansion`` and
``lift_unitary_permanent`` are two independent constructions of the lifted
M x M unitary (M = C(m+n-1, n)). The first is a photon-by-photon recursion
over stored ladder tables, which give the moves, in O(n * m * M^2): one
loop up the levels from the vacuum, where every level reads which photon
each of its columns removes, gathers its S-weights and the columns below,
and takes one step. The removal rule is this module's alone, kept in slot
0 of each level's stored plan. A small level's step is eight array
operations, one gather and one reduce over the plan's slot rows, and a
large one's a scatter per mode. Every full lift goes through
``_expansion_lifts``, which lifts a stack of same-size matrices in one
walk, with their columns side by side, so small lifts share the per-call
overhead, in passes of whole matrices bounded to about 2^13 complex
entries (from M of about 64 on, one matrix per pass). One input's column
takes the same loop, its rule read off its occupation with no ranking.
The second is the closed form
U[p, q] = per(S[p|q]) / sqrt(prod_j p_j! prod_l q_l!), from Glynn's formula
over repeated columns. One vectorised plan holds the K_q = prod_j (f_j + 1)
sign-count vectors of every column q (f = q minus its first photon), and the
products are evaluated in passes over runs of whole columns, each bounded to
about 2^16 complex entries. A call's power table, products and gathered
powers are the slots of one work block, which every pass rewrites in
place, so a warm call reuses the heap pages of the one before (0 minor
faults per warm call at (3, 7), against 175 with fresh arrays per pass).
The plan depends on (m, n) alone: it is built once per size, with its own
basis, pass schedule and factorials. It is kept in the plan store of
``fock`` beside the ladder tables, which shares storage and nothing else,
so the route still shares no table with the expansion lift. A call costs
O(m * M * sum_q K_q) time and the O(M^2) lift plus one work block of
memory; the store keeps O(m * sum_q K_q) per size, within its byte budget.
``lift_hamiltonian`` is the matching map on effective Hamiltonians, where
exp(i H) gives the evolution. Entry (p, q) of a lifted matrix is the
amplitude from basis state q to basis state p, so columns are images of
input states. Everything here is a pure function over immutable inputs
(stored plans and tables are read-only) and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    LadderTable,
    MoveKind,
    OccupationState,
    _ladder_table,
    _mode_number,
    _photon_counts,
    _photon_number,
    _stored_plan,
    enumerate_basis,
    ladder_table,
    photon_move_relation,
)
from .matfuncs import (
    PERMANENT_SIZE_LIMIT,
    NotHermitianError,
    _as_square,
    _check_tol,
    frobenius_norm,
)

__all__ = [
    "LiftedUnitary",
    "LiftedHamiltonian",
    "lift_unitary_expansion",
    "lift_unitary_permanent",
    "lift_hamiltonian",
    "hamiltonian_element",
    "global_phase_lift",
    "transition_distribution",
    "balanced_beam_splitter",
]

# Complex entries held per pass of the permanent lift, in its M x T
# products and its (n + 1) x m x T power table; a pass that must hold one
# whole column may exceed it. A call's work block holds the widest pass's
# power table, products and an M x T gather of powers.
_GLYNN_BLOCK = 2**16

# Complex entries in the last-level block of one stacked expansion-lift
# pass. Below this, lifting several matrices in one walk of the levels
# saves per-call overhead; above it, each pass holds one matrix. The bound
# holds memory, not time: one pass over a whole stack of 2 to 7 matrices
# took 0.8 to 1.1 times as long from (4, 4) to (12, 4), but its walk
# temporaries raise the warm run_sweep peak from 9.86 to 14.63 lifts'
# worth at (10, 3) and from 11.22 to 20.24 at (5, 4).
_STACK_BLOCK = 2**13

# Complex entries in the gathered terms of one merged expansion-lift level,
# min(m, level) per block entry. Below it the merged step is 1.2 to 2.7
# times faster than the per-mode scatter; above it its temporaries cost
# more than its calls save (about half the scatter's speed at (5, 4),
# (7, 3) and (3, 12)), so larger levels scatter.
_GATHER_BLOCK = 2**14


@dataclass(frozen=True)
class LiftedUnitary:
    """n-photon unitary together with the basis that indexes it."""

    basis: FockBasis
    matrix: np.ndarray


@dataclass(frozen=True)
class LiftedHamiltonian:
    """n-photon effective Hamiltonian together with its basis.

    Off-diagonal entries are non-zero only between states one photon move
    apart; everything farther is exactly zero.
    """

    basis: FockBasis
    matrix: np.ndarray


def _fill_lift_columns(
    stack: np.ndarray, photons: int, state: OccupationState | None, out: np.ndarray
) -> None:
    """Write every column of the lifts of ``stack``, or ``state``'s, into ``out``.

    ``stack`` holds k m x m matrices, shape (k, m, m); ``state`` is None or
    an occupation of ``photons`` photons in m modes. ``out`` is the last
    level's (M, k, W) block, W = M or 1; its contents do not matter, since
    every entry is written (with no photons, the vacuum's 1 x 1 lift), and
    its last axis must be contiguous. With l the
    first occupied mode of input q, |q> = a_l^dag |q - e_l> / sqrt(q_l) and
    U a_l^dag U^dag = sum_j S_jl a_j^dag, so

        U[p, q] = (sum_j sqrt(p_j) S_jl U'[p - e_j, q - e_l]) / sqrt(q_l)

    with U' the (n-1)-photon lift. The walk is one loop up from the vacuum,
    level 1 to n. Each level is one block in which the k matrices' columns
    sit side by side: column i * W + c of the 2-D (M, k * W) block, held as
    (M, k, W), is column c of matrix i, and a whole stack pays the
    per-call overhead of one lift. A level sums through the ladder table:
    for each mode j, row r of U' times sqrt(r_j + 1) S_jl goes to row
    up[j, r]. Level 1, over the vacuum, is S itself, copied.

    Every level 2..n does the same three things. It reads one rule triple
    (first, down, scale): for each of its columns q, the mode l of the
    photon q adds, the column q - e_l of the block below and 1 / sqrt(q_l).
    It takes its S-weights, S_jl for those l, with ``sources.take(first)``
    and the columns below with ``block.take(down)``, as it runs, so the walk
    holds no other level's weights; U' is needed whole. Then it takes its
    merged or scattered step. A full walk's triples are its levels' stored
    plans ``_slot_rows``, all looked up before level 1. One input needs no
    ranking: the levels below it remove its first photons, emptying its
    first occupied mode first, so level k adds the k-th photon counted from
    the last occupied mode, and its triple is ([l], [0], 1 / sqrt(the
    photons in mode l so far)) over the one column below. It looks up only
    its merged levels' plans, for their slot rows.

    The gathered terms of a level, min(m, level) per block entry, grow with
    the level, so the levels whose terms fit in _GATHER_BLOCK entries are
    levels 2 to some top level. Each takes one merged step,
    ``_merged_level``: eight array operations besides views, over its plan
    ``_slot_rows``, which adds its own copies of the table rows it reads to
    the rule. The operations are the two ``take`` of the rule, the level's
    block, one real product of all modes' sqrt(r_j + 1), one complex
    product by the S-weights, one ndarray ``take`` of the plan's slot rows,
    which lays each row's terms into min(m, level) slots in ascending mode
    order, padded with a zero row, one ``np.add.reduce`` over the slots from
    0.0, and the scale. One terms buffer serves every merged level: its
    first k * W entries, for the widest merged level, stay zero, and each
    level lays its products right after them, so its zero row is their last
    k * W entries. A larger level scatters mode by mode,
    ``_scattered_level``, into a zero-filled block, one fancy-indexed add
    per mode, exact since the rows up[j] are distinct; there the merged
    step's temporaries cost more than its calls save. Both add every
    entry's terms to +0.0 in ascending mode order, so they give the same
    block bit for bit, and no entry is ever -0.0, as 0.0 + -0.0 is 0.0;
    level 1 adds 0.0 to its copy of S, or of S's column l, for the same
    reason. The caller has checked the photon and mode counts, so the
    levels read the store directly. Modes are summed in order and the
    division by sqrt(q_l) comes last, which makes each matrix's columns, and
    one input's column, the same whatever else the walk builds. It keeps
    lifts of the identity and of permutations exact only while every
    occupation is at most 14: the division is a product with the stored
    1 / sqrt(q_l), and fl(sqrt(a)) fl(1 / fl(sqrt(a))) first differs from 1
    at a = 15, so from 15 photons in one mode such lifts are off in the
    last bit.

    The real factors are applied on float64 views, two real products per
    entry instead of a complex one: the rows of U' (``take`` gives them
    C-contiguous) are scaled by sqrt(r_j + 1) into the terms, and the
    finished block is multiplied in place by 1 / sqrt(q_l), laid out per
    column as in the plan's scale. numpy divides a complex number by a real
    one as a product with the reciprocal, so both give what the complex
    arithmetic gives, bit for bit: no block entry is ever -0.0, and a
    unitary's lift holds no infinities. Costs O(m * M' * k * W) per level.
    A stack's walk temporaries grow with its width, so ``_expansion_lifts``
    splits stacks into passes bounded by _STACK_BLOCK, which holds the peak
    memory of a warm verify sweep near ten lifts.
    """
    count, modes = stack.shape[:2]
    if not photons:
        out[...] = 1
        return
    sizes = [math.comb(modes + level - 1, level) for level in range(photons + 1)]
    widths = sizes if state is None else [1] * (photons + 1)
    # Levels 2 to ``top`` merge: the gathered terms grow with the level.
    top = 1
    while top < photons and (
        min(modes, top + 1) * sizes[top + 1] * count * widths[top + 1] <= _GATHER_BLOCK
    ):
        top += 1
    # A full walk reads every level's rule from its plan; one input's column
    # reads only its merged levels' slot rows.
    last = photons if state is None else top
    plans = [_slot_rows(modes, level) for level in range(2, last + 1)]
    sources = stack.transpose(1, 0, 2)
    if state is None:
        # Level 1's states are e_0, ..., e_{m-1}, in canonical order.
        lowest = sources
        rules = [plan[:3] for plan in plans]
    else:
        # Level k adds the k-th photon counted from the last occupied mode to
        # the one column below, with 1 / sqrt(the photons in that mode so far);
        # level 1 adds the first to the vacuum.
        rules = [
            ([mode], [0], 1 / math.sqrt(held))
            for mode in reversed(range(modes))
            for held in range(1, state[mode] + 1)
        ]
        lowest = sources.take(rules.pop(0)[0], axis=2)
    # Over the vacuum every term is 1 * S_jl and every scale is 1.
    block = np.add(lowest, 0.0, out=out if photons == 1 else None)
    if top > 1:
        # One terms buffer for every merged level. Its first ``zero`` entries
        # stay zero: each level's zero row is their last k * W, and its
        # products follow them.
        zero = count * widths[top]
        terms = np.empty((1 + modes * sizes[top - 1]) * zero, dtype=complex)
        terms[:zero] = 0
    for level, (first, down, scale) in enumerate(rules, start=2):
        width = widths[level]
        level_weights = sources.take(first, axis=2)
        shed = block.take(down, axis=2)
        # The block below lives on in ``shed`` at most.
        if level < photons:
            block = np.empty((sizes[level], count, width), dtype=complex)
        else:
            block = out
        if level <= top:
            coef, slots = plans[level - 2][3:]
            level_terms = terms[zero - count * width :]
            _merged_level(coef, slots, shed, level_weights, level_terms, scale, block)
            if level == top:
                # The levels above scatter, with buffers of their own.
                del terms, level_terms
        else:
            table = _ladder_table(modes, level)
            _scattered_level(table.up, table.up_coef, shed, level_weights, scale, block)
        del shed, level_weights


def _merged_level(coef, slots, shed, weights, terms, scale, block) -> None:
    """One merged level of ``_fill_lift_columns``, written into ``block``.

    ``coef`` and ``slots`` come from the level's ``_slot_rows`` plan,
    ``shed`` is the (M', k, W) block of the level below, gathered to this
    level's columns, ``weights`` the level's (m, k, W) S-weights, ``terms``
    a flat buffer whose first k W entries are zero and whose next m M' k W
    entries take the products, and ``scale`` the 1 / sqrt(q_l) that the
    float64 view of ``block`` is multiplied by.
    """
    count, width = block.shape[1:]
    rows = len(coef) * len(shed) + 1
    level_terms = terms[: rows * count * width].reshape(rows, count, width)
    products = level_terms[1:].reshape(len(coef), len(shed), count, width)
    np.multiply(coef, shed.view(float), out=products.view(float))
    np.multiply(products, weights[:, None], out=products)
    np.add.reduce(level_terms.take(slots, axis=0), axis=0, out=block, initial=0.0)
    real_block = block.view(float)
    np.multiply(real_block, scale, out=real_block)


def _scattered_level(up, up_coef, shed, weights, scale, block) -> None:
    """One per-mode scatter level of ``_fill_lift_columns``, written into ``block``.

    ``up`` and ``up_coef`` are the level's ladder-table rows, and ``shed``,
    ``weights`` and ``scale`` are as in ``_merged_level``. Each mode's
    terms are added at its rows ``up[j]``, which are distinct, into a
    zero-filled ``block``.
    """
    block.fill(0)
    real_shed = shed.view(float)
    terms = np.empty_like(shed)
    real_terms = terms.view(float)
    for mode in range(len(weights)):
        np.multiply(up_coef[mode, :, None, None], real_shed, out=real_terms)
        terms *= weights[mode]
        block[up[mode]] += terms
    real_block = block.view(float)
    real_block *= scale


@_stored_plan
def _slot_rows(modes: int, photons: int) -> tuple[np.ndarray, ...]:
    """The plan of one walk level, ``photons`` >= 1, in its own arrays.

    The plan is (first, down, scale, coef, slots). A full walk reads the
    rule (first, down, scale) of every level 2..n from it, merged or
    scattered; one input's column reads only its merged levels' plans. With
    M states at this level and M' below it, a merged level's terms buffer
    holds a zero first row and then, in row 1 + j * M' + r, mode j's term
    for the n - 1 photon state r. ``slots`` (min(m, n), M) lists for column
    p, in ascending order of its occupied modes j, the row of r = p - e_j,
    padded with the zero row; ``coef`` is the table's ``up_coef`` shaped
    (m, M', 1, 1). Slot 0 is the photon the walk removes from p, that of
    its first occupied mode l: ``first[p]`` is l, ``down[p]`` the position
    of p - e_l, and ``scale`` holds 1 / sqrt(p_l) twice, laid out as the
    float64 view of a level's block, where column c is the pair of entries
    2c, 2c + 1. Every array is its own read-only copy, so the plan shares
    no buffer with a stored ladder table. A scattered level never reads
    (coef, slots): their O(min(m, n) M + m M') entries are small beside the
    M x M block that level writes (5 KB against 230 KB at (8, 3)).
    """
    table = _ladder_table(modes, photons)
    lower = table.up.shape[1]
    slots = np.zeros((min(modes, photons), len(table.basis)), dtype=np.intp)
    # held[p, j] counts p's occupied modes up to j, so mode j is slot held - 1.
    held = np.cumsum(table.basis.occupations > 0, axis=1)
    held -= 1
    lowered = np.arange(1, modes * lower + 1).reshape(modes, lower)
    slots[held[table.up, np.arange(modes)[:, None]], table.up] = lowered
    # Slot 0 of column p is mode l's row 1 + l * M' + (p - e_l), l the first
    # occupied mode, and up_coef[l, p - e_l] is sqrt(p_l).
    first, down = np.divmod(slots[0] - 1, lower)
    scale = np.repeat(1 / table.up_coef[first, down], 2)
    coef = table.up_coef[:, :, None, None].copy()
    plan = (first, down, scale, coef, slots)
    for array in plan:
        array.flags.writeable = False
    return plan


def _expansion_lifts(
    matrices, photons: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Full expansion lifts of same-size square complex matrices, in stacked passes.

    ``matrices`` is a list of k matrices that have already been through
    ``_as_square``, or a (k, m, m) complex array, which is read in place.
    The k lifts are written into ``out``, a (k, M, M) complex array with
    C-contiguous slots whose contents do not matter, which is returned. A
    caller that passes ``out`` has had it sized by the ladder table, which
    checks the photon and mode counts; with ``out`` None the table is
    looked up here, which checks them once, before any work, and the lifts
    go into a fresh array. A pass lifts as many whole matrices as fit in
    _STACK_BLOCK entries of its last block (at least one) through one
    ``_fill_lift_columns`` walk, which writes the pass's slots in place,
    viewed as its (M, k', M) block. A lift is the same array whether it
    shares its pass or not, except at m = 1, where the two can differ in
    the last bit.
    """
    if out is None:
        size = len(ladder_table(matrices[0].shape[0], photons).basis)
        out = np.empty((len(matrices), size, size), dtype=complex)
    per_pass = max(1, _STACK_BLOCK // out.shape[1] ** 2)
    for start in range(0, len(out), per_pass):
        stop = start + per_pass
        block = out[start:stop].transpose(1, 0, 2)
        # np.asarray stacks a list as np.stack would, at a tenth of the call
        # cost, and reads a stacked array in place.
        _fill_lift_columns(np.asarray(matrices[start:stop]), photons, None, block)
    return out


def lift_unitary_expansion(scattering, photons: int) -> LiftedUnitary:
    """Lift S through products of transformed creation operators.

    Adds one photon at a time: column q of the n-photon lift is S applied to
    the first photon of q, a_l^dag -> sum_j S_jl a_j^dag, on top of column
    q - e_l of the (n-1)-photon lift (see ``_fill_lift_columns``). The moves
    come from the stored ladder tables of ``fock.ladder_table``, so the full
    lift costs O(n * m * M^2) for M = C(m+n-1, n). It is the one-matrix
    case of ``_expansion_lifts``, which the consistency checks call.
    """
    matrix = _as_square(scattering)
    photons = _photon_number(photons)
    lifted = _expansion_lifts([matrix], photons)[0]
    return LiftedUnitary(_ladder_table(matrix.shape[0], photons).basis, lifted)


@dataclass(frozen=True, eq=False)
class _GlynnPlan:
    """Everything in a permanent lift that depends on (m, n) alone.

    ``counts`` holds the count rows q - 2s of every sign-count vector of every
    column, column by column, as an (m, sum_q K_q) float array ready for
    S @ counts; ``weights`` holds each vector's weight. ``passes`` lists, per
    pass, the slice of columns it fills, the slice of vectors it reads and
    the ``reduceat`` offsets of its columns' vectors within that slice.
    ``factorials`` is prod_j p_j! per state, and ``power_rows[j, p]``,
    p_j * m + j, the row of X[j]^{p_j} in a pass's power table, flattened
    from (n + 1, m, T). ``work`` is the complex entries of a call's work
    block: the power table, the products and the gather of the widest pass.
    All arrays are read-only.
    """

    basis: FockBasis
    counts: np.ndarray
    weights: np.ndarray
    passes: tuple[tuple[slice, slice, np.ndarray], ...]
    factorials: np.ndarray
    power_rows: np.ndarray
    work: int


@_stored_plan
def _glynn_plan(modes: int, photons: int) -> _GlynnPlan:
    """The Glynn plan of the permanent lift of ``photons`` photons in ``modes`` modes.

    For input q with first occupied mode l, the photon of q in mode l keeps
    sign +, and only the number s_j of minus signs among the other f_j
    copies of column j matters, f = q - e_l. So column q sums over the
    K_q = prod_j (f_j + 1) vectors 0 <= s <= f, weighted by
    w_s = prod_j (-1)^{s_j} C(f_j, s_j). The vectors of all columns are
    decoded from one ``arange(sum_q K_q)`` in mixed radix f + 1, last mode
    fastest, and each weight has the 2^{1-n} of Glynn's formula folded in.
    Passes take the most whole columns whose vectors fit in about
    _GLYNN_BLOCK complex products and powers (at least one column). The
    caller has checked both counts, so equal keys are equal sizes; the plan
    takes O(m * sum_q K_q) memory and is kept in the plan store of ``fock``,
    counted against its byte budget like the ladder tables.
    """
    basis = enumerate_basis(modes, photons)
    occupations = basis.occupations
    size = len(basis)
    factorials = np.array(
        [math.prod(map(math.factorial, row)) for row in occupations.tolist()],
        dtype=float,
    )
    free = occupations.copy()
    free[np.arange(size), np.argmax(occupations > 0, axis=1)] -= 1
    radix = free + 1
    lengths = radix.prod(axis=1)
    offsets = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    owner = np.repeat(np.arange(size), lengths)
    rest = np.arange(offsets[-1]) - offsets[owner]
    # signed_binomials[a, b] = (-1)^b C(a, b), by Pascal's rule, for a <= n
    # (not n - 1) so that the vacuum's empty plan builds too.
    signed_binomials = np.zeros((photons + 1, photons + 1))
    signed_binomials[:, 0] = 1
    for top in range(1, photons + 1):
        above = signed_binomials[top - 1]
        signed_binomials[top, 1:] = above[1:] - above[:-1]
    counts = occupations.T.astype(float).take(owner, axis=1)
    weights = np.full(len(owner), 2.0 ** (1 - photons))
    for mode in reversed(range(modes)):
        rest, signs = np.divmod(rest, radix[owner, mode])
        counts[mode] -= 2 * signs
        weights *= signed_binomials[free[owner, mode], signs]
    width = _GLYNN_BLOCK // max(size, (photons + 1) * modes)
    passes = []
    start = 0
    while start < size:
        # The most whole columns whose sign vectors fit in ``width``.
        stop = np.searchsorted(offsets, offsets[start] + width, side="right") - 1
        stop = max(stop, start + 1)
        low, high = offsets[start], offsets[stop]
        starts = offsets[start:stop] - low
        starts.flags.writeable = False
        passes.append((slice(start, stop), slice(low, high), starts))
        start = stop
    passes = tuple(passes)
    power_rows = np.ascontiguousarray(occupations.T * modes + np.arange(modes)[:, None])
    widest = max((vectors.stop - vectors.start for _, vectors, _ in passes), default=0)
    work = ((photons + 1) * modes + 2 * size) * widest
    for array in (counts, weights, factorials, power_rows):
        array.flags.writeable = False
    return _GlynnPlan(basis, counts, weights, passes, factorials, power_rows, work)


def lift_unitary_permanent(scattering, photons: int) -> LiftedUnitary:
    """Lift S through permanents of repeated submatrices, all columns at once.

    Entry (p, q) is per(S[p|q]) / sqrt(prod_k p_k! prod_k q_k!) where
    S[p|q] repeats row j of S p_j times and column l q_l times. Glynn's
    formula with repeated columns gives, with X = S (q - 2s)^T,

        per(S[p|q]) = 2^{1-n} sum_s w_s prod_j X[j, s]^{p_j}

    over the K_q = prod_j (f_j + 1) sign-count vectors s of column q,
    f = q minus its first photon. What depends on (m, n) alone is built
    once per size and kept in the plan store of ``fock`` (see
    ``_glynn_plan``), which evicts least recently used plans past its byte
    budget: the basis, the count rows q - 2s and weights of every vector,
    the pass schedule and the factorial products. It holds
    O(m * sum_q K_q) memory, well under one lift at large M (0.7 MB at
    (8, 5), where a lift is 10 MB). A call forms X for every vector in one
    product S @ counts, then evaluates runs of whole columns in canonical
    order, each pass holding at most about _GLYNN_BLOCK complex products
    and powers (or one column, if that is more): a power table by repeated
    multiplication, a gather by occupation and one ``np.add.reduceat`` per
    pass into the columns of the lift. The work stays O(m * M * sum_q K_q),
    instead of M^2 permanents of 2^n subsets each, and the memory is the
    O(M^2) lift plus one work block. The block holds the power table, the
    products and one mode's gathered powers of the widest pass as its
    slots, allocated once per call; each pass writes them in place, by
    ``take(..., out=)`` in "clip" mode (the "raise" default copies its
    output) and ufuncs with ``out=``, and copies the weights into the
    gather slot rather than broadcast them, since a broadcast ufunc
    allocates iterator buffers. So a warm call reuses the heap pages of the
    one before instead of faulting fresh ones in: with glibc, 0 minor
    faults per warm call at (3, 6), (3, 7), (4, 4), (3, 8) and (8, 3),
    against 0, 175, 0, 399 and 439 when each pass allocated its arrays.
    Glynn's signed sums cancel better than Ryser's subset sums. This
    construction shares no code with the expansion lift: it
    enumerates its own basis and uses no ladder table, and the two serve as
    cross-checks. More than PERMANENT_SIZE_LIMIT photons raise ValueError
    up front, before anything is built or stored.
    """
    matrix = _as_square(scattering)
    photons = _photon_number(photons)
    if photons > PERMANENT_SIZE_LIMIT:
        raise ValueError(
            f"permanent lift limited to {PERMANENT_SIZE_LIMIT} photons, got {photons}"
        )
    plan = _glynn_plan(_mode_number(matrix.shape[0]), photons)
    basis = plan.basis
    if photons == 0:
        return LiftedUnitary(basis, np.ones((1, 1), dtype=complex))
    modes, size = basis.modes, len(basis)
    sums = matrix @ plan.counts
    lifted = np.empty((size, size), dtype=complex)
    # One block per call; each pass's arrays are views of it.
    work = np.empty(plan.work, dtype=complex)
    for columns, vectors, starts in plan.passes:
        width = vectors.stop - vectors.start
        cut = (photons + 1) * modes * width
        # powers[k, j] = X[j]^k for the sign vectors of this pass, so
        # X[j]^{p_j} is row p_j * m + j of the flat table.
        powers = work[:cut].reshape(photons + 1, modes, width)
        products, gathered = work[cut : cut + 2 * size * width].reshape(2, size, width)
        powers[0] = 1
        powers[1] = sums[:, vectors]
        for k in range(2, photons + 1):
            np.multiply(powers[k - 1], powers[1], out=powers[k])
        table = powers.reshape(-1, width)
        table.take(plan.power_rows[0], axis=0, out=products, mode="clip")
        for mode in range(1, modes):
            table.take(plan.power_rows[mode], axis=0, out=gathered, mode="clip")
            np.multiply(products, gathered, out=products)
        np.copyto(gathered, plan.weights[vectors])
        np.multiply(products, gathered, out=products)
        np.add.reduceat(products, starts, axis=1, out=lifted[:, columns])
    # One square root per entry keeps lifts of permutations exact.
    norms = np.outer(plan.factorials, plan.factorials)
    np.sqrt(norms, out=norms)
    lifted /= norms
    return LiftedUnitary(basis, lifted)


def lift_hamiltonian(h_single, photons: int, *, tol: float = 1e-9) -> LiftedHamiltonian:
    """Lift an m-mode effective Hamiltonian to the n-photon space.

    Each entry couples states at most one photon move apart:

    * diagonal: sum_l q_l * H_ll,
    * one photon moved from mode l to mode j: sqrt((q_j + 1) * q_l) * H_jl,
    * anything farther: exactly zero.

    The one-move entries are scattered in one pass over all m(m - 1)
    ordered mode pairs (j, l), j != l: for every n - 1 photon state r,
    entry (up[j, r], up[l, r]) of the ladder table moves a photon of
    r + e_l from l to j. Those positions and weights depend on (m, n)
    alone and are built once per size (see ``_one_move_plan``), so a call
    is one zero fill, the diagonal and one O(m^2 * M') scatter, for M'
    states of n - 1 photons, next to the O(M^2) output.

    The input must be Hermitian within ``tol``: ``NotHermitianError``
    otherwise, whose message names the tolerance. A NaN or negative
    ``tol`` raises ValueError before the input is compared with it.
    """
    matrix, table = _checked_hamiltonian(h_single, photons, tol)
    size = len(table.basis)
    return _fill_hamiltonian(matrix, table, np.empty((size, size), dtype=complex))


def _checked_hamiltonian(
    h_single, photons, tol: float
) -> tuple[np.ndarray, LadderTable]:
    """The checks of ``lift_hamiltonian``, in its order, before anything is lifted.

    Returns the square complex matrix and the ladder table of its mode
    count and the checked photon count.
    """
    matrix = _as_square(h_single)
    _check_tol(tol)
    # ``not ... <= tol`` rather than ``> tol``, so a NaN defect fails.
    if not frobenius_norm(matrix - matrix.conj().T) <= tol:
        raise NotHermitianError(f"matrix is not Hermitian within tolerance {tol}")
    return matrix, ladder_table(matrix.shape[0], _photon_number(photons))


def _fill_hamiltonian(
    matrix: np.ndarray, table: LadderTable, out: np.ndarray
) -> LiftedHamiltonian:
    """The lift of a checked ``matrix`` over ``table``'s basis, written into ``out``.

    ``out`` is a C-contiguous M x M complex array whose contents do not
    matter: it is zero-filled first, then given the diagonal and the
    one-move entries, and becomes the result's matrix.
    """
    basis = table.basis
    occupations = basis.occupations
    out.fill(0)
    # One product, then one sum over the modes in order from 0.0, as
    # hamiltonian_element sums, so the two agree exactly. The terms are
    # C-ordered (m, M), so the sum runs over rows: along a contiguous axis
    # numpy adds four or more complex terms pairwise. The sum goes straight
    # into the diagonal, a strided view of the flat matrix.
    terms = np.empty((basis.modes, len(basis)), dtype=complex)
    np.multiply(occupations.T, matrix.diagonal()[:, None], out=terms)
    flat = out.reshape(-1)
    np.add.reduce(terms, axis=0, initial=0.0, out=flat[:: len(basis) + 1])
    positions, pairs, weights = _one_move_plan(basis.modes, basis.photons)
    flat[positions] = weights * matrix.take(pairs)
    return LiftedHamiltonian(basis, out)


@_stored_plan
def _one_move_plan(
    modes: int, photons: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each one-move entry of a lifted H goes, and its weight, read-only.

    Row k of each array belongs to the k-th ordered mode pair (j, l),
    j != l, and column r to the n - 1 photon state r: the flat position of
    entry (up[j, r], up[l, r]) in the M x M lift, and sqrt(q_l (q_j + 1))
    for q = r + e_l, the input state. ``pairs`` holds the flat position
    j * m + l of H_jl as an (m(m - 1), 1) column, so H.take(pairs) lines
    up with the weights. The plan depends on (m, n) alone and takes
    O(m^2 * M') memory, small beside the M x M lift.
    """
    table = _ladder_table(modes, photons)
    occupations = table.basis.occupations
    targets, sources = np.nonzero(~np.eye(modes, dtype=bool))
    rows, columns = table.up[targets], table.up[sources]
    pairs = (targets * modes + sources)[:, None]
    targets, sources = targets[:, None], sources[:, None]
    weights = np.sqrt(occupations[columns, sources] * occupations[rows, targets])
    plan = (rows * len(table.basis) + columns, pairs, weights)
    for array in plan:
        array.flags.writeable = False
    return plan


def hamiltonian_element(h_single, output_state, input_state) -> complex:
    """Single entry of the lifted Hamiltonian without building the matrix.

    ``output_state`` and ``input_state`` play the roles of bra and ket; the
    single-photon matrix is assumed Hermitian. Counts follow the
    whole-number rule of the lifts: booleans, fractions and negative counts
    raise ValueError, and 2.0 counts as 2.
    """
    matrix = _as_square(h_single)
    p = _photon_counts(output_state)
    q = _photon_counts(input_state)
    if len(q) != matrix.shape[0]:
        raise ValueError(
            f"states of length {len(q)} incompatible with a "
            f"{matrix.shape[0]}-mode matrix"
        )
    relation = photon_move_relation(p, q)
    if relation.kind is MoveKind.IDENTICAL:
        return complex(
            sum(count * matrix[mode, mode] for mode, count in enumerate(q) if count)
        )
    if relation.kind is MoveKind.ONE_MOVE:
        j, l = relation.target, relation.source
        return complex(math.sqrt((q[j] + 1) * q[l]) * matrix[j, l])
    return 0j


def _check_phase(phase: float) -> None:
    """Refuse a NaN or infinite phase, which names no point on the circle."""
    if not np.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")


def global_phase_lift(phase: float, photons: int) -> float:
    """Phase picked up by the lifted unitary when S gains a global phase.

    Multiplying S by e^{i phase} multiplies the n-photon unitary by
    e^{i n phase}; the returned angle is n * phase reduced to (-pi, pi].
    A NaN or infinite ``phase`` raises ValueError. ``photons`` follows the
    whole-number rule of the lifts: booleans, fractions and negative counts
    raise ValueError.
    """
    _check_phase(phase)
    reduced = math.remainder(_photon_number(photons) * phase, math.tau)
    if reduced <= -math.pi:
        reduced += math.tau
    return reduced


def transition_distribution(
    scattering, input_state
) -> dict[OccupationState, float]:
    """Output occupation probabilities for a basis-state input.

    Computes only the column of the lifted unitary for ``input_state``, by
    the same photon-by-photon recursion as ``lift_unitary_expansion``, in
    O(n * m * M) instead of building the M x M matrix, from the occupation
    with no ranking. Returns |amplitude|^2 per output state, keyed in
    canonical basis order by tuples read off the basis occupations. Counts
    must be whole numbers, one per mode of S; booleans, fractions and
    states of another length raise ValueError.
    """
    matrix = _as_square(scattering)
    occupation = _photon_counts(input_state)
    photons = sum(occupation)
    # The length first: the basis of a wrong-length state's photons can be
    # far too large to build.
    if len(occupation) != matrix.shape[0]:
        raise ValueError(
            f"state {occupation} does not belong to the basis with "
            f"modes={matrix.shape[0]}, photons={photons}"
        )
    basis = ladder_table(matrix.shape[0], photons).basis
    amplitudes = np.empty((len(basis), 1, 1), dtype=complex)
    _fill_lift_columns(matrix[None], photons, occupation, amplitudes)
    return {
        state: float(abs(amplitude) ** 2)
        for state, amplitude in zip(basis, amplitudes.ravel())
    }


def balanced_beam_splitter() -> np.ndarray:
    """The 50/50 two-mode coupler (1/sqrt 2) [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
