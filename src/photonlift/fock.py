"""Occupation-number basis for n photons in m modes, with ladder operators.

A basis is one read-only (M, modes) array of per-mode photon counts, one
row per state, built a column at a time by ``np.repeat``. Rows are ordered
reverse-lexicographically, so all photons start bunched in the first mode:
for two photons in two modes the order is (2, 0), (1, 1), (0, 2). The same
states as tuples of ints (``FockBasis.states``, iteration, ``basis[k]``)
are read off the rows on each use and kept nowhere.

The lifts do not apply ladder operators state by state. ``ladder_table``
reads every one-photon move off the basis occupations, with no ranking: in
canonical order, p -> p - e_j maps the states with p_j >= 1, in order, onto
all n - 1 photon states, in order, so the states that raise r -> r + e_j
are just the rows with a photon in mode j. The table is built in O(modes *
M) vectorised work and kept, per (modes, photons), in the plan store: the
lifts of one network size share one table. It keeps the moves (``up``)
and their creation coefficients, and nothing of any one lift's rule. The
lifts raise photons through ``up`` and build no masks and run no searches
per call.

``FockBasis.index_of`` is the only combinatorial ranking left: it finds one
state's position in O(modes) with no hashing. The lifts do not call it:
``lift.transition_distribution`` builds its input's column from the
occupation itself. With ``apply_creation`` and ``apply_annihilation`` it
is the per-state reference the table is tested against. Everything here is
immutable (basis and table arrays are read-only) and safe to share across
threads.

The plan store keeps every per-size plan of the package, from five
builders: the ladder tables here, the walk plans of ``lift`` (one plan per
walk level), its Glynn plans and one-move plans, and the near-pair
indexes of ``verify``. Each builder
is a function of (modes, photons) decorated with ``_stored_plan``, and its
plans are keyed by (builder, modes, photons) in one dict. The store counts
the summed ``nbytes`` of each plan's arrays against one budget,
``_PLAN_BUDGET``, and evicts the least recently used plans while the total
is over it; a plan larger than the whole budget is kept alone. A full lift
of n photons walks the tables of levels 1..n, so the store keeps every
level of a lift at high occupancy (all 300 of m = 2 take 3.3 MB) and still
bounds what a few large sizes hold. A stored basis keeps nothing beyond its
counted occupation array. A build that raises stores nothing, and builds
run outside the store's lock, so two threads may build one plan at once;
the first stored is kept and returned to both.
"""

import dataclasses
import functools
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "OccupationState",
    "FockBasis",
    "LadderResult",
    "MoveKind",
    "MoveRelation",
    "dimension",
    "enumerate_basis",
    "apply_creation",
    "apply_annihilation",
    "photon_move_relation",
    "bunched_first_order",
    "LadderTable",
    "ladder_table",
]

OccupationState = tuple[int, ...]

# Largest basis size that still fits signed 64-bit indexing downstream.
MAX_DIMENSION = 2**63 - 1

# C(k + r, k) >= C(2k, k) for r >= k, and C(2k, k) > MAX_DIMENSION from k = 34
# (C(66, 33) is 7.2e18, C(68, 34) 2.8e19): a basis whose smaller count of
# photons and of modes less one reaches this is past the limit.
_PAST_THE_LIMIT_FROM = 34

# Bytes of plan arrays the plan store keeps per process.
_PLAN_BUDGET = 256 * 2**20

# (builder, modes, photons) -> (plan, bytes), least recently used first.
_plans = OrderedDict()
_plans_lock = threading.Lock()
_plans_held = 0


def _plan_bytes(plan) -> int:
    """Summed ``nbytes`` of the arrays in a plan, its tuples and dataclasses."""
    if isinstance(plan, np.ndarray):
        return plan.nbytes
    if isinstance(plan, tuple):
        return sum(map(_plan_bytes, plan))
    if dataclasses.is_dataclass(plan):
        return sum(
            _plan_bytes(getattr(plan, field.name)) for field in dataclasses.fields(plan)
        )
    return 0


def _stored_plan(builder):
    """Keep the plans ``builder(modes, photons)`` builds in the plan store.

    Callers pass counts already checked as whole numbers, since the key
    treats True as 1 and 2.0 as 2.
    """

    @functools.wraps(builder)
    def stored(modes: int, photons: int):
        global _plans_held
        key = (builder, modes, photons)
        with _plans_lock:
            entry = _plans.get(key)
            if entry is not None:
                _plans.move_to_end(key)
                return entry[0]
        plan = builder(modes, photons)
        size = _plan_bytes(plan)
        with _plans_lock:
            entry = _plans.get(key)
            if entry is not None:
                return entry[0]
            _plans[key] = (plan, size)
            _plans_held += size
            while _plans_held > _PLAN_BUDGET and len(_plans) > 1:
                _plans_held -= _plans.popitem(last=False)[1][1]
        return plan

    return stored


def _clear_plans() -> None:
    """Empty the plan store."""
    global _plans_held
    with _plans_lock:
        _plans.clear()
        _plans_held = 0


def dimension(modes: int, photons: int) -> int:
    """Number of ways to distribute ``photons`` photons over ``modes`` modes.

    Equals C(modes + photons - 1, photons), the size of the occupation
    basis. Both counts go through the whole-number rules of
    ``enumerate_basis``. Raises OverflowError instead of returning a count
    too large to index with 64-bit integers. Its message gives the count as
    a power of ten, since a count of more than 4,300 digits cannot be
    formatted as an int.

    The exact count is formed only when the smaller k of ``photons`` and
    ``modes - 1`` is below 34, a product of at most 33 factors, so every
    count near 2^63 is decided exactly. From 34 on the count is past the
    limit whatever the larger count r, and the call raises at once, with
    no exact count (which took 36 s to form at 10^6 modes and photons).
    Its message takes ln C(k + r, k) = ln Gamma(r + k + 1) - ln Gamma(r + 1)
    - ln Gamma(k + 1), the first difference by Stirling's series as
    (r + 1/2) log1p(k / (r + 1)) + k (ln(r + k + 1) - 1) and the 1/(12 z)
    terms, within 1e-7 for r >= 34, and the last by ``math.lgamma``. Two
    ``math.lgamma`` values near 10^18 differ only in rounding, so their
    difference says nothing of r. When k too is past the float range, the
    OverflowError is the float conversion's, with no size in its message.
    """
    modes = _mode_number(modes)
    photons = _photon_number(photons)
    smaller, larger = sorted((photons, modes - 1))
    if smaller < _PAST_THE_LIMIT_FROM:
        size = math.comb(modes + photons - 1, smaller)
        if size <= MAX_DIMENSION:
            return size
        digits = math.log10(size)
    else:
        top = larger + smaller + 1
        # (r + 1/2) log1p(x) as k log1p(x) / x - log1p(x) / 2, x = k / (r + 1):
        # int division and math.log take r past the float range.
        share = smaller / (larger + 1)
        log_size = (
            smaller * (math.log1p(share) / share if share else 1.0)
            - math.log1p(share) / 2
            + smaller * (math.log(top) - 1)
            + 1 / (12 * top)
            - 1 / (12 * (larger + 1))
            - math.lgamma(smaller + 1)
        )
        digits = log_size / math.log(10)
    raise OverflowError(
        f"basis for modes={modes}, photons={photons} has about "
        f"10^{digits:.2f} states, exceeding the supported limit {MAX_DIMENSION}"
    )


def _whole_number(count, least: int, rule: str) -> int:
    """``count`` as an int; booleans, fractions and counts below ``least`` raise.

    Every basis is built through this rule, so 2.0 and 2 give the same basis
    and True never stands in for 1. ``rule`` is the refusal's whole subject
    phrase, such as "photon counts must be whole numbers", which the
    message completes with the bound and the value.
    """
    # An exact int, the common case, skips the slower ABC checks.
    whole = type(count) is int or (
        not isinstance(count, bool)
        and (
            isinstance(count, numbers.Integral)
            or (isinstance(count, numbers.Real) and float(count).is_integer())
        )
    )
    if not whole or count < least:
        raise ValueError(f"{rule} >= {least}, got {count!r}")
    return int(count)


def _photon_number(count) -> int:
    return _whole_number(count, 0, "photon counts must be whole numbers")


def _mode_number(count) -> int:
    return _whole_number(count, 1, "mode counts must be whole numbers")


def _photon_counts(state) -> OccupationState:
    """``state``'s counts as ints, each through the whole-number rule."""
    return tuple(map(_photon_number, state))


@dataclass(frozen=True, eq=False)
class FockBasis:
    """All occupation states for a fixed photon number, canonically ordered.

    ``occupations[k]`` is state k as a row of per-mode counts, shape
    (M, modes), dtype ``np.intp``, read-only. ``states``, iteration and
    ``basis[k]`` give the same rows as tuples of ints, read off
    ``occupations`` on each use and kept nowhere. Bases compare by identity.
    """

    modes: int
    photons: int
    occupations: np.ndarray

    @property
    def states(self) -> tuple[OccupationState, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.occupations)

    def __iter__(self) -> Iterator[OccupationState]:
        return map(tuple, self.occupations.tolist())

    def __getitem__(self, position: int) -> OccupationState:
        return tuple(self.occupations[position].tolist())

    def index_of(self, state: OccupationState) -> int:
        """Position of ``state`` in canonical order, by combinatorial ranking.

        Each count follows the whole-number rule of ``enumerate_basis``:
        booleans, fractions and negative counts raise ValueError, and 2.0
        counts as 2.
        """
        state = _photon_counts(state)
        if len(state) != self.modes or sum(state) != self.photons:
            raise ValueError(
                f"state {state} does not belong to the basis with "
                f"modes={self.modes}, photons={self.photons}"
            )
        rank = 0
        remaining = self.photons
        for position, count in enumerate(state[:-1]):
            remaining -= count
            slots_after = self.modes - 1 - position
            if remaining > 0:
                rank += math.comb(remaining - 1 + slots_after, slots_after)
        return rank


def enumerate_basis(modes: int, photons: int) -> FockBasis:
    """Build the full occupation basis for the given mode and photon counts.

    Column by column, in canonical order: the states fall into groups by
    their counts in the modes before a column, and a group that leaves r
    photons puts r, r - 1, ..., 0 of them in that column, each count on a
    run of C(r - count + k - 1, k - 1) consecutive states, k the modes
    after the column; the last column takes what each group leaves. So a
    column is one ``np.repeat`` of its counts by run lengths read from a
    table of those binomials, and the groups of the next column come from
    the counts each group leaves, in O(M) array work per column and no
    Python loop over states. Mode and photon counts must be whole numbers,
    at least 1 and 0 (photons follow the same rule as the lifts): booleans
    and fractions raise ValueError, and 2.0 builds the same basis as 2.
    """
    modes = _mode_number(modes)
    photons = _photon_number(photons)
    size = dimension(modes, photons)
    occupations = np.zeros((size, modes), dtype=np.intp)
    # Without photons the one state is all zeros: no column loop over a
    # mode count that may run to millions.
    if photons:
        # runs[k, r] = C(r + k - 1, k - 1), the states of r photons in k
        # modes, row by row as the running sums of the row before.
        runs = np.ones((modes, photons + 1), dtype=np.intp)
        for k in range(2, modes):
            np.cumsum(runs[k - 1], out=runs[k])
        # The photons each group leaves, groups in canonical order.
        left = np.array([photons], dtype=np.intp)
        for column in range(modes - 1):
            children = left + 1
            firsts = np.repeat(np.cumsum(children) - children, children)
            kept = np.arange(len(firsts)) - firsts
            counts = np.repeat(left, children) - kept
            occupations[:, column] = np.repeat(counts, runs[modes - 1 - column, kept])
            left = kept
        occupations[:, -1] = left
    occupations.flags.writeable = False
    return FockBasis(modes, photons, occupations)


@dataclass(frozen=True, eq=False)
class LadderTable:
    """One-photon ladder moves of every basis state, as index arrays.

    With M states of ``basis`` (n photons, counts in ``basis.occupations``)
    and M' states of n - 1 photons:

    * ``up[j, r]`` is the position of r + e_j among the n photon states,
      for r an n - 1 photon state, shape (modes, M'). Row j is the
      positions of the states with p_j >= 1, in order;
    * ``up_coef[j, r]`` is sqrt(r_j + 1), the creation coefficient of that
      move, shape (modes, M').

    Which photon a lift removes from each state is the lift's own rule,
    kept in slot 0 of its walk plans (see ``lift._slot_rows``).
    """

    basis: FockBasis
    up: np.ndarray
    up_coef: np.ndarray


def ladder_table(modes: int, photons: int) -> LadderTable:
    """The ladder table for ``photons`` photons in ``modes`` modes, stored.

    Read off the basis occupations in O(modes * M) vectorised work, with
    no ranking, so no intermediate is larger than O(modes * M). Each photon
    number builds its own basis with ``enumerate_basis``. The table is kept
    in the plan store (see the module docstring), and the same object is
    returned for repeated (modes, photons) while it is kept, so its arrays
    are read-only. Mode and photon counts are checked as in
    ``enumerate_basis`` before the store is looked up, since its keys treat
    True as 1 and 2.0 as 2: booleans and fractions raise whether or not the
    table is stored, and 2.0 gets the table of 2.
    """
    return _ladder_table(_mode_number(modes), _photon_number(photons))


@_stored_plan
def _ladder_table(modes: int, photons: int) -> LadderTable:
    basis = enumerate_basis(modes, photons)
    occupations = basis.occupations
    occupied = occupations > 0
    # The states with p_j >= 1, in order, are r + e_j for the n - 1 photon
    # states r, in order: subtracting e_j keeps the order, and every r is
    # reached once. So row j of ``up`` lists them, and raising r into
    # p = r + e_j has coefficient sqrt(r_j + 1) = sqrt(p_j).
    up = np.stack([np.flatnonzero(column) for column in occupied.T])
    up_coef = np.sqrt(np.take_along_axis(occupations.T, up, axis=1))
    up.flags.writeable = False
    up_coef.flags.writeable = False
    return LadderTable(basis, up, up_coef)


@dataclass(frozen=True)
class LadderResult:
    """Coefficient and resulting state of one ladder-operator application.

    ``state`` is None when annihilation hits an empty mode; the coefficient
    is then 0 and the term drops out of any matrix-element sum.
    """

    coefficient: float
    state: OccupationState | None


def _check_mode(state: OccupationState, mode: int) -> None:
    if not 0 <= mode < len(state):
        raise ValueError(f"mode {mode} out of range for {len(state)} modes")


def apply_creation(state: OccupationState, mode: int) -> LadderResult:
    """Add one photon to ``mode``: coefficient sqrt(count + 1).

    Counts follow the whole-number rule of ``enumerate_basis``: booleans,
    fractions and negative counts raise ValueError, and 2.0 counts as 2.
    """
    state = _photon_counts(state)
    _check_mode(state, mode)
    raised = list(state)
    raised[mode] += 1
    return LadderResult(math.sqrt(state[mode] + 1), tuple(raised))


def apply_annihilation(state: OccupationState, mode: int) -> LadderResult:
    """Remove one photon from ``mode``: coefficient sqrt(count), 0 on vacuum.

    Counts follow the whole-number rule, as in ``apply_creation``.
    """
    state = _photon_counts(state)
    _check_mode(state, mode)
    if state[mode] == 0:
        return LadderResult(0.0, None)
    lowered = list(state)
    lowered[mode] -= 1
    return LadderResult(math.sqrt(state[mode]), tuple(lowered))


class MoveKind(Enum):
    IDENTICAL = "identical"
    ONE_MOVE = "one_move"
    FAR = "far"


@dataclass(frozen=True)
class MoveRelation:
    """How two occupation states relate under single-photon moves.

    For ONE_MOVE, ``target`` gained the photon and ``source`` lost it, i.e.
    the first state is the second with one photon moved source -> target.
    """

    kind: MoveKind
    target: int | None = None
    source: int | None = None


def photon_move_relation(p: OccupationState, q: OccupationState) -> MoveRelation:
    """Classify the pair as identical, one photon moved, or farther apart.

    Counts follow the whole-number rule, as in ``apply_creation``.
    """
    p = _photon_counts(p)
    q = _photon_counts(q)
    if len(p) != len(q):
        raise ValueError(f"mode counts differ: {len(p)} vs {len(q)}")
    if sum(p) != sum(q):
        raise ValueError(f"photon totals differ: {sum(p)} vs {sum(q)}")
    gained = [mode for mode, (a, b) in enumerate(zip(p, q)) if a - b > 0]
    lost = [mode for mode, (a, b) in enumerate(zip(p, q)) if a - b < 0]
    if not gained and not lost:
        return MoveRelation(MoveKind.IDENTICAL)
    if (
        len(gained) == 1
        and len(lost) == 1
        and p[gained[0]] - q[gained[0]] == 1
        and q[lost[0]] - p[lost[0]] == 1
    ):
        return MoveRelation(MoveKind.ONE_MOVE, target=gained[0], source=lost[0])
    return MoveRelation(MoveKind.FAR)


def bunched_first_order(basis: FockBasis) -> tuple[int, ...]:
    """Permutation listing states that occupy fewer distinct modes first.

    Ties keep canonical order. For two photons in two modes this yields
    (2,0), (0,2), (1,1), the ordering with fully bunched states up front.
    """
    occupied = np.count_nonzero(basis.occupations, axis=1)
    return tuple(np.argsort(occupied, kind="stable").tolist())
