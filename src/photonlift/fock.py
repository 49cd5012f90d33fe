"""Occupation-number basis for n photons in m modes, with ladder operators.

States are plain tuples of per-mode photon counts. The basis for a given
(modes, photons) pair is ordered reverse-lexicographically, so all photons
start bunched in the first mode: for two photons in two modes the order is
(2, 0), (1, 1), (0, 2). Positions are recovered by exact combinatorial
ranking rather than hashing, so ``index_of`` is O(modes) with no collision
handling.

The lifts do not apply ladder operators state by state. ``ladder_table``
ranks every one-photon neighbour of every basis state in one vectorised
pass and keeps the result, per (modes, photons), in a bounded cache: the
lifts of one network size share one table. Besides the moves themselves
(``down`` and ``up``) it keeps what each lift level needs: the creation
coefficients, each state's first occupied mode and the position left when
that photon is removed. The lifts raise photons by scattering through
``up`` and build no masks and run no searches per call; costs stay as
before in O-terms. ``apply_creation``, ``apply_annihilation`` and
``index_of`` remain the per-state reference the table is tested against. Everything here is immutable (table arrays are
read-only) and safe to share across threads.
"""

import functools
import math
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

# Ladder tables kept per process. One full lift of n photons uses the tables
# for 1..n photons, so this holds several network sizes at once; a table
# takes O(modes * M) memory, small beside one M x M lifted matrix.
_LADDER_CACHE_SIZE = 64


def dimension(modes: int, photons: int) -> int:
    """Number of ways to distribute ``photons`` photons over ``modes`` modes.

    Equals C(modes + photons - 1, photons), the size of the occupation
    basis. Raises OverflowError instead of returning a count too large to
    index with 64-bit integers.
    """
    if modes < 1:
        raise ValueError(f"mode count must be >= 1, got {modes}")
    if photons < 0:
        raise ValueError(f"photon count must be >= 0, got {photons}")
    size = math.comb(modes + photons - 1, photons)
    if size > MAX_DIMENSION:
        raise OverflowError(
            f"basis for modes={modes}, photons={photons} has {size} states, "
            f"exceeding the supported limit {MAX_DIMENSION}"
        )
    return size


def _compositions(total: int, slots: int) -> Iterator[OccupationState]:
    # Reverse-lexicographic: the leading mode count decreases from total to 0.
    if slots == 1:
        yield (total,)
        return
    for count in range(total, -1, -1):
        for rest in _compositions(total - count, slots - 1):
            yield (count, *rest)


@dataclass(frozen=True)
class FockBasis:
    """All occupation states for a fixed photon number, canonically ordered."""

    modes: int
    photons: int
    states: tuple[OccupationState, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[OccupationState]:
        return iter(self.states)

    def __getitem__(self, position: int) -> OccupationState:
        return self.states[position]

    def index_of(self, state: OccupationState) -> int:
        """Position of ``state`` in canonical order, by combinatorial ranking."""
        state = tuple(state)
        if (
            len(state) != self.modes
            or any(count < 0 for count in state)
            or sum(state) != self.photons
        ):
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
    """Build the full occupation basis for the given mode and photon counts."""
    dimension(modes, photons)
    return FockBasis(modes, photons, tuple(_compositions(photons, modes)))


def _rank(occupations: np.ndarray, photons: int) -> np.ndarray:
    """Canonical positions of the rows of an occupation array: ``index_of``, vectorised.

    Rows must hold ``photons`` photons in total; other rows get meaningless
    positions, which callers mask out.
    """
    modes = occupations.shape[-1]
    # binomials[left, s] = C(left - 1 + s, s): states ranked before a prefix
    # that leaves ``left`` photons for s later modes; 0 when none is left.
    binomials = np.array(
        [
            [math.comb(left - 1 + s, s) if left else 0 for s in range(modes)]
            for left in range(photons + 2)
        ],
        dtype=np.intp,
    )
    remaining = photons - np.cumsum(occupations[..., :-1], axis=-1)
    slots_after = np.arange(modes - 1, 0, -1)
    return binomials[np.clip(remaining, 0, photons + 1), slots_after].sum(axis=-1)


@dataclass(frozen=True, eq=False)
class LadderTable:
    """One-photon ladder moves of every basis state, as index arrays.

    With M states of ``basis`` (n photons) and M' states of n - 1 photons:

    * ``occupations[p]`` is state p as a row of counts, shape (M, modes);
    * ``down[j, p]`` is the position of p - e_j among the n - 1 photon
      states, or -1 where p_j = 0, shape (modes, M);
    * ``up[j, r]`` is the position of r + e_j among the n photon states,
      for r an n - 1 photon state, shape (modes, M');
    * ``up_coef[j, r]`` is sqrt(r_j + 1), the creation coefficient of that
      move, shape (modes, M');
    * ``first[p]`` is the first occupied mode of state p (0 for the
      vacuum), shape (M,);
    * ``first_down[p]`` is ``down[first[p], p]``, the position of p minus
      its first photon (-1 for the vacuum), shape (M,).
    """

    basis: FockBasis
    occupations: np.ndarray
    down: np.ndarray
    up: np.ndarray
    up_coef: np.ndarray
    first: np.ndarray
    first_down: np.ndarray


@functools.lru_cache(maxsize=_LADDER_CACHE_SIZE)
def ladder_table(modes: int, photons: int) -> LadderTable:
    """The ladder table for ``photons`` photons in ``modes`` modes, cached.

    Built in O(modes^2 * M) vectorised work. The same object is returned for
    repeated (modes, photons), so its arrays are read-only.
    """
    basis = enumerate_basis(modes, photons)
    occupations = np.array(basis.states, dtype=np.intp)
    counts = np.ascontiguousarray(occupations.T)
    lowered = occupations - np.eye(modes, dtype=np.intp)[:, None, :]
    down = np.where(counts > 0, _rank(lowered, photons - 1), -1)
    # Every n - 1 photon state r is p - e_j for exactly one p, p = r + e_j,
    # so ``up`` is ``down`` inverted.
    lower_size = dimension(modes, photons - 1) if photons else 0
    up = np.empty((modes, lower_size), dtype=np.intp)
    moves, sources = np.nonzero(counts)
    lowered_at = down[moves, sources]
    up[moves, lowered_at] = sources
    # Raising r into p = r + e_j has coefficient sqrt(r_j + 1) = sqrt(p_j).
    up_coef = np.empty(up.shape)
    up_coef[moves, lowered_at] = np.sqrt(counts[moves, sources])
    first = np.argmax(counts > 0, axis=0)
    first_down = down[first, np.arange(len(basis))]
    arrays = (occupations, down, up, up_coef, first, first_down)
    for array in arrays:
        array.flags.writeable = False
    return LadderTable(basis, *arrays)


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
    """Add one photon to ``mode``: coefficient sqrt(count + 1)."""
    _check_mode(state, mode)
    raised = list(state)
    raised[mode] += 1
    return LadderResult(math.sqrt(state[mode] + 1), tuple(raised))


def apply_annihilation(state: OccupationState, mode: int) -> LadderResult:
    """Remove one photon from ``mode``: coefficient sqrt(count), 0 on vacuum."""
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
    """Classify the pair as identical, one photon moved, or farther apart."""
    p = tuple(p)
    q = tuple(q)
    if len(p) != len(q):
        raise ValueError(f"mode counts differ: {len(p)} vs {len(q)}")
    if any(count < 0 for count in p) or any(count < 0 for count in q):
        raise ValueError("occupation counts must be non-negative")
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
    def occupied(position: int) -> int:
        return sum(1 for count in basis.states[position] if count)

    return tuple(sorted(range(len(basis)), key=lambda k: (occupied(k), k)))
