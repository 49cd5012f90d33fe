"""Lift single-photon network matrices to their n-photon counterparts.

The m x m scattering matrix S of a photon-conserving linear network fixes
the evolution of any number of photons. ``lift_unitary_expansion`` and
``lift_unitary_permanent`` are two independent constructions of the lifted
M x M unitary (M = C(m+n-1, n)). The first is a photon-by-photon recursion
over cached ladder tables, in O(n * m * M^2). The second is the closed form
U[p, q] = per(S[p|q]) / sqrt(prod_j p_j! prod_l q_l!), with the permanents
of each column q from one pass of Glynn's formula over repeated columns, in
O(m * M * sum_q K_q) for K_q = prod_j (f_j + 1) and f = q minus its first
photon. ``lift_hamiltonian`` is the matching map on effective
Hamiltonians, where exp(i H) gives the evolution. Entry (p, q) of a lifted
matrix is the amplitude from basis state q to basis state p, so columns are
images of input states. Everything here is a pure function over immutable
inputs and safe to call concurrently.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    MoveKind,
    OccupationState,
    enumerate_basis,
    ladder_table,
    photon_move_relation,
)
from .matfuncs import (
    PERMANENT_SIZE_LIMIT,
    NotHermitianError,
    _as_square,
    is_hermitian,
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


def _lift_columns(
    matrix: np.ndarray, photons: int, columns: np.ndarray | None = None
) -> np.ndarray:
    """Columns ``columns`` (all when None) of the n-photon lift of S.

    With l the first occupied mode of input q, |q> = a_l^dag |q - e_l> /
    sqrt(q_l) and U a_l^dag U^dag = sum_j S_jl a_j^dag, so

        U[p, q] = (sum_j sqrt(p_j) S_jl U'[p - e_j, q - e_l]) / sqrt(q_l)

    with U' the (n-1)-photon lift. Only the columns of U' that the wanted
    columns need are built, level by level from the vacuum. A level is a
    scatter through the ladder table: for each mode j, row r of U' times
    sqrt(r_j + 1) S_jl is added to row up[j, r]. The rows up[j] are
    distinct, so one fancy-indexed add per mode is exact. l and the
    position of q - e_l are the table's ``first`` and ``first_down``. A full
    lift needs every column of U' in order (each r is r + e_0 minus its
    first photon), so only a column subset looks its sources up with
    ``np.unique``. Modes are summed in order and the division comes last,
    which keeps lifts of the identity and of permutations exact. Costs
    O(m * M' * K) per level for K wanted columns.
    """
    modes = matrix.shape[0]
    levels = []
    for count in range(photons, 0, -1):
        table = ladder_table(modes, count)
        if columns is None:
            first, lowered = table.first, table.first_down
            gather = lowered
        else:
            first, lowered = table.first[columns], table.first_down[columns]
            columns, gather = np.unique(lowered, return_inverse=True)
        levels.append((table, first, lowered, gather))
    block = np.ones((1, 1), dtype=complex)
    for table, first, lowered, gather in reversed(levels):
        shed = block[:, gather]
        weights = matrix[:, first]
        lifted = np.zeros((len(table.basis), len(first)), dtype=complex)
        for mode in range(modes):
            terms = table.up_coef[mode, :, None] * shed
            terms *= weights[mode]
            lifted[table.up[mode]] += terms
        # up_coef[l, q - e_l] is sqrt(q_l).
        block = lifted / table.up_coef[first, lowered]
    return block


def lift_unitary_expansion(scattering, photons: int) -> LiftedUnitary:
    """Lift S through products of transformed creation operators.

    Adds one photon at a time: column q of the n-photon lift is S applied to
    the first photon of q, a_l^dag -> sum_j S_jl a_j^dag, on top of column
    q - e_l of the (n-1)-photon lift (see ``_lift_columns``). The moves come
    from the cached ladder tables of ``fock.ladder_table``, so the full lift
    costs O(n * m * M^2) for M = C(m+n-1, n).
    """
    matrix = _as_square(scattering)
    photons = _photon_number(photons)
    table = ladder_table(matrix.shape[0], photons)
    return LiftedUnitary(table.basis, _lift_columns(matrix, photons))


def _glynn_column(
    matrix: np.ndarray,
    occupations: np.ndarray,
    signed_binomials: np.ndarray,
    state: OccupationState,
) -> np.ndarray:
    """per(S[p|q]) for every row state p of ``occupations`` and one input q.

    Glynn's formula with repeated columns: the n columns of S[p|q] carry
    signs, the first photon's fixed to +. Only the number s_l of minus
    signs among the q_l copies of column l matters, so the sum runs over
    0 <= s <= f with f = q - e_l (l the first occupied mode), weighted by
    w_s = prod_j (-1)^{s_j} C(f_j, s_j). With X = S (q - 2s)^T,

        per(S[p|q]) = 2^{1-n} sum_s w_s prod_j X[j, s]^{p_j}.

    ``signed_binomials[a, b]`` must hold (-1)^b C(a, b) for a, b < n.
    """
    modes = len(state)
    photons = sum(state)
    counts = np.array(state)
    free = counts.copy()
    free[np.flatnonzero(free)[0]] -= 1
    signs = np.indices(tuple(free + 1)).reshape(modes, -1).T
    weights = signed_binomials[free, signs].prod(axis=1)
    sums = matrix @ (counts - 2 * signs).T
    # powers[k, j] = X[j]^k with X = sums, by repeated multiplication.
    powers = np.empty((photons + 1, modes, len(weights)), dtype=complex)
    powers[0] = 1
    powers[1] = sums
    for k in range(2, photons + 1):
        np.multiply(powers[k - 1], sums, out=powers[k])
    products = powers[occupations[:, 0], 0]
    for mode in range(1, modes):
        products *= powers[occupations[:, mode], mode]
    return (products @ weights) * 2.0 ** (1 - photons)


def lift_unitary_permanent(scattering, photons: int) -> LiftedUnitary:
    """Lift S column by column through permanents of repeated submatrices.

    Entry (p, q) is per(S[p|q]) / sqrt(prod_k p_k! prod_k q_k!) where
    S[p|q] repeats row j of S p_j times and column l q_l times. Each column
    q takes one pass of Glynn's formula with repeated columns (see
    ``_glynn_column``) over its K_q = prod_j (f_j + 1) sign-count vectors,
    f = q minus its first photon, so the whole lift costs
    O(m * M * sum_q K_q) instead of M^2 permanents of 2^n subsets each.
    Glynn's signed sums cancel better than Ryser's subset sums. This
    construction shares no code with the expansion lift: it enumerates its
    own basis and uses no ladder table, and the two serve as cross-checks.
    More than PERMANENT_SIZE_LIMIT photons raise ValueError up front.
    """
    matrix = _as_square(scattering)
    photons = _photon_number(photons)
    if photons > PERMANENT_SIZE_LIMIT:
        raise ValueError(
            f"permanent lift limited to {PERMANENT_SIZE_LIMIT} photons, got {photons}"
        )
    basis = enumerate_basis(matrix.shape[0], photons)
    if photons == 0:
        return LiftedUnitary(basis, np.ones((1, 1), dtype=complex))
    occupations = np.array(basis.states)
    signed_binomials = np.array(
        [
            [(-1) ** k * math.comb(top, k) for k in range(photons)]
            for top in range(photons)
        ],
        dtype=float,
    )
    lifted = np.empty((len(basis), len(basis)), dtype=complex)
    for column, state in enumerate(basis.states):
        lifted[:, column] = _glynn_column(matrix, occupations, signed_binomials, state)
    factorials = np.array(
        [math.prod(math.factorial(count) for count in state) for state in basis],
        dtype=float,
    )
    # One square root per entry keeps lifts of permutations exact.
    return LiftedUnitary(basis, lifted / np.sqrt(np.outer(factorials, factorials)))


def lift_hamiltonian(h_single, photons: int, *, tol: float = 1e-9) -> LiftedHamiltonian:
    """Lift an m-mode effective Hamiltonian to the n-photon space.

    Each entry couples states at most one photon move apart:

    * diagonal: sum_l q_l * H_ll,
    * one photon moved from mode l to mode j: sqrt((q_j + 1) * q_l) * H_jl,
    * anything farther: exactly zero.

    The one-move entries are scattered through the cached ladder table in
    one pass over all m(m - 1) ordered mode pairs (j, l), j != l: for every
    n - 1 photon state r, entry (up[j, r], up[l, r]) moves a photon of
    r + e_l from l to j. That is O(m^2 * M') index work for M' states of
    n - 1 photons, next to the O(M^2) output.
    """
    matrix = _as_square(h_single)
    if not is_hermitian(matrix, tol):
        raise NotHermitianError(f"matrix is not Hermitian within tolerance {tol}")
    photons = _photon_number(photons)
    modes = matrix.shape[0]
    table = ladder_table(modes, photons)
    occupations = table.occupations
    size = len(table.basis)
    lifted = np.zeros((size, size), dtype=complex)
    # Summed mode by mode, as hamiltonian_element sums, so the two agree exactly.
    diagonal = np.zeros(size, dtype=complex)
    for mode in range(modes):
        diagonal += occupations[:, mode] * matrix[mode, mode]
    np.fill_diagonal(lifted, diagonal)
    targets, sources = np.nonzero(~np.eye(modes, dtype=bool))
    rows, columns = table.up[targets], table.up[sources]
    targets, sources = targets[:, None], sources[:, None]
    weights = np.sqrt(occupations[columns, sources] * occupations[rows, targets])
    lifted[rows, columns] = weights * matrix[targets, sources]
    return LiftedHamiltonian(table.basis, lifted)


def hamiltonian_element(h_single, output_state, input_state) -> complex:
    """Single entry of the lifted Hamiltonian without building the matrix.

    ``output_state`` and ``input_state`` play the roles of bra and ket; the
    single-photon matrix is assumed Hermitian.
    """
    matrix = _as_square(h_single)
    p = tuple(output_state)
    q = tuple(input_state)
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


def global_phase_lift(phase: float, photons: int) -> float:
    """Phase picked up by the lifted unitary when S gains a global phase.

    Multiplying S by e^{i phase} multiplies the n-photon unitary by
    e^{i n phase}; the returned angle is n * phase reduced to (-pi, pi].
    """
    reduced = math.remainder(photons * phase, math.tau)
    if reduced <= -math.pi:
        reduced += math.tau
    return reduced


def _photon_number(count) -> int:
    """``count`` as an int; booleans, fractions and negatives raise ValueError.

    Runs before any ladder table is looked up, so 2.0 and 2 reach the same
    cached table and True never becomes a key of its own.
    """
    whole = isinstance(count, numbers.Integral) or (
        isinstance(count, numbers.Real) and float(count).is_integer()
    )
    if isinstance(count, bool) or not whole or count < 0:
        raise ValueError(f"photon counts must be whole numbers >= 0, got {count!r}")
    return int(count)


def _photon_counts(input_state) -> OccupationState:
    return tuple(_photon_number(count) for count in input_state)


def transition_distribution(
    scattering, input_state
) -> dict[OccupationState, float]:
    """Output occupation probabilities for a basis-state input.

    Computes only the column of the lifted unitary for ``input_state``, by
    the same photon-by-photon recursion as ``lift_unitary_expansion``, in
    O(n * m * M) instead of building the M x M matrix. Returns
    |amplitude|^2 per output state, keyed in canonical basis order. Counts
    must be whole numbers; booleans and fractions raise ValueError.
    """
    matrix = _as_square(scattering)
    occupation = _photon_counts(input_state)
    photons = sum(occupation)
    table = ladder_table(matrix.shape[0], photons)
    column = np.array([table.basis.index_of(occupation)])
    amplitudes = _lift_columns(matrix, photons, column)[:, 0]
    return {
        state: float(abs(amplitude) ** 2)
        for state, amplitude in zip(table.basis.states, amplitudes)
    }


def balanced_beam_splitter() -> np.ndarray:
    """The 50/50 two-mode coupler (1/sqrt 2) [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
