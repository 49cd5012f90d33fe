import cmath
import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photonlift.fock as fock_module
import photonlift.lift as lift_module
import photonlift.matfuncs as matfuncs_module
import photonlift.verify as verify_module
from photonlift.fock import (
    MoveKind,
    _clear_plans,
    _ladder_table,
    apply_annihilation,
    enumerate_basis,
    ladder_table,
    photon_move_relation,
)
from photonlift.lift import (
    _STACK_BLOCK,
    _expansion_lifts,
    _fill_lift_columns,
    _glynn_plan,
    balanced_beam_splitter,
    global_phase_lift,
    hamiltonian_element,
    lift_hamiltonian,
    lift_unitary_expansion,
    lift_unitary_permanent,
    transition_distribution,
)
from photonlift.matfuncs import (
    PERMANENT_SIZE_LIMIT,
    NotHermitianError,
    frobenius_norm,
    is_unitary,
    matrix_exponential,
    permanent,
    unitary_logarithm,
)
from photonlift.verify import check_diagram, random_hermitian, random_unitary, run_sweep
from reference import (
    lift_columns_by_scatter,
    lift_permanent_by_passes,
    mode_count_distribution,
    rank_occupations,
)

# The worked two-mode example lists its three two-photon states in the order
# (2,0), (0,2), (1,1); this permutation maps canonical indices to that order.
BUNCHED = np.ix_((0, 2, 1), (0, 2, 1))

GOLDEN_COUPLER_LOG = np.array(
    [[0.46008, -1.11072], [-1.11072, 2.68152]], dtype=complex
)

GOLDEN_TWO_PHOTON_LOG = np.array(
    [
        [0.92016, 0.0, -1.57080],
        [0.0, 5.36304, -1.57080],
        [-1.57080, -1.57080, 3.14160],
    ],
    dtype=complex,
)

ROOT_HALF = 1 / math.sqrt(2)
GOLDEN_TWO_PHOTON_UNITARY = np.array(
    [
        [0.5, 0.5, ROOT_HALF],
        [0.5, 0.5, -ROOT_HALF],
        [ROOT_HALF, -ROOT_HALF, 0.0],
    ],
    dtype=complex,
)


def two_photon_unitary_closed_form(scattering):
    """Closed form of the two-mode, two-photon lift in bunched order."""
    s = np.asarray(scattering, dtype=complex)
    r2 = math.sqrt(2)
    return np.array(
        [
            [s[0, 0] ** 2, s[0, 1] ** 2, r2 * s[0, 0] * s[0, 1]],
            [s[1, 0] ** 2, s[1, 1] ** 2, r2 * s[1, 0] * s[1, 1]],
            [
                r2 * s[0, 0] * s[1, 0],
                r2 * s[0, 1] * s[1, 1],
                s[0, 0] * s[1, 1] + s[0, 1] * s[1, 0],
            ],
        ]
    )


def two_photon_hamiltonian_closed_form(h_single):
    """Closed form of the two-mode, two-photon Hamiltonian lift, bunched order."""
    h = np.asarray(h_single, dtype=complex)
    r2 = math.sqrt(2)
    return np.array(
        [
            [2 * h[0, 0], 0.0, r2 * h[0, 1]],
            [0.0, 2 * h[1, 1], r2 * h[1, 0]],
            [r2 * h[1, 0], r2 * h[0, 1], h[0, 0] + h[1, 1]],
        ]
    )


class TestLiftUnitaryExpansion:
    @pytest.mark.parametrize("modes,photons", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_identity_lifts_to_identity_exactly(self, modes, photons):
        lifted = lift_unitary_expansion(np.eye(modes), photons)
        assert np.array_equal(lifted.matrix, np.eye(len(lifted.basis)))

    def test_beam_splitter_two_photons_golden(self):
        lifted = lift_unitary_expansion(balanced_beam_splitter(), 2)
        assert np.max(np.abs(lifted.matrix[BUNCHED] - GOLDEN_TWO_PHOTON_UNITARY)) < 1e-10

    def test_diagonal_phases_multiply_per_photon(self):
        theta = 0.7
        scattering = np.diag([cmath.exp(1j * theta), 1.0])
        lifted = lift_unitary_expansion(scattering, 2)
        # Canonical order (2,0), (1,1), (0,2): phases 2*theta, theta, 0.
        expected = np.diag(
            [cmath.exp(2j * theta), cmath.exp(1j * theta), 1.0]
        )
        assert np.allclose(lifted.matrix, expected, atol=1e-12)

    def test_matches_closed_form_pattern(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scattering = random_unitary(2, rng)
            lifted = lift_unitary_expansion(scattering, 2)
            expected = two_photon_unitary_closed_form(scattering)
            assert np.max(np.abs(lifted.matrix[BUNCHED] - expected)) <= 1e-12

    def test_preserves_unitarity(self):
        rng = np.random.default_rng(22)
        for modes, photons in [(2, 3), (3, 2), (4, 2)]:
            scattering = random_unitary(modes, rng)
            assert is_unitary(scattering, 1e-12)
            lifted = lift_unitary_expansion(scattering, photons)
            assert is_unitary(lifted.matrix, 1e-9)

    def test_single_photon_is_the_input_matrix(self):
        rng = np.random.default_rng(23)
        scattering = random_unitary(5, rng)
        lifted = lift_unitary_expansion(scattering, 1)
        assert np.array_equal(lifted.matrix, scattering)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            lift_unitary_expansion(np.ones((2, 3)), 1)

    @pytest.mark.parametrize("photons,bound", [(100, 6.4), (300, 5.6)])
    def test_warm_peak_holds_one_level_of_s_weights(self, photons, bound):
        # Each level gathers its own S-weights when it runs. Gathering every
        # level's up front, m * sum_l M_l entries held for the whole walk,
        # peaked at 7.04 and 6.23 matrices here.
        scattering = random_unitary(2, np.random.default_rng(24))
        lift_unitary_expansion(scattering, photons)
        tracemalloc.start()
        try:
            lifted = lift_unitary_expansion(scattering, photons)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * lifted.matrix.nbytes


def lift_block(matrices, photons, state=None):
    """The 2-D (M, k * W) block ``_fill_lift_columns`` writes for a stack of S.

    W is M for every column, or 1 for the column of the occupation ``state``.
    """
    stack = np.reshape(matrices, (-1, *np.shape(matrices)[-2:]))
    size = math.comb(stack.shape[1] + photons - 1, photons)
    block = np.empty((size, len(stack), size if state is None else 1), dtype=complex)
    _fill_lift_columns(stack, photons, state, block)
    return block.reshape(size, -1)


class TestLiftColumns:
    @pytest.mark.parametrize("modes,photons", [(4, 3), (5, 2), (2, 6), (1, 0), (1, 4), (2, 40)])
    def test_column_subsets_match_the_full_lift_exactly(self, modes, photons):
        # The walk's only subset is one input's column: each one, byte for byte.
        scattering = random_unitary(modes, np.random.default_rng(83))
        lifted = lift_unitary_expansion(scattering, photons)
        assert lift_block(scattering, photons).tobytes() == lifted.matrix.tobytes()
        for column, state in enumerate(lifted.basis):
            single = lift_block(scattering, photons, state)
            assert single.tobytes() == lifted.matrix[:, [column]].tobytes()

    def test_input_column_needs_no_ranking(self, monkeypatch):
        def refuse(self, state):
            raise AssertionError("the lift ranked its input")

        monkeypatch.setattr(fock_module.FockBasis, "index_of", refuse)
        distribution = transition_distribution(balanced_beam_splitter(), (1, 1))
        assert list(distribution) == [(2, 0), (1, 1), (0, 2)]


def assert_bit_identical(actual, expected):
    assert np.array_equal(actual, expected)
    # array_equal takes -0.0 for 0.0; the bytes tell them apart.
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestRealViewWalk:
    """The real-view walk against the complex scatter walk, bit for bit."""

    SIZES = [(m, n) for m in range(1, 7) for n in range(6)] + [(10, 3)]

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_random_stacks_and_column_subsets(self, modes, photons):
        rng = np.random.default_rng([87, modes, photons])
        count = rng.integers(1, 8)
        matrices = np.stack([random_unitary(modes, rng) for _ in range(count)])
        assert_bit_identical(
            lift_block(matrices, photons), lift_columns_by_scatter(matrices, photons)
        )
        basis = ladder_table(modes, photons).basis
        state = basis[rng.integers(len(basis))]
        assert_bit_identical(
            lift_block(matrices, photons, state),
            lift_columns_by_scatter(matrices, photons, state),
        )

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_signed_permutation_stacks(self, modes, photons):
        rng = np.random.default_rng([88, modes, photons])
        matrices = np.stack(
            [
                np.eye(modes)[rng.permutation(modes)] * rng.choice([-1, 1], modes)
                for _ in range(rng.integers(1, 8))
            ]
        ).astype(complex)
        assert_bit_identical(
            lift_block(matrices, photons), lift_columns_by_scatter(matrices, photons)
        )

    # Sizes whose walks merge every level past 1, scatter every one, or
    # cross the gather bound part way up; with stacks of 1, 2 and 7, and
    # single columns, which merge for longer.
    BOTH_SIDES = [(3, 0), (4, 1), (4, 3), (3, 12), (2, 40), (5, 4), (6, 6), (10, 3)]

    @staticmethod
    def merged_levels(modes, photons, count, width=None):
        """The levels of a walk over ``count`` matrices that take the merged step."""
        levels = []
        for level in range(2, photons + 1):
            size = len(ladder_table(modes, level).basis)
            gathered = min(modes, level) * size * count * (width or size)
            if gathered <= lift_module._GATHER_BLOCK:
                levels.append(level)
        return levels

    def test_sizes_lie_on_both_sides_of_the_gather_bound(self):
        assert self.merged_levels(4, 3, 7) == [2, 3]
        assert self.merged_levels(2, 40, 2) == list(range(2, 41))
        assert self.merged_levels(5, 4, 1) == [2, 3]
        assert self.merged_levels(6, 6, 7) == [2]
        assert self.merged_levels(3, 12, 1) == list(range(2, 11))
        assert self.merged_levels(10, 3, 7) == []
        assert self.merged_levels(10, 3, 1, width=1) == [2, 3]

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("modes,photons", BOTH_SIDES)
    def test_stacks_on_both_sides_of_the_gather_bound(self, modes, photons, count):
        rng = np.random.default_rng([90, modes, photons, count])
        matrices = np.stack([random_unitary(modes, rng) for _ in range(count)])
        assert_bit_identical(
            lift_block(matrices, photons), lift_columns_by_scatter(matrices, photons)
        )
        basis = ladder_table(modes, photons).basis
        for state in {basis[0], basis[-1], basis[rng.integers(len(basis))]}:
            assert_bit_identical(
                lift_block(matrices, photons, state),
                lift_columns_by_scatter(matrices, photons, state),
            )

    @pytest.mark.parametrize("modes,photons,merged", [(12, 5, [2, 3, 4]), (20, 4, [2, 3])])
    def test_one_input_columns_whose_top_levels_scatter(self, modes, photons, merged):
        assert self.merged_levels(modes, photons, 1, width=1) == merged
        rng = np.random.default_rng([92, modes, photons])
        scattering = random_unitary(modes, rng)
        basis = ladder_table(modes, photons).basis
        random_state = basis[rng.integers(len(basis))]
        for state in [basis[0], basis[-1], random_state]:
            assert_bit_identical(
                lift_block(scattering[None], photons, state),
                lift_columns_by_scatter(scattering, photons, state),
            )
        column = lift_block(scattering[None], photons, random_state)[:, 0]
        # Entries against per(S[p|q]) / sqrt(p! q!), with q the input.
        columns = np.repeat(np.arange(modes), random_state)
        for row in rng.choice(len(basis), 20, replace=False):
            output = basis[row]
            block = scattering[np.ix_(np.repeat(np.arange(modes), output), columns)]
            norm = math.sqrt(math.prod(map(math.factorial, output + random_state)))
            assert column[row] == pytest.approx(permanent(block) / norm, rel=0, abs=1e-14)

    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("modes,photons", [(5, 4), (4, 3), (6, 6)])
    def test_levels_take_the_step_their_size_selects(self, monkeypatch, modes, photons, count):
        merged_level = lift_module._merged_level
        # Level sizes grow with the level, so a block's length names its level.
        levels = {len(ladder_table(modes, level).basis): level for level in range(photons + 1)}
        merged = []

        def spy(*args):
            merged.append(levels[len(args[-1])])
            return merged_level(*args)

        monkeypatch.setattr(lift_module, "_merged_level", spy)
        matrices = np.stack([np.eye(modes, dtype=complex)] * count)
        lift_block(matrices, photons)
        assert merged == self.merged_levels(modes, photons, count)

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("modes,photons", [(1, 3), (3, 1), (4, 3), (5, 4), (6, 6)])
    def test_signed_zeros_of_permutations_leave_no_negative_zero(self, modes, photons, count):
        rng = np.random.default_rng([91, modes, photons, count])
        matrices = np.stack(
            [
                np.eye(modes)[rng.permutation(modes)] * rng.choice([-1, 1], modes)
                for _ in range(count)
            ]
        ).astype(complex)
        # -I, whose zero entries are -0.0 - 0.0j, and its conjugate, whose
        # zero entries are -0.0 + 0.0j: no negative zero may reach the lift.
        matrices[0] = -np.eye(modes).astype(complex)
        matrices[-1] = np.conjugate(matrices[0])
        lifted = lift_block(matrices, photons)
        assert_bit_identical(lifted, lift_columns_by_scatter(matrices, photons))
        parts = lifted.view(float)
        assert not np.signbit(parts[parts == 0]).any()

    @pytest.mark.parametrize("count", range(1, 8))
    def test_every_stack_height(self, count):
        rng = np.random.default_rng([89, count])
        matrices = np.stack([random_unitary(3, rng) for _ in range(count)])
        expected = lift_columns_by_scatter(matrices, 4)
        assert_bit_identical(lift_block(matrices, 4), expected)
        assert_bit_identical(
            lift_block(matrices, 4, (1, 0, 3)),
            lift_columns_by_scatter(matrices, 4, (1, 0, 3)),
        )


class TestWalkPlans:
    """The photon each level's plan removes, against per-state references."""

    @pytest.mark.parametrize(
        "modes,photons", [(m, n) for m in range(1, 7) for n in range(1, 5)]
    )
    def test_agrees_with_per_state_ladder_operators(self, modes, photons):
        plan = lift_module._slot_rows(modes, photons)[:3]
        first, down, scale = plan
        basis = ladder_table(modes, photons).basis
        lower = enumerate_basis(modes, photons - 1)
        for position, state in enumerate(basis):
            mode = next(mode for mode, count in enumerate(state) if count)
            assert first[position] == mode
            lowered = apply_annihilation(state, mode)
            assert down[position] == lower.index_of(lowered.state)
            assert scale[2 * position] == scale[2 * position + 1] == 1 / lowered.coefficient
        assert first.shape == down.shape == (len(basis),)
        assert scale.shape == (2 * len(basis),)
        for array in plan:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize(
        "modes,photons", [(2, 30), (2, 300), (3, 40), (16, 4), (20, 5)]
    )
    def test_removal_matches_the_ranking_oracle_at_size(self, modes, photons):
        first, down, scale = lift_module._slot_rows(modes, photons)[:3]
        occupations = ladder_table(modes, photons).basis.occupations
        rows = np.arange(len(occupations))
        # The first occupied mode is the number of empty modes before it.
        assert np.array_equal(first, (np.cumsum(occupations, axis=1) == 0).sum(axis=1))
        lowered = occupations.copy()
        lowered[rows, first] -= 1
        assert np.array_equal(down, rank_occupations(lowered, photons - 1))
        assert np.array_equal(scale, np.repeat(1 / np.sqrt(occupations[rows, first]), 2))


class TestConjugationAndTransposition:
    """lift(conj S) = conj lift(S) exactly, and lift(S^T) = lift(S)^T to rounding."""

    SIZES = [(m, n) for m in range(1, 7) for n in range(6)] + [(8, 3), (10, 3)]

    @pytest.mark.parametrize("lift", [lift_unitary_expansion, lift_unitary_permanent])
    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_lift_of_the_conjugate_is_the_conjugate_lift(self, lift, modes, photons):
        scattering = random_unitary(modes, np.random.default_rng([95, modes, photons]))
        conjugated = lift(scattering.conj(), photons).matrix
        lifted = lift(scattering, photons).matrix
        if photons:
            assert_bit_identical(conjugated, np.conjugate(lifted))
        else:
            # The vacuum's lift is 1 for every S; its conjugate has -0.0j.
            assert_bit_identical(conjugated, lifted)

    @pytest.mark.parametrize("lift", [lift_unitary_expansion, lift_unitary_permanent])
    @pytest.mark.parametrize("modes,photons", SIZES + [(2, 6), (3, 6), (4, 6)])
    def test_lift_of_the_transpose_is_the_transposed_lift(self, lift, modes, photons):
        # Exact arithmetic gives equality; rounding stays within a few eps
        # up to six photons. Higher occupancy magnifies it (2.9e-14 at
        # (2, 20)), which the expansion walk's photon-removal rule causes.
        scattering = random_unitary(modes, np.random.default_rng([96, modes, photons]))
        gap = lift(scattering.T, photons).matrix - lift(scattering, photons).matrix.T
        assert np.abs(gap).max() <= 16 * np.finfo(float).eps


class TestStackedLifts:
    # (m, n) whose passes hold two or more matrices, and (m, n) whose passes
    # hold one, with photons 0 and 1 and m = 1 among them.
    SHARED = [(1, 0), (1, 3), (2, 0), (2, 1), (4, 0), (4, 1), (3, 2), (4, 3), (6, 3)]
    SINGLE = [(7, 3), (5, 4), (10, 3)]

    @staticmethod
    def dimension(modes, photons):
        return math.comb(modes + photons - 1, photons)

    def test_sizes_lie_on_both_sides_of_the_pass_bound(self):
        assert all(2 * self.dimension(*size) ** 2 <= _STACK_BLOCK for size in self.SHARED)
        assert all(2 * self.dimension(*size) ** 2 > _STACK_BLOCK for size in self.SINGLE)
        # (6, 3) holds two matrices per pass, so a stack of three splits.
        assert 2 * self.dimension(6, 3) ** 2 <= _STACK_BLOCK < 3 * self.dimension(6, 3) ** 2

    @pytest.mark.parametrize("modes,photons", SHARED + SINGLE)
    def test_match_single_lifts(self, modes, photons):
        rng = np.random.default_rng([84, modes, photons])
        matrices = [random_unitary(modes, rng) for _ in range(3)]
        lifts = _expansion_lifts(matrices, photons)
        assert len(lifts) == 3
        for matrix, lifted in zip(matrices, lifts):
            single = lift_unitary_expansion(matrix, photons).matrix
            assert lifted.shape == single.shape
            if modes == 1:
                # The documented exception of _expansion_lifts: at m = 1 a
                # lift that shares its pass can differ in the last bit.
                assert np.abs(lifted - single).max() <= 1e-15
            else:
                assert lifted.tobytes() == single.tobytes()

    @pytest.mark.parametrize("modes,photons", SHARED + SINGLE)
    def test_signed_permutations_are_exact(self, modes, photons):
        rng = np.random.default_rng([85, modes, photons])
        matrices = [
            np.eye(modes)[rng.permutation(modes)] * rng.choice([-1, 1], modes)
            for _ in range(3)
        ]
        lifts = _expansion_lifts([np.asarray(m, dtype=complex) for m in matrices], photons)
        for matrix, lifted in zip(matrices, lifts):
            assert np.array_equal(lifted, lift_unitary_expansion(matrix, photons).matrix)

    def test_one_walk_lays_the_columns_side_by_side(self):
        rng = np.random.default_rng(86)
        matrices = np.stack([random_unitary(3, rng) for _ in range(4)])
        size = self.dimension(3, 2)
        block = lift_block(matrices, 2)
        assert block.shape == (size, 4 * size)
        for index, matrix in enumerate(matrices):
            single = lift_unitary_expansion(matrix, 2).matrix
            assert np.abs(block[:, index * size : (index + 1) * size] - single).max() <= 1e-15

    @given(st.integers(1, 4), st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacks_match_single_lifts_property(self, modes, photons, count, seed):
        rng = np.random.default_rng(seed)
        matrices = [random_unitary(modes, rng) for _ in range(count)]
        lifts = _expansion_lifts(matrices, photons)
        assert len(lifts) == count
        for matrix, lifted in zip(matrices, lifts):
            single = lift_unitary_expansion(matrix, photons).matrix
            assert np.abs(lifted - single).max() <= 1e-15


class TestPhotonNumber:
    LIFTS = [lift_unitary_expansion, lift_unitary_permanent, lift_hamiltonian]

    @pytest.mark.parametrize("lift", LIFTS)
    def test_whole_numbers_lift_alike_with_cold_and_warm_tables(self, lift):
        _clear_plans()
        cold = lift(balanced_beam_splitter(), 2.0)
        warm = lift(balanced_beam_splitter(), 2.0)
        exact = lift(balanced_beam_splitter(), np.int64(2))
        for lifted in (cold, warm, exact):
            assert type(lifted.basis.photons) is int
            assert lifted.basis.photons == 2
            assert np.array_equal(lifted.matrix, exact.matrix)

    @pytest.mark.parametrize("lift", LIFTS)
    @pytest.mark.parametrize("photons", [True, np.bool_(True), 1.5, -1, "2"])
    def test_rejects_booleans_fractions_and_negatives(self, lift, photons):
        _clear_plans()
        with pytest.raises(ValueError):
            lift(balanced_beam_splitter(), photons)
        lift(balanced_beam_splitter(), 1)
        with pytest.raises(ValueError):
            lift(balanced_beam_splitter(), photons)
        assert type(ladder_table(2, 1).basis.photons) is int
        assert type(_glynn_plan(2, 1).basis.photons) is int


class TestLiftUnitaryPermanent:
    def test_beam_splitter_matches_expansion(self):
        direct = lift_unitary_expansion(balanced_beam_splitter(), 2)
        viaper = lift_unitary_permanent(balanced_beam_splitter(), 2)
        assert frobenius_norm(direct.matrix - viaper.matrix) <= 1e-10

    def test_identity_three_photons(self):
        lifted = lift_unitary_permanent(np.eye(2), 3)
        assert np.allclose(lifted.matrix, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize(
        "modes,photons",
        [
            (3, 2),
            (2, 10),
            (3, 6),
            (4, 4),
            (5, 3),
            (6, 3),
            (2, 15),
            (2, 20),
            (3, 10),
            (6, 5),
            (8, 4),
        ],
    )
    def test_agrees_with_expansion_on_random_unitary(self, modes, photons):
        rng = np.random.default_rng(31)
        scattering = random_unitary(modes, rng)
        direct = lift_unitary_expansion(scattering, photons)
        viaper = lift_unitary_permanent(scattering, photons)
        assert frobenius_norm(direct.matrix - viaper.matrix) <= 1e-10

    def test_zero_photons(self):
        lifted = lift_unitary_permanent(np.eye(3), 0)
        assert np.array_equal(lifted.matrix, np.eye(1))

    @pytest.mark.parametrize("modes,photons", [(3, 4), (2, 6), (4, 3)])
    def test_entries_are_scalar_permanents_of_any_matrix(self, modes, photons):
        # A non-unitary S: agreement with the expansion lift on unitaries
        # alone would not show that the entries are permanents.
        rng = np.random.default_rng(32)
        shape = (modes, modes)
        scattering = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        lifted = lift_unitary_permanent(scattering, photons)
        states = lifted.basis.states
        for row, p in enumerate(states):
            for column, q in enumerate(states):
                block = scattering[
                    np.ix_(
                        np.repeat(np.arange(modes), p), np.repeat(np.arange(modes), q)
                    )
                ]
                norm = math.sqrt(math.prod(math.factorial(count) for count in p + q))
                assert lifted.matrix[row, column] * norm == pytest.approx(
                    permanent(block), rel=1e-12, abs=0
                )

    @pytest.mark.parametrize("modes,photons", [(2, 4), (3, 4), (4, 3), (5, 2)])
    def test_permutation_and_diagonal_agree_with_expansion(self, modes, photons):
        # Permutation lifts are exact on both routes. A diagonal lift entry is
        # a product of n unit phases, rounded differently on each route, so
        # the gap grows with n (2.4e-15 at n = 8); 1e-15 holds for n <= 4.
        rng = np.random.default_rng(33)
        permutation = np.eye(modes)[rng.permutation(modes)]
        phases = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, modes)))
        for scattering in (permutation, phases):
            direct = lift_unitary_expansion(scattering, photons)
            viaper = lift_unitary_permanent(scattering, photons)
            assert np.max(np.abs(direct.matrix - viaper.matrix)) <= 1e-15

    @pytest.mark.parametrize("modes,photons", [(5, 5), (3, 6)])
    def test_permutation_lifts_are_bit_equal_on_both_routes(self, modes, photons):
        # (5, 5) takes several passes of the blocked evaluation, (3, 6) one.
        rng = np.random.default_rng(33)
        permutation = np.eye(modes)[rng.permutation(modes)]
        direct = lift_unitary_expansion(permutation, photons)
        viaper = lift_unitary_permanent(permutation, photons)
        assert np.array_equal(direct.matrix, viaper.matrix)

    # The first three take one pass, the last two several.
    @pytest.mark.parametrize("modes,photons", [(2, 10), (3, 7), (4, 4), (5, 5), (8, 5)])
    def test_work_block_matches_the_pass_loop_byte_for_byte(self, modes, photons):
        assert (len(_glynn_plan(modes, photons).passes) > 1) == (modes >= 5)
        rng = np.random.default_rng([37, modes, photons])
        permutation = np.eye(modes)[rng.permutation(modes)] * rng.choice([-1, 1], modes)
        phases = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, modes)))
        for scattering in (random_unitary(modes, rng), permutation, phases):
            assert_bit_identical(
                lift_unitary_permanent(scattering, photons).matrix,
                lift_permanent_by_passes(scattering, photons),
            )

    def test_peak_memory_is_one_matrix_plus_a_block(self):
        # An unblocked pass over all columns would hold 7e6 complex products
        # here, about 11 times the M x M lift.
        scattering = random_unitary(8, np.random.default_rng(34))
        tracemalloc.start()
        try:
            lifted = lift_unitary_permanent(scattering, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lifted.basis) == 792
        assert peak <= 3 * lifted.matrix.nbytes

    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_expansion_property(self, modes, photons, seed):
        scattering = random_unitary(modes, np.random.default_rng(seed))
        direct = lift_unitary_expansion(scattering, photons)
        viaper = lift_unitary_permanent(scattering, photons)
        assert frobenius_norm(direct.matrix - viaper.matrix) <= 1e-10

    def test_refuses_more_photons_than_the_size_limit(self):
        with pytest.raises(ValueError, match=f"{PERMANENT_SIZE_LIMIT} photons"):
            lift_unitary_permanent(np.eye(1), PERMANENT_SIZE_LIMIT + 1)


def spy_on_builds(monkeypatch, module):
    """Record the (modes, photons) of every ``enumerate_basis`` call ``module`` makes."""
    builds = []
    build = module.enumerate_basis

    def spy(modes, photons):
        builds.append((modes, photons))
        return build(modes, photons)

    monkeypatch.setattr(module, "enumerate_basis", spy)
    return builds


def lifts_and_reports(modes, photons, seed):
    """Every lift of one seeded network, as bytes, and its diagram report."""
    rng = np.random.default_rng(seed)
    scattering, h_single = random_unitary(modes, rng), random_hermitian(modes, rng)
    results = [
        lift_unitary_expansion(scattering, photons).matrix.tobytes(),
        lift_hamiltonian(h_single, photons).matrix.tobytes(),
        asdict(check_diagram(h_single, photons)),
    ]
    if photons <= 8:
        results.append(lift_unitary_permanent(scattering, photons).matrix.tobytes())
    return results


def plan_arrays(plan):
    """Every array of a stored plan, through its tuples and dataclasses."""
    if isinstance(plan, np.ndarray):
        return [plan]
    if isinstance(plan, tuple):
        return [array for part in plan for array in plan_arrays(part)]
    if dataclasses.is_dataclass(plan):
        return plan_arrays(tuple(getattr(plan, field.name) for field in dataclasses.fields(plan)))
    return []


def held_bytes():
    """Bytes the plan store counts, checked against its entries."""
    held = sum(size for _, size in fock_module._plans.values())
    assert fock_module._plans_held == held
    return held


class TestGlynnPlanCache:
    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @example(5, 5, 35)  # several passes
    @settings(max_examples=40, deadline=None)
    def test_cold_and_warm_lifts_are_bit_equal(self, modes, photons, seed):
        scattering = random_unitary(modes, np.random.default_rng(seed))
        _clear_plans()
        cold = lift_unitary_permanent(scattering, photons)
        warm = lift_unitary_permanent(scattering, photons)
        assert np.array_equal(cold.matrix, warm.matrix)

    def test_plan_is_read_only_and_shared_by_lifts_of_one_size(self):
        _clear_plans()
        first = lift_unitary_permanent(random_unitary(4, np.random.default_rng(36)), 4)
        second = lift_unitary_permanent(np.eye(4), 4)
        assert first.basis is second.basis
        plan = _glynn_plan(4, 4)
        assert plan.basis is first.basis
        arrays = [plan.counts, plan.weights, plan.factorials]
        arrays += [starts for _, _, starts in plan.passes]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_repeated_size_hits_the_cache(self, monkeypatch):
        _clear_plans()
        builds = spy_on_builds(monkeypatch, lift_module)
        lift_unitary_permanent(np.eye(3), 3)
        lift_unitary_permanent(balanced_beam_splitter() * 1j, 3)
        lift_unitary_permanent(np.eye(3), 3)
        assert builds == [(3, 3), (2, 3)]

    def test_refused_calls_cache_nothing(self):
        _clear_plans()
        with pytest.raises(ValueError, match=f"{PERMANENT_SIZE_LIMIT} photons"):
            lift_unitary_permanent(np.eye(1), PERMANENT_SIZE_LIMIT + 1)
        with pytest.raises(ValueError, match="mode counts"):
            lift_unitary_permanent(np.zeros((0, 0)), 2)
        assert not fock_module._plans

    def test_cold_peak_memory_and_retained_plan(self):
        # The plan built by a cold call stays in the store; it holds the
        # 8832 sign-count vectors of (8, 5), far less than one lift.
        scattering = random_unitary(8, np.random.default_rng(34))
        _clear_plans()
        tracemalloc.start()
        try:
            lifted = lift_unitary_permanent(scattering, 5)
            _, peak = tracemalloc.get_traced_memory()
            matrix_bytes = lifted.matrix.nbytes
            del lifted
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix_bytes == 16 * 792**2
        assert peak <= 3 * matrix_bytes
        assert retained <= 0.1 * matrix_bytes


class TestPlanStore:
    """One store keeps every per-size plan, bounded by the bytes it holds."""

    # Mixed sizes, two of them repeated; only (2, 30) skips the permanent lift.
    JOBS = [
        (modes, photons, seed)
        for seed, (modes, photons) in enumerate(
            [(1, 3), (2, 0), (2, 6), (3, 3), (4, 2), (2, 30), (5, 3), (3, 3), (2, 6), (4, 4)]
        )
    ]

    @pytest.mark.parametrize("photons", [65, 300])
    def test_second_lift_above_64_photons_builds_no_table(self, monkeypatch, photons):
        scattering = random_unitary(2, np.random.default_rng(photons))
        _clear_plans()
        first = lift_unitary_expansion(scattering, photons)
        builds = spy_on_builds(monkeypatch, fock_module)
        second = lift_unitary_expansion(scattering, photons)
        assert builds == []
        assert second.matrix.tobytes() == first.matrix.tobytes()

    def test_one_walk_plan_per_level(self):
        # Level 3 of a full (10, 3) walk scatters, and one input's column
        # merges it: both read the one plan of that level.
        others = {
            fock_module._ladder_table.__wrapped__,
            lift_module._glynn_plan.__wrapped__,
            lift_module._one_move_plan.__wrapped__,
            verify_module._near_pairs.__wrapped__,
        }
        _clear_plans()
        rng = np.random.default_rng(10)
        check_diagram(random_hermitian(10, rng), 3)
        transition_distribution(random_unitary(10, rng), (1, 0, 0, 2, 0, 0, 0, 0, 0, 0))
        walk = {key for key in fock_module._plans if key[0] not in others}
        slot_rows = lift_module._slot_rows.__wrapped__
        assert walk == {(slot_rows, 10, 2), (slot_rows, 10, 3)}

    def test_small_budget_evicts_and_changes_no_result(self, monkeypatch):
        _clear_plans()
        kept = [lifts_and_reports(*job) for job in self.JOBS]
        budget = 2**14
        assert max(size for _, size in fock_module._plans.values()) <= budget < held_bytes()
        monkeypatch.setattr(fock_module, "_PLAN_BUDGET", budget)
        _clear_plans()
        builds = spy_on_builds(monkeypatch, fock_module)
        for job, results in zip(self.JOBS, kept):
            assert lifts_and_reports(*job) == results
            assert held_bytes() <= budget
        # The repeated sizes were evicted in between and built again.
        assert len(builds) > len(set(builds))

    def test_no_two_stored_plans_share_an_array_buffer(self):
        # Shared buffers would be counted twice and freed by neither eviction.
        _clear_plans()
        for job in self.JOBS:
            lifts_and_reports(*job)
        for modes, photons in [(3, 3), (5, 4), (1, 2)]:
            run_sweep(modes, photons, 2, seed=modes)
        transition_distribution(random_unitary(6, np.random.default_rng(6)), (2, 0, 1, 0, 0, 3))
        keys = list(fock_module._plans)
        assert lift_module._slot_rows.__wrapped__ in {key[0] for key in keys}
        entries = [plan_arrays(plan) for plan, _ in fock_module._plans.values()]
        for index, arrays in enumerate(entries):
            for later, others in zip(keys[index + 1 :], entries[index + 1 :]):
                for array in arrays:
                    for other in others:
                        assert not np.shares_memory(array, other), (keys[index], later)

    def test_plan_larger_than_the_budget_is_kept_alone(self, monkeypatch):
        _clear_plans()
        large = fock_module._plan_bytes(ladder_table(3, 4))
        monkeypatch.setattr(fock_module, "_PLAN_BUDGET", large - 1)
        _clear_plans()
        for photons in range(3):
            ladder_table(2, photons)
        table = ladder_table(3, 4)
        assert list(fock_module._plans) == [(_ladder_table.__wrapped__, 3, 4)]
        assert held_bytes() == large
        assert ladder_table(3, 4) is table
        ladder_table(2, 1)
        assert list(fock_module._plans) == [(_ladder_table.__wrapped__, 2, 1)]

    def test_build_that_raises_stores_nothing(self, monkeypatch):
        _clear_plans()

        def fail(modes, photons):
            raise MemoryError("no room for the basis")

        monkeypatch.setattr(fock_module, "enumerate_basis", fail)
        with pytest.raises(MemoryError):
            ladder_table(3, 2)
        monkeypatch.undo()
        assert not fock_module._plans and held_bytes() == 0
        assert ladder_table(3, 2).basis.photons == 2

    def test_threads_under_a_tiny_budget_match_serial_results(self, monkeypatch):
        _clear_plans()
        serial = [lifts_and_reports(*job) for job in self.JOBS]
        budget = 2**12
        monkeypatch.setattr(fock_module, "_PLAN_BUDGET", budget)
        _clear_plans()
        # Short switch intervals interleave the threads' store bookkeeping;
        # a lost update would leave the held bytes off the entries' sum.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                jobs = pool.map(lambda job: lifts_and_reports(*job), self.JOBS * 4, timeout=60)
                threaded = list(jobs)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4
        assert held_bytes() <= budget or len(fock_module._plans) == 1


class TestLiftHamiltonian:
    def test_golden_two_photon_values(self):
        log = unitary_logarithm(balanced_beam_splitter())
        lifted = lift_hamiltonian(log, 2)
        assert np.max(np.abs(lifted.matrix[BUNCHED] - GOLDEN_TWO_PHOTON_LOG)) < 1e-4

    def test_zero_matrix(self):
        lifted = lift_hamiltonian(np.zeros((3, 3)), 2)
        assert np.array_equal(lifted.matrix, np.zeros((6, 6)))

    def test_matches_closed_form_pattern(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            h_single = random_hermitian(2, rng)
            lifted = lift_hamiltonian(h_single, 2)
            expected = two_photon_hamiltonian_closed_form(h_single)
            assert np.max(np.abs(lifted.matrix[BUNCHED] - expected)) <= 1e-12

    def test_number_operator_case(self):
        omega = (0.3, 1.9)
        lifted = lift_hamiltonian(np.diag(omega), 3)
        expected = np.diag(
            [
                sum(count * omega[mode] for mode, count in enumerate(state))
                for state in lifted.basis
            ]
        )
        assert np.allclose(lifted.matrix, expected, atol=1e-15)

    def test_is_conjugate_symmetric_by_construction(self):
        rng = np.random.default_rng(42)
        for modes, photons in [(2, 2), (3, 3), (4, 2)]:
            lifted = lift_hamiltonian(random_hermitian(modes, rng), photons)
            assert frobenius_norm(lifted.matrix - lifted.matrix.conj().T) <= 1e-12

    def test_far_entries_are_exactly_zero(self):
        rng = np.random.default_rng(43)
        lifted = lift_hamiltonian(random_hermitian(3, rng), 3)
        states = lifted.basis.states
        for row, p in enumerate(states):
            for column, q in enumerate(states):
                if photon_move_relation(p, q).kind is MoveKind.FAR:
                    assert lifted.matrix[row, column] == 0

    def test_linearity(self):
        rng = np.random.default_rng(44)
        first = random_hermitian(3, rng)
        second = random_hermitian(3, rng)
        a, b = 0.6, -2.3
        combined = lift_hamiltonian(a * first + b * second, 2).matrix
        separate = (
            a * lift_hamiltonian(first, 2).matrix
            + b * lift_hamiltonian(second, 2).matrix
        )
        assert np.max(np.abs(combined - separate)) <= 1e-13

    def test_commutator_is_preserved(self):
        # The lift respects commutators: for Hermitian inputs,
        # lift(i[H1, H2]) = i[lift(H1), lift(H2)].
        rng = np.random.default_rng(45)
        for modes, photons in [(2, 2), (3, 2), (2, 3)]:
            first = random_hermitian(modes, rng)
            second = random_hermitian(modes, rng)
            bracket = 1j * (first @ second - second @ first)
            lifted_bracket = lift_hamiltonian(bracket, photons).matrix
            lifted_first = lift_hamiltonian(first, photons).matrix
            lifted_second = lift_hamiltonian(second, photons).matrix
            expected = 1j * (
                lifted_first @ lifted_second - lifted_second @ lifted_first
            )
            assert frobenius_norm(lifted_bracket - expected) <= 1e-9

    def test_single_photon_is_the_input_matrix(self):
        rng = np.random.default_rng(46)
        h_single = random_hermitian(5, rng)
        lifted = lift_hamiltonian(h_single, 1)
        assert np.array_equal(lifted.matrix, h_single)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            lift_hamiltonian([[0, 1], [0, 0]], 2)

    def test_nan_tol_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="tolerance must be a number, got nan"):
            lift_hamiltonian([[0, 1], [0, 0]], 2, tol=math.nan)

    def test_one_move_plan_is_read_only_and_shared(self):
        _clear_plans()
        first = lift_hamiltonian(random_hermitian(4, np.random.default_rng(47)), 3)
        stored = fock_module._plans[(lift_module._one_move_plan.__wrapped__, 4, 3)]
        plan = lift_module._one_move_plan(4, 3)
        assert plan is stored[0]
        second = lift_hamiltonian(np.diag([1.0, 2, 3, 4]), 3)
        assert lift_module._one_move_plan(4, 3) is plan
        assert np.count_nonzero(second.matrix - np.diag(np.diag(second.matrix))) == 0
        assert np.count_nonzero(first.matrix.reshape(-1)[plan[0]]) == plan[0].size
        for array in plan:
            assert not array.flags.writeable

    @pytest.mark.parametrize("h_single", [np.eye(2), np.zeros((3, 3)), GOLDEN_COUPLER_LOG])
    def test_nan_tol_on_exactly_hermitian_input_names_the_tolerance(self, h_single):
        with pytest.raises(ValueError, match="tolerance must be a number, got nan") as raised:
            lift_hamiltonian(h_single, 2, tol=math.nan)
        assert not isinstance(raised.value, NotHermitianError)

    def test_negative_tol_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            lift_hamiltonian(np.eye(2), 2, tol=-1e-9)

    def test_converts_and_checks_its_input_once(self, monkeypatch):
        calls = []
        as_square = matfuncs_module._as_square

        def counting(matrix):
            calls.append(1)
            return as_square(matrix)

        monkeypatch.setattr(lift_module, "_as_square", counting)
        monkeypatch.setattr(matfuncs_module, "_as_square", counting)
        lift_hamiltonian(random_hermitian(3, np.random.default_rng(52)), 2)
        assert len(calls) == 1


def network_with_phase_reach(modes, photons, reach, seed):
    """A scattering matrix whose eigenphases reach n * max|phi| = reach * pi."""
    rng = np.random.default_rng(seed)
    _, basis = np.linalg.eigh(random_hermitian(modes, rng))
    phases = rng.uniform(-1, 1, modes)
    phases *= reach * math.pi / (photons * np.abs(phases).max())
    return matrix_exponential(1j * (basis * phases) @ basis.conj().T)


class TestLogOfLift:
    @pytest.mark.parametrize("modes,photons", [(3, 2), (4, 3), (5, 2)])
    def test_log_of_lift_is_lift_of_log_inside_the_branch(self, modes, photons):
        scattering = network_with_phase_reach(modes, photons, 0.9, 10 * modes + photons)
        lifted = lift_unitary_expansion(scattering, photons).matrix
        log_of_lift = unitary_logarithm(lifted)
        lift_of_log = lift_hamiltonian(unitary_logarithm(scattering), photons).matrix
        assert frobenius_norm(log_of_lift - lift_of_log) <= 1e-12

    @pytest.mark.parametrize("reach", [1.1, 3.3])
    def test_they_differ_once_lifted_phases_wrap(self, reach):
        scattering = network_with_phase_reach(3, 4, reach, 34)
        log_of_lift = unitary_logarithm(lift_unitary_expansion(scattering, 4).matrix)
        lift_of_log = lift_hamiltonian(unitary_logarithm(scattering), 4).matrix
        assert frobenius_norm(log_of_lift - lift_of_log) > 1


class TestHamiltonianElement:
    def test_one_move_golden(self):
        value = hamiltonian_element(GOLDEN_COUPLER_LOG, (2, 0), (1, 1))
        assert value == pytest.approx(-1.57080, abs=1e-4)

    def test_far_pair_is_zero(self):
        h_single = np.diag([1.0, 2.0, 3.0])
        assert hamiltonian_element(h_single, (2, 0, 0), (0, 2, 0)) == 0

    def test_diagonal_golden(self):
        value = hamiltonian_element(GOLDEN_COUPLER_LOG, (1, 1), (1, 1))
        assert value == pytest.approx(3.14160, abs=1e-4)

    @pytest.mark.parametrize(
        "modes,photons", [(3, 2), (1, 3), (3, 0), (2, 4), (4, 3), (5, 2)]
    )
    def test_matches_full_matrix(self, modes, photons):
        rng = np.random.default_rng(51)
        h_single = random_hermitian(modes, rng)
        lifted = lift_hamiltonian(h_single, photons)
        states = lifted.basis.states
        for row, p in enumerate(states):
            for column, q in enumerate(states):
                assert hamiltonian_element(h_single, p, q) == lifted.matrix[row, column]

    @pytest.mark.parametrize("modes,photons", [(4, 3), (5, 4), (6, 3), (8, 3)])
    def test_diagonal_sums_the_modes_in_order(self, modes, photons):
        # Three or more occupied modes of four or more: a pairwise sum of the
        # modes differs from the ordered one in the last bit for some H.
        rng = np.random.default_rng([52, modes])
        for _ in range(8):
            h_single = random_hermitian(modes, rng)
            lifted = lift_hamiltonian(h_single, photons)
            for index, state in enumerate(lifted.basis):
                expected = hamiltonian_element(h_single, state, state)
                assert lifted.matrix[index, index] == expected

    def test_rejects_incompatible_states(self):
        with pytest.raises(ValueError):
            hamiltonian_element(GOLDEN_COUPLER_LOG, (1, 0), (1, 1))
        with pytest.raises(ValueError):
            hamiltonian_element(GOLDEN_COUPLER_LOG, (1, 0, 1), (1, 1, 0))


class TestGlobalPhaseLift:
    def test_half_pi_doubles_to_pi(self):
        assert global_phase_lift(math.pi / 2, 2) == pytest.approx(math.pi)

    def test_zero_phase(self):
        assert global_phase_lift(0.0, 5) == 0.0

    def test_full_turn_reduces_to_zero(self):
        assert global_phase_lift(math.pi, 2) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("photons", [2.5, True, -1])
    def test_rejects_booleans_fractions_and_negatives(self, photons):
        with pytest.raises(ValueError):
            global_phase_lift(1.0, photons)

    @pytest.mark.parametrize("photons", [2.0, np.int64(2)])
    def test_whole_number_types_match_int(self, photons):
        assert global_phase_lift(1.0, photons) == global_phase_lift(1.0, 2)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phases(self, phase):
        with pytest.raises(ValueError, match=f"^phase must be finite, got {phase}$"):
            global_phase_lift(phase, 2)

    def test_result_lies_in_principal_interval(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            phase = rng.uniform(-10, 10)
            photons = int(rng.integers(0, 6))
            lifted = global_phase_lift(phase, photons)
            assert -math.pi < lifted <= math.pi
            # Same point on the circle as the unreduced product.
            assert cmath.exp(1j * lifted) == pytest.approx(
                cmath.exp(1j * photons * phase), abs=1e-9
            )


class TestHomomorphismAndDiagram:
    def test_product_of_lifts_smoke(self):
        rng = np.random.default_rng(71)
        for modes, photons in [(2, 2), (3, 3), (4, 2)]:
            first = random_unitary(modes, rng)
            second = random_unitary(modes, rng)
            combined = lift_unitary_expansion(second @ first, photons).matrix
            separate = (
                lift_unitary_expansion(second, photons).matrix
                @ lift_unitary_expansion(first, photons).matrix
            )
            assert frobenius_norm(combined - separate) <= 1e-9

    def test_exponential_commutes_with_lift_smoke(self):
        rng = np.random.default_rng(72)
        for modes, photons in [(2, 2), (3, 2), (4, 3)]:
            h_single = random_hermitian(modes, rng)
            group_route = lift_unitary_expansion(
                matrix_exponential(1j * h_single), photons
            ).matrix
            algebra_route = matrix_exponential(
                1j * lift_hamiltonian(h_single, photons).matrix
            )
            assert frobenius_norm(group_route - algebra_route) <= 1e-8

    def test_global_phase_smoke(self):
        rng = np.random.default_rng(73)
        scattering = random_unitary(3, rng)
        phase = 1.234
        plain = lift_unitary_expansion(scattering, 2).matrix
        shifted = lift_unitary_expansion(np.exp(1j * phase) * scattering, 2).matrix
        assert frobenius_norm(shifted - np.exp(2j * phase) * plain) <= 1e-10


class TestTransitionDistribution:
    def test_identity_keeps_the_input_state(self):
        distribution = transition_distribution(np.eye(2), (1, 1))
        assert distribution[(1, 1)] == pytest.approx(1.0)
        assert distribution[(2, 0)] == 0.0
        assert distribution[(0, 2)] == 0.0

    def test_beam_splitter_bunches_photon_pairs(self):
        distribution = transition_distribution(balanced_beam_splitter(), (1, 1))
        assert distribution[(1, 1)] <= 1e-12
        assert distribution[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert distribution[(0, 2)] == pytest.approx(0.5, abs=1e-12)
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("modes,photons", [(4, 3), (6, 3)])
    def test_matches_columns_of_the_full_lift(self, modes, photons):
        scattering = random_unitary(modes, np.random.default_rng(101))
        lifted = lift_unitary_expansion(scattering, photons)
        for column, state in enumerate(lifted.basis):
            distribution = transition_distribution(scattering, state)
            assert list(distribution) == list(lifted.basis.states)
            expected = np.abs(lifted.matrix[:, column]) ** 2
            probabilities = list(distribution.values())
            assert np.allclose(probabilities, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("counts", [(1.5, 0.5), (True, 0), (1, np.bool_(True))])
    def test_rejects_fractional_and_boolean_counts(self, counts):
        with pytest.raises(ValueError):
            transition_distribution(balanced_beam_splitter(), counts)

    @pytest.mark.parametrize("counts", [(1, 1, 1), ()])
    def test_rejects_states_of_the_wrong_length(self, counts):
        with pytest.raises(ValueError, match="does not belong to the basis with modes=2"):
            transition_distribution(balanced_beam_splitter(), counts)

    @pytest.mark.parametrize("counts", [(40,), (400,)])
    def test_wrong_length_is_refused_before_the_basis_is_built(self, counts):
        # Ten modes hold C(49, 40) states of 40 photons, 168 GiB as a basis,
        # and more states of 400 photons than numpy can index.
        scattering = random_unitary(10, np.random.default_rng(1))
        message = (
            rf"^state \({counts[0]},\) does not belong to the basis with "
            rf"modes=10, photons={counts[0]}$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                transition_distribution(scattering, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize(
        "state",
        [(1, 1), (1, 1, 1, 1, 1), (20, 20), (30, 30), (8, 8, 8), (3, 0, 2, 1)],
    )
    def test_marginals_match_the_exact_mode_counts(self, state):
        scattering = random_unitary(len(state), np.random.default_rng(5))
        distribution = transition_distribution(scattering, state)
        for mode in range(len(state)):
            exact = mode_count_distribution(scattering, state, mode)
            assert sum(exact) == 1 and min(exact) >= 0
            marginal = [0.0] * len(exact)
            for output, probability in distribution.items():
                marginal[output[mode]] += probability
            gap = max(abs(float(p) - q) for p, q in zip(exact, marginal))
            assert gap <= 1e-11, (mode, gap)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the expansion walk's rounding grows with the "
        "photons piled into few modes; at (75, 75) a marginal is 7.8e-4 off",
    )
    def test_marginal_matches_the_exact_mode_counts_at_high_occupancy(self):
        state = (75, 75)
        scattering = random_unitary(2, np.random.default_rng(5))
        exact = mode_count_distribution(scattering, state, 0)
        marginal = [0.0] * len(exact)
        for output, probability in transition_distribution(scattering, state).items():
            marginal[output[0]] += probability
        assert max(abs(float(p) - q) for p, q in zip(exact, marginal)) <= 1e-11

    def test_vacuum_stays_put(self):
        scattering = random_unitary(3, np.random.default_rng(102))
        assert transition_distribution(scattering, (0, 0, 0)) == {(0, 0, 0): 1.0}

    def test_stored_basis_keeps_no_state_tuples(self):
        scattering = random_unitary(3, np.random.default_rng(103))
        distribution = transition_distribution(scattering, (1, 0, 2))
        basis = ladder_table(3, 3).basis
        assert "states" not in vars(basis)
        assert list(distribution) == list(basis.states)

    def test_accepts_whole_number_types(self):
        expected = transition_distribution(balanced_beam_splitter(), (1, 1))
        for counts in [(1.0, 1.0), (np.int64(1), np.int64(1)), np.array([1, 1])]:
            assert transition_distribution(balanced_beam_splitter(), counts) == expected
