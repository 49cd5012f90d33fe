import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonlift.fock as fock_module
from photonlift.fock import (
    MoveKind,
    _clear_plans,
    _ladder_table,
    apply_annihilation,
    apply_creation,
    bunched_first_order,
    dimension,
    enumerate_basis,
    ladder_table,
    photon_move_relation,
)
from reference import rank_occupations


def exhaustive_states(modes, photons):
    """Oracle: scan every tuple with entries 0..photons and keep the right sums."""
    return [
        state
        for state in itertools.product(range(photons + 1), repeat=modes)
        if sum(state) == photons
    ]


class TestDimension:
    def test_two_modes_two_photons(self):
        assert dimension(2, 2) == 3

    def test_single_mode(self):
        assert dimension(1, 5) == 1

    def test_four_modes_three_photons_matches_exhaustive_count(self):
        assert len(exhaustive_states(4, 3)) == 20
        assert dimension(4, 3) == 20

    @pytest.mark.parametrize("modes,photons", [(1, 0), (2, 3), (3, 2), (5, 4), (6, 1)])
    def test_matches_exhaustive_count(self, modes, photons):
        assert dimension(modes, photons) == len(exhaustive_states(modes, photons))

    def test_zero_photons(self):
        assert dimension(7, 0) == 1

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            dimension(0, 2)

    def test_rejects_negative_photons(self):
        with pytest.raises(ValueError):
            dimension(2, -1)

    def test_overflow_is_reported(self):
        # C(119, 60) is about 5e34, far past 64-bit indexing.
        with pytest.raises(OverflowError):
            dimension(60, 60)


class TestEnumerateBasis:
    def test_two_modes_two_photons_order(self):
        assert enumerate_basis(2, 2).states == ((2, 0), (1, 1), (0, 2))

    def test_single_photon_is_mode_basis(self):
        assert enumerate_basis(3, 1).states == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_three_modes_two_photons(self):
        basis = enumerate_basis(3, 2)
        assert len(basis) == 6
        assert all(sum(state) == 2 for state in basis)
        assert set(basis.states) == set(exhaustive_states(3, 2))

    def test_zero_photons_gives_vacuum(self):
        basis = enumerate_basis(4, 0)
        assert basis.states == ((0, 0, 0, 0),)
        assert basis.index_of((0, 0, 0, 0)) == 0

    def test_order_is_reverse_lexicographic(self):
        states = enumerate_basis(4, 3).states
        assert list(states) == sorted(states, reverse=True)

    @pytest.mark.parametrize(
        "modes,photons",
        [(m, n) for m in range(1, 7) for n in range(0, 7) if dimension(m, n) <= 10_000]
        + [(2, 50), (12, 4), (2, 1000), (1, 7)],
    )
    def test_invariants_bulk(self, modes, photons):
        basis = enumerate_basis(modes, photons)
        assert len(basis) == dimension(modes, photons)
        occupations = basis.occupations
        assert occupations.dtype == np.intp
        assert occupations.shape == (len(basis), modes)
        assert not occupations.flags.writeable
        assert occupations.tolist() == [list(state) for state in basis.states]
        assert all(type(count) is int for count in basis[-1])
        assert len(set(basis.states)) == len(basis)
        assert all(len(state) == modes for state in basis)
        assert all(sum(state) == photons for state in basis)
        assert all(basis.index_of(state) == k for k, state in enumerate(basis))
        assert tuple(basis) == basis.states
        assert [basis[k] for k in range(len(basis))] == list(basis.states)
        # The tuples are read off the occupations on each use, never kept.
        assert "states" not in vars(basis)

    def test_photon_count_rule(self):
        assert enumerate_basis(2, 2.0).photons == 2
        assert type(enumerate_basis(2, 2.0).photons) is int
        for bad in (True, 1.5, -1):
            with pytest.raises(ValueError):
                enumerate_basis(2, bad)

    def test_mode_count_rule(self):
        basis = enumerate_basis(2.0, 1)
        assert type(basis.modes) is int
        assert basis.modes == 2
        assert basis.occupations.shape == (2, 2)
        for bad in (True, np.bool_(True), 2.5, 0, -1, "2"):
            with pytest.raises(ValueError):
                enumerate_basis(bad, 1)
            with pytest.raises(ValueError):
                dimension(bad, 1)
        assert dimension(2.0, 2) == 3

    def test_index_of_rejects_foreign_states(self):
        basis = enumerate_basis(3, 2)
        with pytest.raises(ValueError):
            basis.index_of((1, 1))
        with pytest.raises(ValueError):
            basis.index_of((1, 1, 1))
        with pytest.raises(ValueError):
            basis.index_of((3, 0, -1))

    def test_index_of_follows_the_whole_number_rule(self):
        basis = enumerate_basis(2, 2)
        assert basis.index_of((2.0, 0.0)) == 0
        assert type(basis.index_of((2.0, 0.0))) is int
        with pytest.raises(ValueError):
            basis.index_of((1.5, 0.5))
        with pytest.raises(ValueError):
            basis.index_of((True, True))


class TestLadderOperators:
    def test_creation_on_occupied_mode(self):
        result = apply_creation((1, 1), 0)
        assert result.state == (2, 1)
        assert result.coefficient == pytest.approx(math.sqrt(2))

    def test_creation_on_vacuum_mode(self):
        result = apply_creation((0, 0), 1)
        assert result.state == (0, 1)
        assert result.coefficient == 1.0

    def test_creation_three_modes(self):
        result = apply_creation((2, 0, 1), 2)
        assert result.state == (2, 0, 2)
        assert result.coefficient == pytest.approx(math.sqrt(2))

    def test_annihilation_on_occupied_mode(self):
        result = apply_annihilation((2, 0), 0)
        assert result.state == (1, 0)
        assert result.coefficient == pytest.approx(math.sqrt(2))

    def test_annihilation_on_empty_mode_vanishes(self):
        result = apply_annihilation((2, 0), 1)
        assert result.coefficient == 0.0
        assert result.state is None

    def test_annihilation_three_modes(self):
        result = apply_annihilation((1, 1, 1), 1)
        assert result.state == (1, 0, 1)
        assert result.coefficient == 1.0

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_mode_out_of_range(self, mode):
        with pytest.raises(ValueError):
            apply_creation((1, 0), mode)
        with pytest.raises(ValueError):
            apply_annihilation((1, 0), mode)


class TestPhotonMoveRelation:
    def test_one_move(self):
        relation = photon_move_relation((2, 0), (1, 1))
        assert relation.kind is MoveKind.ONE_MOVE
        assert relation.target == 0
        assert relation.source == 1

    def test_identical(self):
        assert photon_move_relation((1, 1), (1, 1)).kind is MoveKind.IDENTICAL

    def test_far(self):
        assert photon_move_relation((2, 0, 0), (0, 2, 0)).kind is MoveKind.FAR

    def test_two_photons_same_pair_is_far(self):
        assert photon_move_relation((2, 0), (0, 2)).kind is MoveKind.FAR

    def test_rejects_mismatched_modes(self):
        with pytest.raises(ValueError):
            photon_move_relation((1, 0), (1, 0, 0))

    def test_rejects_mismatched_totals(self):
        with pytest.raises(ValueError):
            photon_move_relation((1, 0), (1, 1))


class TestLadderTable:
    @pytest.mark.parametrize(
        "modes,photons", [(m, n) for m in range(1, 7) for n in range(0, 5)]
    )
    def test_agrees_with_per_state_ladder_operators(self, modes, photons):
        table = ladder_table(modes, photons)
        basis = table.basis
        assert basis.states == enumerate_basis(modes, photons).states
        assert table.basis.occupations.tolist() == [list(state) for state in basis]
        lower = enumerate_basis(modes, photons - 1) if photons else None
        for position, state in enumerate(basis):
            for mode in range(modes):
                lowered = apply_annihilation(state, mode)
                if lowered.state is not None:
                    assert table.up[mode, lower.index_of(lowered.state)] == position
        if lower is None:
            assert table.up.shape == table.up_coef.shape == (modes, 0)
            return
        for position, state in enumerate(lower):
            for mode in range(modes):
                raised = apply_creation(state, mode)
                assert table.up[mode, position] == basis.index_of(raised.state)
                assert table.up_coef[mode, position] == raised.coefficient

    def test_is_cached_and_read_only(self):
        table = ladder_table(3, 2)
        assert ladder_table(3, 2) is table
        assert [field.name for field in dataclasses.fields(table)] == ["basis", "up", "up_coef"]
        for array in (table.basis.occupations, table.up, table.up_coef):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize(
        "modes,photons", [(2, 30), (2, 300), (3, 40), (16, 4), (20, 5)]
    )
    def test_moves_match_the_ranking_oracle_at_size(self, modes, photons):
        # The table reads its moves off the basis order; binomial ranking
        # must find the same positions well beyond the per-state test.
        table = ladder_table(modes, photons)
        lower = enumerate_basis(modes, photons - 1).occupations
        for mode in range(modes):
            raised = lower.copy()
            raised[:, mode] += 1
            assert np.array_equal(table.up[mode], rank_occupations(raised, photons))
            assert np.array_equal(table.up_coef[mode], np.sqrt(raised[:, mode]))

    def test_cold_bool_count_raises_and_caches_nothing(self):
        _clear_plans()
        with pytest.raises(ValueError):
            ladder_table(2, True)
        assert not fock_module._plans
        assert ladder_table(2, 1).basis.photons == 1

    def test_cold_float_count_builds_an_int_basis(self):
        _clear_plans()
        table = ladder_table(2, 2.0)
        assert type(table.basis.photons) is int
        assert table.basis.photons == 2
        assert ladder_table(2, 2) is table

    def test_cold_bool_mode_count_raises_and_caches_nothing(self):
        _clear_plans()
        with pytest.raises(ValueError):
            ladder_table(True, 2)
        assert not fock_module._plans
        assert ladder_table(1, 2).basis.modes == 1

    def test_cold_float_mode_count_builds_an_int_basis(self):
        _clear_plans()
        table = ladder_table(2.0, 1)
        assert type(table.basis.modes) is int
        assert table.basis.modes == 2
        assert table.up.shape == (2, 1)
        with pytest.raises(ValueError):
            ladder_table(2.5, 1)

    def test_warm_bool_mode_count_raises(self):
        _clear_plans()
        ladder_table(1, 2)
        with pytest.raises(ValueError):
            ladder_table(True, 2)
        assert list(fock_module._plans) == [(_ladder_table.__wrapped__, 1, 2)]

    def test_warm_bool_photon_count_raises(self):
        _clear_plans()
        ladder_table(2, 1)
        with pytest.raises(ValueError):
            ladder_table(2, True)
        assert list(fock_module._plans) == [(_ladder_table.__wrapped__, 2, 1)]

    def test_warm_float_count_hits_the_int_entry(self, monkeypatch):
        _clear_plans()
        table = ladder_table(2, 2)
        builds = []
        monkeypatch.setattr(
            fock_module, "enumerate_basis", lambda *counts: builds.append(counts)
        )
        assert ladder_table(2, 2.0) is table
        assert ladder_table(2.0, 2) is table
        assert builds == []
        assert list(fock_module._plans) == [(_ladder_table.__wrapped__, 2, 2)]
        with pytest.raises(ValueError):
            ladder_table(2, 2.5)

    def test_build_peak_memory_is_linear_in_table_size(self):
        # No intermediate of the build may grow like modes * M * modes.
        _clear_plans()
        tracemalloc.start()
        try:
            table = ladder_table(16, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (table.basis.occupations, table.up, table.up_coef)
        assert peak <= 4 * sum(array.nbytes for array in arrays)


class TestBunchedFirstOrder:
    def test_two_modes_two_photons(self):
        assert bunched_first_order(enumerate_basis(2, 2)) == (0, 2, 1)

    def test_three_modes_two_photons(self):
        # Single-mode states (2,0,0), (0,2,0), (0,0,2) first, then the rest
        # in canonical order.
        assert bunched_first_order(enumerate_basis(3, 2)) == (0, 3, 5, 1, 2, 4)


@given(st.integers(1, 6), st.integers(0, 5))
def test_bunched_first_order_sorts_by_occupied_modes(modes, photons):
    basis = enumerate_basis(modes, photons)

    def occupied(position):
        return sum(1 for count in basis.states[position] if count)

    expected = tuple(sorted(range(len(basis)), key=lambda k: (occupied(k), k)))
    assert bunched_first_order(basis) == expected
    assert all(type(position) is int for position in bunched_first_order(basis))


@st.composite
def basis_and_state(draw):
    modes = draw(st.integers(1, 5))
    photons = draw(st.integers(0, 4))
    basis = enumerate_basis(modes, photons)
    position = draw(st.integers(0, len(basis) - 1))
    return basis, basis.states[position], position


@given(basis_and_state())
def test_index_round_trip(case):
    basis, state, position = case
    assert basis.index_of(state) == position
    assert rank_occupations([state], basis.photons).tolist() == [position]


@given(basis_and_state(), st.data())
def test_number_operator_consistency(case, data):
    _, state, _ = case
    mode = data.draw(st.integers(0, len(state) - 1))
    up = apply_creation(state, mode)
    down = apply_annihilation(up.state, mode)
    assert down.state == state
    assert down.coefficient == pytest.approx(math.sqrt(state[mode] + 1))
    assert up.coefficient * down.coefficient == pytest.approx(state[mode] + 1)


@given(basis_and_state(), st.data())
@settings(max_examples=200)
def test_move_relation_symmetry(case, data):
    basis, p, _ = case
    q = basis.states[data.draw(st.integers(0, len(basis) - 1))]
    forward = photon_move_relation(p, q)
    backward = photon_move_relation(q, p)
    assert forward.kind is backward.kind
    if forward.kind is MoveKind.ONE_MOVE:
        assert (forward.target, forward.source) == (backward.source, backward.target)


@given(basis_and_state())
def test_states_are_valid_occupations(case):
    basis, state, _ = case
    assert len(state) == basis.modes
    assert sum(state) == basis.photons
    assert all(count >= 0 for count in state)
