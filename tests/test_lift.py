import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlift.fock import MoveKind, ladder_table, photon_move_relation
from photonlift.lift import (
    _lift_columns,
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
from photonlift.verify import random_hermitian, random_unitary

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


class TestLiftColumns:
    @pytest.mark.parametrize("modes,photons", [(4, 3), (5, 2), (2, 6)])
    def test_column_subsets_match_the_full_lift_exactly(self, modes, photons):
        rng = np.random.default_rng(83)
        scattering = random_unitary(modes, rng)
        full = _lift_columns(scattering, photons)
        assert np.array_equal(full, lift_unitary_expansion(scattering, photons).matrix)
        size = full.shape[1]
        for count in (1, 2, size // 2, size):
            columns = rng.choice(size, size=count, replace=False)
            assert np.array_equal(
                _lift_columns(scattering, photons, columns), full[:, columns]
            )


class TestPhotonNumber:
    LIFTS = [lift_unitary_expansion, lift_unitary_permanent, lift_hamiltonian]

    @pytest.mark.parametrize("lift", LIFTS)
    def test_whole_numbers_lift_alike_with_cold_and_warm_tables(self, lift):
        ladder_table.cache_clear()
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
        ladder_table.cache_clear()
        with pytest.raises(ValueError):
            lift(balanced_beam_splitter(), photons)
        lift(balanced_beam_splitter(), 1)
        with pytest.raises(ValueError):
            lift(balanced_beam_splitter(), photons)
        assert type(ladder_table(2, 1).basis.photons) is int


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
        [(3, 2), (2, 10), (3, 6), (4, 4), (5, 3), (6, 3), (2, 15), (2, 20), (3, 10)],
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

    def test_accepts_whole_number_types(self):
        expected = transition_distribution(balanced_beam_splitter(), (1, 1))
        for counts in [(1.0, 1.0), (np.int64(1), np.int64(1)), np.array([1, 1])]:
            assert transition_distribution(balanced_beam_splitter(), counts) == expected
