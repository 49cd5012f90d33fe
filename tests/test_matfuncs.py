import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlift.lift import balanced_beam_splitter
from photonlift.matfuncs import (
    PERMANENT_SIZE_LIMIT,
    NotUnitaryError,
    _exp_i_hermitian,
    frobenius_norm,
    is_hermitian,
    is_unitary,
    matrix_exponential,
    permanent,
    unitary_logarithm,
)

# Five-decimal golden values for the principal-branch logarithm of the
# balanced beam splitter.
GOLDEN_COUPLER_LOG = np.array(
    [[0.46008, -1.11072], [-1.11072, 2.68152]], dtype=complex
)


def factorial_permanent(matrix):
    """Oracle: the defining sum over all permutations."""
    matrix = np.asarray(matrix, dtype=complex)
    size = matrix.shape[0]
    total = 0j
    for sigma in itertools.permutations(range(size)):
        product = 1 + 0j
        for row, column in enumerate(sigma):
            product *= matrix[row, column]
        total += product
    return total


def random_complex(rng, size):
    return rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))


def random_skew_hermitian(rng, size):
    raw = random_complex(rng, size)
    return (raw - raw.conj().T) / 2


def schur_logarithm(unitary):
    """Reference: principal log from the complex Schur form, same branch rule."""
    triangular, vectors = scipy.linalg.schur(
        np.asarray(unitary, complex), output="complex"
    )
    phases = np.angle(np.diagonal(triangular))
    phases = np.where(phases <= -np.pi + 1e-12, phases + 2 * np.pi, phases)
    log = (vectors * phases) @ vectors.conj().T
    return (log + log.conj().T) / 2


def haar_unitary(rng, size):
    raw = random_complex(rng, size)
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def with_eigenphases(rng, phases):
    """A unitary with the given eigenphases in a random eigenbasis."""
    basis = haar_unitary(rng, len(phases))
    return (basis * np.exp(1j * np.asarray(phases))) @ basis.conj().T


class TestPredicates:
    def test_identity_is_unitary(self):
        assert is_unitary(np.eye(3), 1e-12)

    def test_beam_splitter_is_unitary(self):
        assert is_unitary(balanced_beam_splitter(), 1e-12)

    def test_shear_is_not_unitary(self):
        assert not is_unitary([[1, 1], [0, 1]], 1e-6)

    def test_unitary_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)), 1e-9)

    def test_golden_log_is_hermitian(self):
        assert is_hermitian(GOLDEN_COUPLER_LOG, 1e-9)

    def test_anti_hermitian_is_not_hermitian(self):
        assert not is_hermitian(1j * np.eye(3), 1e-12)

    def test_real_symmetric_is_hermitian_at_zero_tol(self):
        symmetric = np.array([[1.0, 2.5], [2.5, -3.0]])
        assert is_hermitian(symmetric, 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), -1e-9)

    @pytest.mark.parametrize("predicate", [is_unitary, is_hermitian])
    def test_nan_tolerance_rejected(self, predicate):
        with pytest.raises(ValueError, match="^tolerance must be a number, got nan$"):
            predicate(np.eye(2), math.nan)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            is_hermitian([[np.nan, 0], [0, 1]], 1e-9)


class TestFrobeniusNorm:
    def test_large_integer_entry_does_not_wrap_around(self):
        assert frobenius_norm(np.array([[2**40, 0], [0, 0]], dtype=np.int64)) == 2.0**40
        assert frobenius_norm([[2**40]]) == 2.0**40

    def test_boolean_input_counts_true_entries(self):
        assert frobenius_norm(np.array([[True, True], [False, True]])) == math.sqrt(3)

    def test_empty_matrix_is_zero(self):
        assert frobenius_norm(np.zeros((0, 0))) == 0.0
        assert frobenius_norm(np.zeros((0, 0), dtype=complex)) == 0.0

    @pytest.mark.parametrize(
        "entry,expected",
        [
            (np.nan, math.nan),
            (complex(np.nan, 0), math.nan),
            (np.inf, math.inf),
            (-np.inf, math.inf),
            (complex(0, np.inf), math.inf),
            (complex(np.inf, -np.inf), math.inf),
            (1e200, math.inf),
            (complex(1e200, 1e200), math.inf),
        ],
        ids=repr,
    )
    def test_non_finite_and_overflowing_entries_follow_numpy(self, entry, expected):
        matrix = np.array([[entry, 1], [1j, 2]])
        with np.errstate(over="ignore"):
            ours = frobenius_norm(matrix)
            numpys = np.linalg.norm(matrix, "fro")
        assert math.isnan(ours) if math.isnan(expected) else ours == expected
        assert math.isnan(numpys) if math.isnan(expected) else numpys == expected

    @pytest.mark.parametrize("dtype", [float, complex, np.int64])
    def test_views_match_numpy(self, dtype):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 40, 120)) * 100
        if dtype is complex:
            raw = raw + 1j * rng.standard_normal(raw.shape)
        stack = raw.astype(dtype)
        views = [
            stack[0],
            stack[0].T,
            stack[1, :, 40:80],
            stack[2, ::3, 1::2],
            stack.reshape(120, 120)[:, 40:80].T,
        ]
        for view in views:
            expected = np.linalg.norm(view, "fro")
            assert abs(frobenius_norm(view) - expected) <= 1e-14 * expected
        expected = np.sqrt(sum(np.linalg.norm(block, "fro") ** 2 for block in stack))
        assert abs(frobenius_norm(stack) - expected) <= 1e-14 * expected

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_property(self, rows, columns, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((rows, columns, 2)) @ [1, 1j]
        matrix *= 10.0 ** rng.uniform(-100, 100)
        expected = np.linalg.norm(matrix, "fro")
        assert abs(frobenius_norm(matrix) - expected) <= 1e-14 * expected
        assert frobenius_norm(matrix.real) == pytest.approx(
            np.linalg.norm(matrix.real, "fro"), rel=1e-14
        )

    def test_reads_contiguous_input_in_place(self):
        matrix = np.random.default_rng(13).standard_normal((200, 200)) + 1j
        tracemalloc.start()
        try:
            frobenius_norm(matrix)
            frobenius_norm(matrix.T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_diagonal_phases(self):
        result = matrix_exponential(np.diag([1j * np.pi, 0]))
        assert np.allclose(result, np.diag([-1, 1]), atol=1e-12)

    def test_recovers_coupler_from_golden_log(self):
        result = matrix_exponential(1j * GOLDEN_COUPLER_LOG)
        assert np.max(np.abs(result - balanced_beam_splitter())) < 1e-4

    def test_nilpotent_general_path(self):
        shear = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(
            matrix_exponential(shear), [[1, 1], [0, 1]], atol=1e-14
        )

    @pytest.mark.parametrize("size", [1, 2, 5, 12, 20])
    def test_inverse_property_skew_hermitian(self, size):
        rng = np.random.default_rng(100 + size)
        skew = random_skew_hermitian(rng, size)
        product = matrix_exponential(skew) @ matrix_exponential(-skew)
        assert frobenius_norm(product - np.eye(size)) <= 1e-10

    @pytest.mark.parametrize("size", [2, 7, 20])
    def test_skew_hermitian_input_gives_unitary(self, size):
        rng = np.random.default_rng(size)
        result = matrix_exponential(random_skew_hermitian(rng, size))
        assert is_unitary(result, 1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.ones((2, 3)))

    @pytest.mark.parametrize("size", [1, 2, 7, 20])
    def test_skew_hermitian_branch_is_the_hermitian_helper(self, size):
        rng = np.random.default_rng(200 + size)
        skew = random_skew_hermitian(rng, size)
        assert np.array_equal(matrix_exponential(skew), _exp_i_hermitian(-1j * skew))

    def test_hermitian_helper_drops_the_anti_hermitian_part(self):
        rng = np.random.default_rng(210)
        hermitian = -1j * random_skew_hermitian(rng, 6)
        nearly = hermitian.copy()
        nearly[0, 1] += 1e-11
        assert is_unitary(_exp_i_hermitian(nearly), 1e-13)
        part = (nearly + nearly.conj().T) / 2
        assert np.array_equal(_exp_i_hermitian(nearly), _exp_i_hermitian(part))


class TestUnitaryLogarithm:
    def test_identity_gives_zero(self):
        assert np.allclose(unitary_logarithm(np.eye(4)), np.zeros((4, 4)), atol=1e-14)

    def test_beam_splitter_golden_values(self):
        log = unitary_logarithm(balanced_beam_splitter())
        assert np.max(np.abs(log - GOLDEN_COUPLER_LOG)) < 1e-4

    def test_minus_one_maps_to_plus_pi(self):
        assert np.allclose(unitary_logarithm([[-1.0]]), [[np.pi]], atol=1e-14)

    def test_branch_snap_for_perturbed_minus_one(self):
        # An eigenvalue of -1 computed with a stray negative imaginary part
        # must still land on +pi, not -pi.
        value = complex(-1.0, -0.0)
        assert np.allclose(unitary_logarithm([[value]]), [[np.pi]], atol=1e-14)

    def test_degenerate_eigenphases(self):
        log = unitary_logarithm(1j * np.eye(3))
        assert np.allclose(log, (np.pi / 2) * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("size", [1, 3, 8, 20])
    def test_round_trip_random_unitary(self, size):
        rng = np.random.default_rng(200 + size)
        skew = random_skew_hermitian(rng, size)
        unitary = matrix_exponential(skew)
        log = unitary_logarithm(unitary)
        assert is_hermitian(log, 1e-10)
        assert frobenius_norm(matrix_exponential(1j * log) - unitary) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_logarithm([[1, 1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            unitary_logarithm(np.ones((1, 2)))

    def test_empty_matrix_gives_empty_log(self):
        assert unitary_logarithm(np.zeros((0, 0))).shape == (0, 0)

    def test_nan_tol_rejects(self):
        with pytest.raises(ValueError, match="tolerance must be a number, got nan"):
            unitary_logarithm(np.eye(2)[::-1], tol=math.nan)

    def test_overflowing_gram_matrix_rejects(self):
        # U^dag U overflows to inf - inf = nan off the diagonal.
        with np.errstate(all="ignore"), pytest.raises(NotUnitaryError):
            unitary_logarithm([[1e200, 1e200], [1e200, -1e200]])


def adversarial_unitaries():
    rng = np.random.default_rng(1300)
    cases = {
        f"haar-{size}": haar_unitary(rng, size) for size in (1, 2, 8, 64, 200)
    }
    cases["degenerate"] = with_eigenphases(rng, [0.3, 0.3, 0.3, -1.2, -1.2, 2.0])
    cases["minus-one-thrice"] = with_eigenphases(rng, [np.pi] * 3 + [0.5, -0.7])
    cases["pair-at-the-cut"] = with_eigenphases(
        rng, [np.pi - 1e-13, -(np.pi - 1e-13), 0.1]
    )
    cases["cluster"] = with_eigenphases(rng, [1.0, 1.0 + 1e-9, 1.0 + 2e-9, -2.0, 0.2])
    cases["permutation-7"] = np.eye(7)[rng.permutation(7)]
    cases["permutation-40"] = np.eye(40)[rng.permutation(40)]
    cases["identity"] = np.eye(5)
    cases["diagonal"] = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 6)))
    # Evenly spaced phases tie every gap for widest.
    cases["even-spacing"] = with_eigenphases(rng, np.arange(9) * 2 * np.pi / 9 + 0.1)
    cases["even-diagonal"] = np.diag(np.exp(2j * np.pi * np.arange(8) / 8))
    cases["minus-one"] = np.array([[-1 - 0j]])
    return cases


ADVERSARIAL = adversarial_unitaries()


class TestUnitaryLogarithmAgainstSchur:
    @pytest.mark.parametrize("name", list(ADVERSARIAL))
    def test_matches_schur_reference(self, name):
        unitary = ADVERSARIAL[name]
        log = unitary_logarithm(unitary)
        assert frobenius_norm(log - schur_logarithm(unitary)) <= 1e-12
        assert is_hermitian(log, 0.0)

    @pytest.mark.parametrize("name", list(ADVERSARIAL))
    def test_round_trip_is_no_worse_than_schur(self, name):
        unitary = ADVERSARIAL[name]
        log = unitary_logarithm(unitary)
        ours = frobenius_norm(matrix_exponential(1j * log) - unitary)
        reference = frobenius_norm(
            matrix_exponential(1j * schur_logarithm(unitary)) - unitary
        )
        assert ours <= max(2 * reference, 1e-14)

    def test_minus_one_lands_on_plus_pi(self):
        log = unitary_logarithm(ADVERSARIAL["minus-one-thrice"])
        assert np.allclose(np.linalg.eigvalsh(log)[-3:], np.pi, atol=1e-12)

    def test_slightly_non_unitary_input_is_accepted(self):
        # 2e-10 off unitary in Frobenius norm passes the default tol of 1e-9.
        # Both routes then drop an O(2e-10) non-normal part, each its own way,
        # so they agree only to that order, not to 1e-12.
        rng = np.random.default_rng(1301)
        unitary = haar_unitary(rng, 8)
        noise = random_complex(rng, 8)
        perturbed = unitary + 2e-10 * noise / frobenius_norm(noise)
        assert not is_unitary(perturbed, 1e-12)
        log = unitary_logarithm(perturbed)
        assert is_hermitian(log, 0.0)
        assert frobenius_norm(log - schur_logarithm(perturbed)) <= 1e-9
        round_trip = frobenius_norm(matrix_exponential(1j * log) - perturbed)
        assert round_trip <= 4e-10


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_log_round_trip_property(size, seed):
    rng = np.random.default_rng(seed)
    unitary = haar_unitary(rng, size)
    log = unitary_logarithm(unitary)
    assert is_hermitian(log, 0.0)
    assert np.all(np.abs(np.linalg.eigvalsh(log)) <= np.pi + 1e-12)
    assert frobenius_norm(matrix_exponential(1j * log) - unitary) <= 1e-12 * size


class TestPermanent:
    def test_two_by_two_closed_form(self):
        assert permanent([[1, 2], [3, 4]]) == pytest.approx(10)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    def test_all_ones_gives_factorial(self, size):
        assert permanent(np.ones((size, size))) == pytest.approx(math.factorial(size))

    def test_random_five_by_five_matches_oracle(self):
        rng = np.random.default_rng(7)
        matrix = random_complex(rng, 5)
        expected = factorial_permanent(matrix)
        assert abs(permanent(matrix) - expected) <= 1e-10 * abs(expected)

    def test_matches_oracle_over_many_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(102):
            size = trial % 6 + 1
            matrix = random_complex(rng, size)
            expected = factorial_permanent(matrix)
            assert abs(permanent(matrix) - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_zero_row_gives_zero(self):
        matrix = np.ones((4, 4), dtype=complex)
        matrix[2, :] = 0
        assert permanent(matrix) == 0

    def test_invariant_under_row_and_column_swaps(self):
        rng = np.random.default_rng(13)
        matrix = random_complex(rng, 5)
        swapped_rows = matrix[[1, 0, 2, 3, 4], :]
        swapped_cols = matrix[:, [0, 1, 4, 3, 2]]
        reference = permanent(matrix)
        assert permanent(swapped_rows) == pytest.approx(reference, rel=1e-12)
        assert permanent(swapped_cols) == pytest.approx(reference, rel=1e-12)

    def test_empty_matrix_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1

    def test_size_limit(self):
        too_big = np.eye(PERMANENT_SIZE_LIMIT + 1)
        with pytest.raises(ValueError):
            permanent(too_big)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))
