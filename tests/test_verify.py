import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import photonlift.fock
import photonlift.lift
import photonlift.verify
from photonlift.lift import (
    LiftedHamiltonian,
    balanced_beam_splitter,
    lift_hamiltonian,
    lift_unitary_expansion,
)
from photonlift.matfuncs import (
    NotHermitianError,
    _as_square,
    _eigh_hermitian_part,
    _exp_i_eigh,
    _exp_i_hermitian,
    frobenius_norm,
    is_hermitian,
    is_unitary,
    unitary_logarithm,
)
from photonlift.verify import (
    _count_sparsity_violations,
    check_derivative_oracle,
    check_diagram,
    check_global_phase,
    check_homomorphism,
    random_hermitian,
    random_unitary,
    run_sweep,
)
from reference import diagram_by_eigh, sparsity_violations_by_distance, sweep_by_checks

# A fault of this size is 100 times the default diagram tolerance.
FAULT = 1e-6


@pytest.fixture
def coupler_log():
    return unitary_logarithm(balanced_beam_splitter())


class TestCheckDiagram:
    def test_coupler_log_passes(self, coupler_log):
        report = check_diagram(coupler_log, 2, tol=1e-8)
        assert report.passed
        assert report.residual_diagram <= 1e-8
        assert report.sparsity_violations == 0

    def test_zero_matrix_is_exact(self):
        report = check_diagram(np.zeros((2, 2)), 3, tol=1e-12)
        assert report.residual_diagram == 0.0
        assert report.passed

    def test_random_hermitian_passes(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            report = check_diagram(random_hermitian(3, rng), 2, tol=1e-8)
            assert report.passed

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            check_diagram([[0, 1], [0, 0]], 2)

    def test_report_fields_are_consistent(self, coupler_log):
        report = check_diagram(coupler_log, 2, tol=1e-8)
        assert report.modes == 2
        assert report.photons == 2
        assert report.tolerance == 1e-8
        assert report.passed == (
            report.residual_diagram <= report.tolerance
            and report.residual_unitarity <= report.tolerance
            and report.residual_hermiticity <= report.tolerance
            and report.sparsity_violations == 0
        )

    def test_counts_only_far_pair_couplings(self, monkeypatch):
        # Three modes, two photons: (2,0,0) is one move from (1,1,0) and two
        # moves from (0,2,0).
        zero = lift_hamiltonian(np.zeros((3, 3)), 2)
        states = zero.basis.states
        bunched, one_move, far = (
            states.index(state) for state in [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
        )
        matrix = np.zeros_like(zero.matrix)
        matrix[bunched, one_move] = matrix[one_move, bunched] = 0.5
        matrix[bunched, far] = 1e-3
        corrupted = LiftedHamiltonian(zero.basis, matrix)
        assert _count_sparsity_violations(corrupted) == 1

        monkeypatch.setattr(
            photonlift.verify, "_fill_hamiltonian", lambda matrix, table, out: corrupted
        )
        report = check_diagram(np.zeros((3, 3)), 2)
        assert report.sparsity_violations == 1
        assert not report.passed

    def test_report_lists_the_eigen_residuals_before_the_tolerance(self, coupler_log):
        fields = list(asdict(check_diagram(coupler_log, 2)))
        position = fields.index("tolerance")
        assert fields[position - 2 : position] == ["residual_eigen", "residual_eigenbasis"]

    @pytest.mark.parametrize("modes,photons", [(10, 3), (6, 6)])
    def test_peak_memory_stays_near_six_matrices(self, modes, photons):
        h_single = random_hermitian(modes, np.random.default_rng(94))
        tracemalloc.start()
        try:
            report = check_diagram(h_single, photons)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(lift_hamiltonian(np.zeros((modes, modes)), photons).basis)
        assert report.passed
        # The four slots of the check's work array (the lifted H, the scratch
        # array, G and W), beside the lift walk that writes W.
        assert peak <= 6.0 * 16 * size**2

    @pytest.mark.parametrize("h_single", [np.eye(2), np.zeros((3, 3))])
    def test_nan_tol_names_the_tolerance_for_hermitian_input(self, h_single):
        with pytest.raises(ValueError, match="tolerance must be a number, got nan") as raised:
            check_diagram(h_single, 2, tol=float("nan"))
        assert not isinstance(raised.value, NotHermitianError)


class TestSparsityCount:
    """The cached near-pair count against the distance of every non-zero entry."""

    SIZES = [(m, n) for m in range(1, 7) for n in range(5)] + [(10, 3)]

    @staticmethod
    def first_pair_at(occupations, distance):
        gaps = np.abs(occupations[:, None] - occupations[None]).sum(axis=2)
        rows, columns = np.nonzero(gaps == distance)
        return (rows[0], columns[0]) if len(rows) else None

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_counts_match_the_distance_route(self, modes, photons):
        rng = np.random.default_rng([95, modes, photons])
        lifted = lift_hamiltonian(random_hermitian(modes, rng), photons)
        assert _count_sparsity_violations(lifted) == 0
        assert sparsity_violations_by_distance(lifted) == 0
        shape = lifted.matrix.shape
        noise = rng.standard_normal(shape) * (rng.random(shape) < 0.2)
        noisy = LiftedHamiltonian(lifted.basis, lifted.matrix + noise)
        expected = sparsity_violations_by_distance(noisy)
        assert _count_sparsity_violations(noisy) == expected

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_counts_match_on_corrupted_matrices(self, modes, photons):
        rng = np.random.default_rng([96, modes, photons])
        lifted = lift_hamiltonian(random_hermitian(modes, rng), photons)
        occupations = lifted.basis.occupations
        far = self.first_pair_at(occupations, 4)
        move = self.first_pair_at(occupations, 2)
        # (position, value, far couplings after the change); None zeroes all.
        corruptions = [(None, 0, 0)]
        if far is not None:
            corruptions += [(far, 1e-300, 1), (far, np.nan, 1), (far, -1e-300j, 1)]
        if move is not None:
            corruptions.append((move, 0, 0))
        for position, value, violations in corruptions:
            matrix = lifted.matrix.copy()
            if position is None:
                matrix[...] = value
            else:
                matrix[position] = value
            corrupted = LiftedHamiltonian(lifted.basis, matrix)
            assert sparsity_violations_by_distance(corrupted) == violations
            assert _count_sparsity_violations(corrupted) == violations

    def test_negative_zero_far_entries_are_zero(self):
        lifted = lift_hamiltonian(np.zeros((3, 3)), 3)
        matrix = np.full_like(lifted.matrix, complex(-0.0, -0.0))
        assert _count_sparsity_violations(LiftedHamiltonian(lifted.basis, matrix)) == 0

    def test_zero_h_has_only_zero_entries(self):
        lifted = lift_hamiltonian(np.zeros((4, 4)), 3)
        assert _count_sparsity_violations(lifted) == 0
        assert not lifted.matrix.any()

    def test_index_needs_no_ladder_table_or_ranking(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the near-pair index used the lifts' construction")

        photonlift.fock._clear_plans()
        monkeypatch.setattr(photonlift.fock, "_ladder_table", refuse)
        monkeypatch.setattr(photonlift.fock, "ladder_table", refuse)
        near = photonlift.verify._near_pairs(5, 3)
        monkeypatch.undo()
        lifted = lift_hamiltonian(np.ones((5, 5)), 3)
        assert np.array_equal(np.flatnonzero(lifted.matrix), np.sort(near))
        assert not near.flags.writeable

    def test_index_holds_the_near_pairs_and_no_more(self):
        for modes, photons in [(1, 3), (2, 0), (3, 3), (4, 2)]:
            basis = lift_hamiltonian(np.zeros((modes, modes)), photons).basis
            gaps = np.abs(basis.occupations[:, None] - basis.occupations[None]).sum(axis=2)
            near = photonlift.verify._near_pairs(modes, photons)
            assert np.array_equal(np.sort(near), np.flatnonzero(gaps <= 2))


def _perturb_one_move_pair(monkeypatch):
    """Patch the Hamiltonian fill to add FAULT to one one-move pair (p, q), (q, p).

    The lifted H stays Hermitian and keeps its sparsity pattern, so neither
    ``residual_hermiticity`` nor the sparsity scan can see the fault. The
    fill is patched where ``check_diagram`` reads it, in verify, and where
    ``lift_hamiltonian`` reads it, in lift, so the fault reaches the eigh
    route too.
    """
    exact = photonlift.lift._fill_hamiltonian

    def perturbed(matrix, table, out):
        lifted = exact(matrix, table, out)
        rows, columns = np.nonzero(np.triu(lifted.matrix, 1))
        row, column = rows[0], columns[0]
        lifted.matrix[row, column] += FAULT
        lifted.matrix[column, row] += FAULT
        return lifted

    monkeypatch.setattr(photonlift.lift, "_fill_hamiltonian", perturbed)
    monkeypatch.setattr(photonlift.verify, "_fill_hamiltonian", perturbed)


def _scale_one_group_column(monkeypatch):
    """Patch verify._expansion_lifts to scale one column of its first lift."""
    exact = photonlift.verify._expansion_lifts

    def scaled(matrices, photons, out=None):
        lifts = exact(matrices, photons, out)
        lifts[0][:, len(lifts[0]) // 2] *= 1 + FAULT
        return lifts

    monkeypatch.setattr(photonlift.verify, "_expansion_lifts", scaled)


class TestDiagramAgainstEighRoute:
    @pytest.mark.parametrize("modes,photons", [(3, 2), (4, 3), (10, 3), (6, 6)])
    def test_both_routes_pass_and_agree(self, modes, photons):
        h_single = random_hermitian(modes, np.random.default_rng(95))
        report = check_diagram(h_single, photons)
        reference = diagram_by_eigh(h_single, photons)
        assert report.passed and reference.passed
        assert abs(report.residual_diagram - reference.residual_diagram) <= 1e-12
        assert abs(report.residual_unitarity - reference.residual_unitarity) <= 1e-12
        assert report.residual_hermiticity == reference.residual_hermiticity

    @pytest.mark.parametrize("modes,photons", [(3, 2), (4, 3), (10, 3)])
    def test_both_routes_fail_on_a_perturbed_one_move_pair(
        self, monkeypatch, modes, photons
    ):
        h_single = random_hermitian(modes, np.random.default_rng(96))
        _perturb_one_move_pair(monkeypatch)
        report = check_diagram(h_single, photons)
        reference = diagram_by_eigh(h_single, photons)
        assert report.residual_hermiticity <= report.tolerance
        assert report.sparsity_violations == 0
        assert report.residual_eigen > report.tolerance
        assert reference.residual_diagram > report.tolerance
        assert not report.passed and not reference.passed

    @pytest.mark.parametrize("modes,photons", [(3, 2), (4, 3), (10, 3)])
    def test_both_routes_fail_on_a_scaled_group_column(
        self, monkeypatch, modes, photons
    ):
        h_single = random_hermitian(modes, np.random.default_rng(97))
        _scale_one_group_column(monkeypatch)
        report = check_diagram(h_single, photons)
        reference = diagram_by_eigh(h_single, photons)
        assert report.residual_eigen <= report.tolerance
        assert report.residual_eigenbasis <= report.tolerance
        assert report.residual_diagram > report.tolerance
        assert reference.residual_diagram > report.tolerance
        assert not report.passed and not reference.passed


class TestUnitarityBound:
    """``residual_unitarity`` bounds ||G^dag G - I||_F from the other residuals."""

    SIZES = [(2, 40), (3, 8), (8, 2), (10, 3), (6, 6), (3, 2), (1, 5)]

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_bound_is_at_least_the_measured_residual(self, modes, photons):
        for seed in range(3):
            h_single = random_hermitian(modes, np.random.default_rng([105, modes, photons, seed]))
            report = check_diagram(h_single, photons)
            reference = diagram_by_eigh(h_single, photons)
            assert report.passed
            assert report.residual_unitarity >= reference.residual_unitarity

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("position", [0, 1], ids=["group", "eigenbasis"])
    def test_a_non_finite_lift_entry_fails(self, monkeypatch, value, position):
        exact = photonlift.verify._expansion_lifts

        def spoiled(matrices, photons, out=None):
            lifts = exact(matrices, photons, out)
            lifts[position][0, 0] = value
            return lifts

        monkeypatch.setattr(photonlift.verify, "_expansion_lifts", spoiled)
        # An infinite W meets the lifted H's zeros in lift_H(H) W: 0 * inf.
        with np.errstate(invalid="ignore"):
            report = check_diagram(random_hermitian(3, np.random.default_rng(106)), 2)
        assert not report.residual_unitarity <= report.tolerance
        assert not report.passed

    @pytest.mark.parametrize("modes,photons", [(3, 2), (4, 3), (10, 3)])
    def test_a_scaled_group_column_fails_both_residuals(self, monkeypatch, modes, photons):
        h_single = random_hermitian(modes, np.random.default_rng(97))
        _scale_one_group_column(monkeypatch)
        report = check_diagram(h_single, photons)
        assert report.residual_diagram > report.tolerance
        assert report.residual_unitarity > report.tolerance
        assert not report.passed


class TestReusedWorkMemory:
    """A check's work array may reuse the pages of the check before it.

    Whatever those pages hold must not reach a report: each check's report
    equals, by ``repr``, the one built from arrays that hold nothing of an
    earlier check.
    """

    SIZES = [(10, 3), (3, 2), (1, 3), (2, 20), (4, 0)]

    @staticmethod
    def fresh_report(h_single, photons):
        """The report from a fresh lifted H and NaN-filled lift and scratch arrays.

        G and W are lifted in one stacked pass, as ``check_diagram`` lifts
        them: at m = 1 a stacked lift can differ from a single one in the
        last bit. An entry the lift failed to write would stay NaN.
        """
        matrix = _as_square(h_single)
        lifted_h = lift_hamiltonian(matrix, photons, tol=1e-8)
        values, vectors = _eigh_hermitian_part(matrix)
        size = len(lifted_h.basis)
        work = np.full((3, size, size), np.nan, dtype=complex)
        group, lifted_vectors = photonlift.verify._expansion_lifts(
            [_exp_i_eigh(values, vectors), vectors], photons, work[1:]
        )
        return photonlift.verify._diagram_report(
            lifted_h, values, group, lifted_vectors, work[0], 1e-8
        )

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_after_a_check_at_a_larger_size(self, modes, photons):
        rng = np.random.default_rng([101, modes, photons])
        h_single = random_hermitian(modes, rng)
        expected = repr(self.fresh_report(h_single, photons))
        # M = 462, above every size here.
        check_diagram(random_hermitian(6, rng), 6)
        assert repr(check_diagram(h_single, photons)) == expected

    @pytest.mark.parametrize("modes,photons", SIZES)
    def test_after_a_check_of_another_h_at_the_same_size(self, modes, photons):
        rng = np.random.default_rng([102, modes, photons])
        h_single = random_hermitian(modes, rng)
        expected = repr(self.fresh_report(h_single, photons))
        check_diagram(10 * random_hermitian(modes, rng), photons)
        assert repr(check_diagram(h_single, photons)) == expected

    def test_sweep_trials_that_share_one_work_array(self):
        fused = run_sweep(10, 3, trials=2, seed=103)
        assert repr(fused) == repr(sweep_by_checks(10, 3, trials=2, seed=103))


def _rotated(eigenvalues, seed):
    """Hermitian matrix with the given spectrum in a seeded random eigenbasis."""
    rotation = random_unitary(len(eigenvalues), np.random.default_rng(seed))
    return (rotation * np.asarray(eigenvalues)) @ rotation.conj().T


class TestAdversarialSpectra:
    # eigh returns an orthonormal eigenbasis however the eigenvalues cluster,
    # so the lifted eigenbasis stays orthonormal and exact.
    CASES = {
        "scalar": (lambda: 0.7 * np.eye(3), 3),
        "double_eigenvalue": (lambda: _rotated([0.4, 0.4, -1.1, 0.9], 98), 3),
        "gap_1e-12": (lambda: _rotated([0.5, 0.5 + 1e-12, -0.8, 1.3], 99), 3),
        "diagonal": (lambda: np.diag([0.3, -1.2, 0.8, 2.1]).astype(complex), 3),
        # Every split of 20 photons over two modes, fully bunched ones included.
        "two_modes_20_photons": (lambda: random_hermitian(2, np.random.default_rng(100)), 20),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_passes_with_exact_eigen_residuals(self, case):
        make, photons = self.CASES[case]
        report = check_diagram(make(), photons)
        assert report.passed
        assert report.residual_eigen <= 1e-11
        assert report.residual_eigenbasis <= 1e-11


class TestCheckHomomorphism:
    def test_inverse_pair_gives_identity(self):
        rng = np.random.default_rng(82)
        scattering = random_unitary(3, rng)
        report = check_homomorphism(scattering, scattering.conj().T, 2, tol=1e-10)
        assert report.passed

    def test_identity_absorbs(self):
        rng = np.random.default_rng(83)
        scattering = random_unitary(2, rng)
        report = check_homomorphism(np.eye(2), scattering, 2, tol=1e-10)
        assert report.residual <= 1e-15

    def test_random_pairs(self):
        rng = np.random.default_rng(84)
        report = check_homomorphism(
            random_unitary(2, rng), random_unitary(2, rng), 2, tol=1e-10
        )
        assert report.passed

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            check_homomorphism(np.eye(2), np.eye(3), 2)

    def test_size_mismatch_is_reported_before_the_photon_count(self):
        with pytest.raises(ValueError, match="matrix sizes differ"):
            check_homomorphism(np.eye(2), np.eye(3), True)

    def test_negative_tol_raises_and_nan_tol_fails(self):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            check_homomorphism(np.eye(2), np.eye(2), 2, tol=-1)
        with pytest.raises(ValueError, match="tolerance must be a number, got nan"):
            check_homomorphism(np.eye(2), np.eye(2), 2, tol=float("nan"))


class TestCheckGlobalPhase:
    def test_random_instance(self):
        rng = np.random.default_rng(85)
        report = check_global_phase(random_unitary(3, rng), 0.9, 2, tol=1e-10)
        assert report.passed
        assert report.phase == 0.9

    def test_zero_phase_is_exact(self):
        rng = np.random.default_rng(86)
        report = check_global_phase(random_unitary(2, rng), 0.0, 2)
        assert report.residual == 0.0

    def test_negative_tol_raises_and_nan_tol_fails(self):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            check_global_phase(np.eye(2), 0.4, 2, tol=-1)
        with pytest.raises(ValueError, match="tolerance must be a number, got nan"):
            check_global_phase(np.eye(2), 0.4, 2, tol=float("nan"))

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_phase_raises_before_any_lift(self, monkeypatch, phase):
        def no_lift(*args):
            raise AssertionError("lifted before checking the phase")

        monkeypatch.setattr(photonlift.verify, "_work_array", no_lift)
        monkeypatch.setattr(photonlift.verify, "_expansion_lifts", no_lift)
        with pytest.raises(ValueError, match=f"^phase must be finite, got {phase}$"):
            check_global_phase(np.eye(2), phase, 2)


class TestCheckArguments:
    CHECKS = {
        "homomorphism": lambda matrix, photons: check_homomorphism(matrix, matrix, photons),
        "global_phase": lambda matrix, photons: check_global_phase(matrix, 0.4, photons),
        "diagram": lambda matrix, photons: check_diagram(np.zeros_like(matrix), photons),
    }

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("photons", [True, np.bool_(True), -1, 1.5, "2"])
    def test_rejects_bad_photon_counts(self, check, photons):
        with pytest.raises(ValueError, match="photon counts must be whole numbers"):
            self.CHECKS[check](np.eye(2, dtype=complex), photons)

    @pytest.mark.parametrize("check", CHECKS)
    def test_rejects_empty_matrices(self, check):
        with pytest.raises(ValueError, match="mode counts must be whole numbers"):
            self.CHECKS[check](np.zeros((0, 0), dtype=complex), 2)

    @pytest.mark.parametrize("check", CHECKS)
    def test_empty_matrices_with_bad_photon_counts_name_the_photons(self, check):
        with pytest.raises(ValueError, match="photon counts must be whole numbers"):
            self.CHECKS[check](np.zeros((0, 0), dtype=complex), -1)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("photons", [2.0, np.int64(2), np.float32(2)])
    def test_reports_store_an_int_photon_count(self, check, photons):
        report = self.CHECKS[check](np.eye(2, dtype=complex), photons)
        assert type(report.photons) is int
        assert report.photons == 2
        assert report.passed

    def test_global_phase_rejects_a_non_finite_phase(self):
        with pytest.raises(ValueError, match="finite"):
            check_global_phase(np.eye(2), float("nan"), 2)


class TestNearlyHermitianInput:
    def test_both_routes_exponentiate_the_hermitian_part(self):
        h_single = random_hermitian(8, np.random.default_rng(151))
        h_single[0, 1] += 1e-11
        report = check_diagram(h_single, 2)
        assert report.passed
        assert report.residual_unitarity <= 1e-13
        assert report.residual_diagram <= 1e-13
        # The anti-Hermitian part is still reported, from the lifted H.
        lifted = lift_hamiltonian(h_single, 2).matrix
        assert report.residual_hermiticity == np.linalg.norm(lifted - lifted.conj().T)
        assert report.residual_hermiticity >= 1e-11


class TestDerivativeOracle:
    def test_zero_matrix_gives_zero_residual(self):
        assert check_derivative_oracle(np.zeros((2, 2)), 3, 1e-4) == 0.0

    def test_coupler_log_small_step(self, coupler_log):
        assert check_derivative_oracle(coupler_log, 2, 1e-4) <= 1e-6

    def test_second_order_convergence(self):
        rng = np.random.default_rng(87)
        h_single = random_hermitian(2, rng)
        coarse = check_derivative_oracle(h_single, 2, 1e-3)
        fine = check_derivative_oracle(h_single, 2, 5e-4)
        assert 3.5 <= coarse / fine <= 4.5

    def test_equals_the_out_of_place_difference_bit_for_bit(self):
        h_single = random_hermitian(4, np.random.default_rng(96))
        step = 1e-4
        forward = lift_unitary_expansion(_exp_i_hermitian(step * h_single), 3).matrix
        backward = lift_unitary_expansion(_exp_i_hermitian(-step * h_single), 3).matrix
        direct = lift_hamiltonian(h_single, 3).matrix
        expected = frobenius_norm((forward - backward) / (2 * step) - 1j * direct)
        assert check_derivative_oracle(h_single, 3, step) == expected

    def test_peak_memory_stays_within_four_matrices(self):
        # A first call builds the plans the store keeps.
        h_single = random_hermitian(10, np.random.default_rng(95))
        check_derivative_oracle(h_single, 3, 1e-4)
        tracemalloc.start()
        try:
            check_derivative_oracle(h_single, 3, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(lift_hamiltonian(np.zeros((10, 10)), 3).basis)
        # The three slots of the work array (the lifted H and the lifts at
        # +step and -step), beside the lift walk: about 3.8 matrices. The
        # residual is taken in the slots; one more matrix would not pass.
        assert peak <= 4.0 * 16 * size**2

    @pytest.mark.parametrize("step", [0.0, -1e-4, 2e-3])
    def test_rejects_bad_steps(self, step):
        with pytest.raises(ValueError):
            check_derivative_oracle(np.zeros((2, 2)), 2, step)

    def test_refuses_a_non_hermitian_h_before_any_lift(self, monkeypatch):
        calls = []
        exact = photonlift.verify._expansion_lifts

        def spy(matrices, *args, **kwargs):
            calls.append(len(matrices))
            return exact(matrices, *args, **kwargs)

        monkeypatch.setattr(photonlift.verify, "_expansion_lifts", spy)
        with pytest.raises(NotHermitianError, match="tolerance 1e-09"):
            check_derivative_oracle([[0, 1], [0, 0]], 3, 1e-4)
        assert calls == []
        # The spy sees the lifts of a Hermitian H, so it covers the oracle's:
        # one stacked call lifts the pair at +step and -step.
        check_derivative_oracle(np.zeros((2, 2)), 3, 1e-4)
        assert calls == [2]


class TestRandomGenerators:
    def test_random_hermitian_is_exactly_hermitian(self):
        rng = np.random.default_rng(88)
        matrix = random_hermitian(4, rng)
        assert np.array_equal(matrix, matrix.conj().T)
        assert is_hermitian(matrix, 0.0)

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(89)
        assert is_unitary(random_unitary(4, rng), 1e-12)

    def test_seeded_draws_are_reproducible(self):
        first = random_hermitian(3, np.random.default_rng(90))
        second = random_hermitian(3, np.random.default_rng(90))
        assert np.array_equal(first, second)


class TestRunSweep:
    def test_all_checks_pass(self):
        results = run_sweep(3, 2, trials=4, seed=91)
        assert len(results) == 12
        kinds = {kind for kind, _, _ in results}
        assert kinds == {"diagram", "homomorphism", "global_phase"}
        assert all(report.passed for _, _, report in results)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the expansion walk's rounding grows with the "
        "photons piled into few modes; at (2, 60) the homomorphism and phase "
        "residuals exceed their tolerances",
    )
    def test_all_checks_pass_at_sixty_photons_in_two_modes(self):
        assert all(report.passed for _, _, report in run_sweep(2, 60, 1, seed=1))

    def test_deterministic_for_fixed_seed(self):
        first = run_sweep(2, 2, trials=3, seed=92)
        second = run_sweep(2, 2, trials=3, seed=92)
        assert first == second

    def test_different_seeds_differ(self):
        first = run_sweep(2, 2, trials=1, seed=1)
        second = run_sweep(2, 2, trials=1, seed=2)
        assert first != second

    @pytest.mark.parametrize("trials", [0, -3, 1.5, True, None, "1"])
    def test_rejects_trial_counts_that_are_not_whole_numbers_from_1(self, trials):
        with pytest.raises(ValueError, match="trial counts must be whole numbers >= 1"):
            run_sweep(2, 1, trials=trials)

    def test_whole_float_trial_count_is_accepted(self):
        assert run_sweep(2, 1, trials=2.0, seed=93) == run_sweep(2, 1, trials=2, seed=93)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1])
    def test_rejects_seeds_that_are_not_whole_numbers_from_0(self, monkeypatch, seed):
        def no_work_array(*args):
            raise AssertionError("allocated before checking the seed")

        monkeypatch.setattr(photonlift.verify, "_work_array", no_work_array)
        with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
            run_sweep(2, 1, 1, seed=seed)

    def test_whole_seeds_of_any_number_type_are_accepted(self):
        expected = run_sweep(2, 1, 2, seed=7)
        assert run_sweep(2, 1, 2, seed=7.0) == expected
        assert run_sweep(2, 1, 2, seed=np.int64(7)) == expected

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "tolerances",
        [{}, {"tol": 1e-7, "homomorphism_tol": 3e-9, "phase_tol": 0.0}],
        ids=["default", "custom"],
    )
    def test_equals_the_check_by_check_oracle(self, modes, tolerances):
        for photons in range(5):
            for seed in (0, 7, 2024):
                fused = run_sweep(modes, photons, 2, seed=seed, **tolerances)
                oracle = sweep_by_checks(modes, photons, 2, seed=seed, **tolerances)
                assert repr(fused) == repr(oracle), (modes, photons, seed)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"trials": 0},
            {"trials": True},
            {"modes": True},
            {"modes": 0},
            {"modes": -2},
            {"modes": "2"},
            {"modes": 1.5},
            {"modes": None},
            {"photons": -1},
            {"photons": True},
            {"photons": 1.5},
            {"photons": "1"},
            {"tol": -1},
            {"tol": None},
            {"tol": float("nan")},
            {"homomorphism_tol": -1},
            {"homomorphism_tol": "x"},
            {"homomorphism_tol": float("nan")},
            {"phase_tol": -1},
            {"phase_tol": None},
            {"phase_tol": float("nan")},
        ],
        ids=repr,
    )
    def test_bad_arguments_raise_as_the_oracle_does(self, arguments):
        call = {"modes": 2, "photons": 1, "trials": 1, **arguments}
        with pytest.raises(Exception) as expected:
            sweep_by_checks(**call)
        with pytest.raises(type(expected.value)) as raised:
            run_sweep(**call)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("modes", [True, 0, "2"])
    def test_rejects_mode_counts_that_are_not_whole_numbers_from_1(self, modes):
        with pytest.raises(ValueError, match="mode counts must be whole numbers >= 1"):
            run_sweep(modes, 2, 1)

    def test_whole_float_mode_count_is_accepted(self):
        assert run_sweep(2.0, 2, 1, seed=94) == run_sweep(2, 2, 1, seed=94)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"photons": -1},
            {"tol": -1},
            {"tol": float("nan")},
            {"homomorphism_tol": -1},
            {"homomorphism_tol": float("nan")},
            {"phase_tol": -1},
            {"phase_tol": float("nan")},
        ],
        ids=repr,
    )
    def test_checks_every_argument_before_the_first_draw(self, monkeypatch, arguments):
        class NoDraws:
            """A generator whose one draw call, ``random``, fails."""

            def __init__(self, seed):
                pass

            def random(self, size):
                raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(photonlift.verify.np.random, "default_rng", NoDraws)
        # Valid arguments reach the draw, so the patch covers the sweep's draws.
        with pytest.raises(AssertionError, match="drew before checking"):
            run_sweep(2, 1, 1)
        with pytest.raises(ValueError):
            run_sweep(**{"modes": 2, "photons": 1, "trials": 1, **arguments})

    @pytest.mark.parametrize("modes,photons,bound", [(10, 3, 10.4), (5, 4, 11.8)])
    def test_peak_memory_stays_near_ten_matrices(self, modes, photons, bound):
        # A first sweep builds the plans the store keeps, so the measured
        # sweep holds its work array and the walk's temporaries alone.
        run_sweep(modes, photons, 1, seed=104)
        tracemalloc.start()
        try:
            results = run_sweep(modes, photons, 2, seed=104)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(lift_hamiltonian(np.zeros((modes, modes)), photons).basis)
        assert all(report.passed for _, _, report in results)
        # The nine slots of the work array (the lifted H, the seven lifts and
        # one more, which with five of the lifts' slots holds the six
        # residuals), beside the lift walk: about 9.9 and 11.3 matrices.
        # A tenth slot would pass neither bound.
        assert peak <= bound * 16 * size**2

    @pytest.mark.parametrize("modes,photons", [(1, 2), (2, 3), (3, 2)])
    def test_twenty_trials_equal_the_oracle(self, modes, photons):
        # A draw out of place shifts every later trial's draws.
        fused = run_sweep(modes, photons, 20, seed=95)
        assert repr(fused) == repr(sweep_by_checks(modes, photons, 20, seed=95))


class TestReportFunctions:
    """The three report functions are the one residual path of both sides.

    Each fault adds 0.5 to entry (0, 0) of one lift a report function
    receives, so the residual it takes reads about 0.5, in the public check
    and in every sweep trial alike.
    """

    # kind -> (report function, position of the faulted lift, residual field)
    FAULTS = {
        "diagram": ("_diagram_report", 2, "residual_diagram"),
        "homomorphism": ("_homomorphism_report", 1, "residual"),
        "global_phase": ("_phase_report", 3, "residual"),
    }

    @staticmethod
    def public_check(kind):
        rng = np.random.default_rng(105)
        if kind == "diagram":
            return check_diagram(random_hermitian(3, rng), 2)
        if kind == "homomorphism":
            return check_homomorphism(random_unitary(3, rng), random_unitary(3, rng), 2)
        return check_global_phase(random_unitary(3, rng), 0.3, 2)

    @pytest.mark.parametrize("kind", FAULTS)
    def test_a_fault_reaches_the_public_check_and_the_sweep(self, monkeypatch, kind):
        name, position, field = self.FAULTS[kind]
        report = getattr(photonlift.verify, name)

        def faulted(*args):
            args[position][0, 0] += 0.5
            return report(*args)

        assert self.public_check(kind).passed
        monkeypatch.setattr(photonlift.verify, name, faulted)
        public = self.public_check(kind)
        assert not public.passed
        assert getattr(public, field) == pytest.approx(0.5, abs=1e-6)
        results = run_sweep(3, 2, 2, seed=106)
        for swept_kind, _, swept in results:
            if swept_kind == kind:
                assert not swept.passed
                assert getattr(swept, field) == pytest.approx(0.5, abs=1e-6)
            else:
                assert swept.passed

    @pytest.mark.parametrize(
        "entries",
        [
            [-0.0, complex(-0.0, -0.0)],
            [5e-324, complex(0.0, -5e-324)],
            [complex(float("nan"), 1.0), 2.0],
            [float("inf"), complex(1.0, float("-inf"))],
            [float("-inf"), complex(float("nan"), float("inf"))],
            [1e200, complex(1e-300, -1e200)],
            [1e154, complex(1e154, 1e154)],
        ],
        ids=repr,
    )
    def test_slot_norm_is_frobenius_norm_bit_for_bit(self, entries):
        slot = np.zeros((3, 3), dtype=complex)
        slot.reshape(-1)[[0, 4, 5, 8][: len(entries)]] = entries
        slot[1, 0] = 0.25 - 3j
        # Squares past the float range warn as they overflow to inf.
        with np.errstate(over="ignore"):
            norm = photonlift.verify._slot_norm(slot.reshape(-1).view(float))
            expected = frobenius_norm(slot)
        assert type(norm) is float
        assert np.float64(norm).tobytes() == np.float64(expected).tobytes()

    def test_slot_norm_is_frobenius_norm_bit_for_bit_on_random_slots(self):
        rng = np.random.default_rng(107)
        for size in (1, 2, 7, 20, 60):
            slot = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            slot *= 10.0 ** rng.integers(-150, 150)
            norm = photonlift.verify._slot_norm(slot.reshape(-1).view(float))
            assert norm.hex() == frobenius_norm(slot).hex()
