"""Reference constructions for the tests, kept outside the package.

``diagram_by_eigh`` is the diagram check by a dense eigendecomposition of
the lifted Hamiltonian: the algebra route is exp(i lift_H(H)) from
``np.linalg.eigh`` of the M x M Hermitian part, rebuilt as
V e^{i Lambda} V^dag. ``photonlift.verify.check_diagram`` takes the same
exponential from the lifted single-photon eigenbasis instead, so this route
serves as its oracle. It reads ``lift_hamiltonian`` and ``_expansion_lifts``
from ``photonlift.verify`` at call time, so a fault patched into
``verify._expansion_lifts``, or into ``_fill_hamiltonian`` in both lift
(which ``lift_hamiltonian`` calls) and verify (which ``check_diagram``
calls), reaches both routes.

``sweep_by_checks`` is ``run_sweep`` as a loop over the public checks, one
call per check on freshly drawn inputs, and serves as the oracle of the
fused sweep trial.

``sparsity_violations_by_distance`` counts the far couplings of a lifted H
from the occupation distance of every non-zero entry, the oracle of the
cached near-pair count. ``lift_columns_by_scatter`` is the expansion-lift
walk in complex arithmetic throughout, the oracle of the real-view walk,
for every column or for one input's.

``rank_occupations`` ranks occupation rows by binomial counting, the
vectorised ``FockBasis.index_of``: the oracle of the ladder table, which
reads its moves off the basis order with no ranking, and of the walk
plans' photon removal, which ``lift_columns_by_scatter`` ranks with it.

``lift_permanent_by_passes`` is the permanent lift's pass loop with a
fresh array for every power table, product and gather, the byte oracle of
``photonlift.lift.lift_unitary_permanent``, which writes them all into one
work block per call. Both read the same stored Glynn plan.

``mode_count_distribution`` gives the exact probabilities of each photon
count in one output mode for a Fock input, in rational arithmetic from the
standard library alone: the oracle of the marginals of
``photonlift.lift.transition_distribution``, and at two modes of the whole
distribution.

``write_matrix_one_pass`` formats a whole matrix file in one ``%`` format
and writes it in one call, the byte oracle of ``photonlift.io.write_matrix``,
which formats and writes a block of entries at a time.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import photonlift.verify as verify
from photonlift.fock import _ladder_table, _mode_number, _photon_number, _whole_number
from photonlift.lift import _glynn_plan
from photonlift.matfuncs import _as_square, _exp_i_hermitian, frobenius_norm


@dataclass(frozen=True)
class EighDiagram:
    """Residuals of the diagram check by a dense ``eigh`` of the lifted H."""

    residual_diagram: float
    residual_unitarity: float
    residual_hermiticity: float
    sparsity_violations: int
    passed: bool


def diagram_by_eigh(h_single, photons: int, tol: float = 1e-8) -> EighDiagram:
    """Compare lift_U(e^{iH}) with exp(i lift_H(H)) taken by an M x M ``eigh``."""
    matrix = _as_square(h_single)
    lifted_h = verify.lift_hamiltonian(matrix, photons, tol=tol)
    lifted = lifted_h.matrix
    (group,) = verify._expansion_lifts([_exp_i_hermitian(matrix)], photons)
    values, vectors = np.linalg.eigh((lifted + lifted.conj().T) / 2)
    algebra = (vectors * np.exp(1j * values)) @ vectors.conj().T
    eye = np.eye(len(group), dtype=complex)
    residual_diagram = frobenius_norm(group - algebra)
    residual_unitarity = frobenius_norm(group.conj().T @ group - eye)
    residual_hermiticity = frobenius_norm(lifted - lifted.conj().T)
    violations = verify._count_sparsity_violations(lifted_h)
    passed = (
        residual_diagram <= tol
        and residual_unitarity <= tol
        and residual_hermiticity <= tol
        and violations == 0
    )
    return EighDiagram(
        residual_diagram,
        residual_unitarity,
        residual_hermiticity,
        violations,
        passed,
    )


def sweep_by_checks(
    modes: int,
    photons: int,
    trials: int,
    seed: int = verify.DEFAULT_SEED,
    tol: float = 1e-8,
    homomorphism_tol: float = 1e-9,
    phase_tol: float = 1e-10,
) -> list[tuple[str, int, object]]:
    """The seeded sweep by the public ``check_*`` calls, one check at a time.

    Draws what ``run_sweep`` draws, in the same order, and leaves the
    checks of photons and tolerances to the check that first receives them.
    """
    trials = _whole_number(trials, 1, "trial counts must be whole numbers")
    modes = _mode_number(modes)
    rng = np.random.default_rng(seed)
    results: list[tuple[str, int, object]] = []
    for trial in range(trials):
        hermitian = verify.random_hermitian(modes, rng)
        results.append(("diagram", trial, verify.check_diagram(hermitian, photons, tol)))
        first = verify.random_unitary(modes, rng)
        second = verify.random_unitary(modes, rng)
        homomorphism = verify.check_homomorphism(first, second, photons, homomorphism_tol)
        results.append(("homomorphism", trial, homomorphism))
        phase = rng.uniform(-np.pi, np.pi)
        scattering = verify.random_unitary(modes, rng)
        global_phase = verify.check_global_phase(scattering, phase, photons, phase_tol)
        results.append(("global_phase", trial, global_phase))
    return results


def sparsity_violations_by_distance(lifted) -> int:
    """Non-zero entries of a lifted H at occupation L1 distance above 2."""
    occupations = lifted.basis.occupations
    rows, columns = np.nonzero(lifted.matrix)
    distance = np.abs(occupations[rows] - occupations[columns]).sum(axis=1)
    return int(np.count_nonzero(distance > 2))


def rank_occupations(occupations, photons: int) -> np.ndarray:
    """Canonical positions of the rows of an occupation array.

    Every row must hold ``photons`` photons, all counts >= 0. The states
    before a row are, for each mode i but the last, those that agree with
    it before i and hold more photons at i: C(left - 1 + s, s) of them,
    where ``left`` is what the row leaves for the s modes after i.
    """
    occupations = np.asarray(occupations, dtype=np.intp)
    modes = occupations.shape[-1]
    # binomials[left, s] = C(left - 1 + s, s); 0 when no photon is left.
    binomials = np.array(
        [
            [math.comb(left - 1 + s, s) if left else 0 for s in range(modes)]
            for left in range(photons + 1)
        ],
        dtype=np.intp,
    )
    remaining = photons - np.cumsum(occupations[..., :-1], axis=-1)
    slots_after = np.arange(modes - 1, 0, -1)
    return binomials[remaining, slots_after].sum(axis=-1)


def lift_columns_by_scatter(matrices, photons: int, state=None) -> np.ndarray:
    """``lift._fill_lift_columns`` with complex products and a complex division.

    Returns the 2-D (M, k * W) block for every column (W = M) or for the
    column of the occupation ``state`` alone (W = 1). The same levels,
    mode order and scatter through the ladder table, so the result must be
    the same array, bit for bit. Which photon each column sheds is worked
    out here from the occupations, not read from the walk's plans: l is the
    first occupied mode, by ``argmax``, the column below is
    ``rank_occupations`` of q - e_l, and the divisor is sqrt(q_l). One
    input's column is traced down from its own occupation by the same rule.
    """
    stack = np.reshape(matrices, (-1, *np.shape(matrices)[-2:]))
    count, modes = stack.shape[:2]
    sources = stack.transpose(1, 0, 2)
    occupations = None if state is None else np.array([state], dtype=np.intp)
    levels = []
    for level in range(photons, 0, -1):
        table = _ladder_table(modes, level)
        if state is None:
            occupations = table.basis.occupations
        rows = np.arange(len(occupations))
        first = np.argmax(occupations > 0, axis=1)
        coef = np.sqrt(occupations[rows, first])
        occupations = occupations.copy()
        occupations[rows, first] -= 1
        gather = rank_occupations(occupations, level - 1) if state is None else [0]
        levels.append((table, first, gather, coef))
    block = np.ones((1, count, 1), dtype=complex)
    for table, first, gather, coef in reversed(levels):
        shed = block[:, :, gather]
        weights = sources[:, :, first]
        block = np.zeros((len(table.basis), *shed.shape[1:]), dtype=complex)
        for mode in range(modes):
            terms = table.up_coef[mode, :, None, None] * shed
            terms *= weights[mode]
            block[table.up[mode]] += terms
        block = block / coef
    return block.reshape(len(block), -1)


def mode_count_distribution(scattering, state, mode: int) -> list[Fraction]:
    """Exact P(n_j = c), c = 0..n, for the output mode j = ``mode``.

    The input is the occupation ``state`` of n photons and S the given
    floating-point ``scattering``, whose |S_jl|^2 are exact rationals
    from each entry's real and imaginary parts. With

        E_k = [t^k] prod_l sum_a C(q_l, a) (|S_jl|^2 t)^a / a!,

    k! E_k is the mean of C(n_j, k), and inverting those binomial moments gives

        P(n_j = c) = sum_{k >= c} k! E_k C(k, c) (-1)^(k - c).

    The probabilities sum to exactly 1 for any S: that sum is 0! E_0.

    Every part of a float is an integer over a power of two, so the whole
    sum runs in Python ints: |S_jl|^2 = w_l / 4^e over one common 4^e.
    The moments m_k = 4^(e k) k! E_k multiply as exponential generating
    functions, m_k = sum_a C(k, a) C(q_l, a) w_l^a m'_(k - a) per mode, and
    each probability is an integer over 4^(e n), reduced by ``Fraction``.
    """
    # Each part is num / 2^r; as_integer_ratio gives the power of two as is.
    ratios = [
        part.as_integer_ratio()
        for entry in map(complex, scattering[mode])
        for part in (entry.real, entry.imag)
    ]
    shifts = [denominator.bit_length() - 1 for _, denominator in ratios]
    shift = max(shifts)
    squares = [
        numerator**2 << 2 * (shift - own) for (numerator, _), own in zip(ratios, shifts)
    ]
    moments = [1]
    for real, imaginary, held in zip(squares[::2], squares[1::2], state):
        weight = real + imaginary
        factor = [math.comb(held, a) * weight**a for a in range(held + 1)]
        product = [0] * (len(moments) + held)
        for low, left in enumerate(moments):
            for high, right in enumerate(factor):
                product[low + high] += math.comb(low + high, high) * left * right
        moments = product
    photons = len(moments) - 1
    unit = 4**shift
    # m_k / 4^(e k) over the common denominator 4^(e n).
    scaled = [moment * unit ** (photons - k) for k, moment in enumerate(moments)]
    return [
        Fraction(
            sum(scaled[k] * math.comb(k, c) * (-1) ** (k - c) for k in range(c, photons + 1)),
            unit**photons,
        )
        for c in range(photons + 1)
    ]


def lift_permanent_by_passes(scattering, photons: int) -> np.ndarray:
    """The permanent lift of ``scattering``, one fresh array per pass step.

    Takes the Glynn plan's passes in order: a power table by repeated
    multiplication, a product of gathered powers mode by mode, the weights,
    and one ``np.add.reduceat`` per pass into the lift's columns; then one
    division by sqrt(prod_j p_j! prod_l q_l!). Photons at most
    ``PERMANENT_SIZE_LIMIT``, which ``lift_unitary_permanent`` checks.
    """
    matrix = _as_square(scattering)
    photons = _photon_number(photons)
    plan = _glynn_plan(_mode_number(matrix.shape[0]), photons)
    basis = plan.basis
    if photons == 0:
        return np.ones((1, 1), dtype=complex)
    occupations = basis.occupations
    modes, size = basis.modes, len(basis)
    sums = matrix @ plan.counts
    lifted = np.empty((size, size), dtype=complex)
    for columns, vectors, starts in plan.passes:
        width = vectors.stop - vectors.start
        powers = np.empty((modes, photons + 1, width), dtype=complex)
        powers[:, 0] = 1
        powers[:, 1] = sums[:, vectors]
        for k in range(2, photons + 1):
            np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
        products = powers[0, occupations[:, 0]]
        for mode in range(1, modes):
            products *= powers[mode, occupations[:, mode]]
        products *= plan.weights[vectors]
        np.add.reduceat(products, starts, axis=1, out=lifted[:, columns])
    norms = np.outer(plan.factorials, plan.factorials)
    np.sqrt(norms, out=norms)
    lifted /= norms
    return lifted


def write_matrix_one_pass(matrix, path, metadata=None) -> None:
    """Write the matrix file of ``write_matrix`` from one formatted string.

    Takes finite 2-D input and string metadata, which ``write_matrix``
    checks.
    """
    out = np.asarray(matrix, dtype=complex)
    rows, cols = out.shape
    values = np.ascontiguousarray(out).view(np.float64).ravel().tolist()
    data = ",\n".join(["  [%r, %r]"] * (rows * cols)) % tuple(values)
    lines = ["{", f' "rows": {rows},', f' "cols": {cols},', ' "data": [', data]
    if metadata:
        lines.append(" ],")
        lines.append(f' "metadata": {json.dumps(metadata, sort_keys=True)}')
    else:
        lines.append(" ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
