"""Dense complex matrix functions: unitarity tests, exp, principal log, permanent.

Conventions used throughout the package:

* A matrix is "unitary within tol" when the Frobenius norm of A^dag A - I
  is at most tol, and "Hermitian within tol" when ||A - A^dag||_F <= tol.
* The logarithm of a unitary takes eigenphases in the principal branch
  (-pi, pi], with the eigenvalue -1 mapped to +pi.

All functions are pure; no input is mutated.

``unitary_logarithm`` uses numpy alone. ``scipy.linalg`` is imported only
by ``matrix_exponential`` on non-normal input, for ``expm``, because
loading it costs more than the rest of the package together and no CLI
command reaches that branch.
"""

import numpy as np

__all__ = [
    "PERMANENT_SIZE_LIMIT",
    "NotUnitaryError",
    "NotHermitianError",
    "frobenius_norm",
    "is_unitary",
    "is_hermitian",
    "matrix_exponential",
    "unitary_logarithm",
    "permanent",
]

# Most photons the permanent lift accepts, and the largest matrix
# ``permanent`` accepts. For the lift, by Glynn's formula, the bound is one
# of accuracy: its rounding grows with the photons piled into a mode.
# Against an exact oracle its error measured 1.6e-12 at (m, n) = (2, 20)
# and 3.0e-10 at (2, 30). Its Frobenius gap to the expansion lift of the
# same matrix, on ``verify.random_unitary(2, rng)`` for rng seeds 0-4,
# measured 1.5e-12 to 2.5e-12 at (2, 20) and 2.1e-10 to 5.8e-10 at
# (2, 30): about 150 times wider for ten more photons, and at 30 already
# within a factor of two of the 1e-9 homomorphism tolerance, the distance
# the benchmark's cross-check allows between the two lifts too. Ryser's
# formula in ``permanent`` takes 2^k Gray-code steps in Python for a k x k
# input.
PERMANENT_SIZE_LIMIT = 30

# Relative threshold below which a matrix is routed to the exact
# eigendecomposition path of matrix_exponential.
_STRUCTURE_GUARD = 1e-14

# Eigenphases this close to -pi are snapped to +pi so eigenvalues that are
# -1 up to rounding land on the documented branch.
_BRANCH_SNAP = 1e-12


class NotUnitaryError(ValueError):
    """Input expected to be unitary within tolerance is not."""


class NotHermitianError(ValueError):
    """Input expected to be Hermitian within tolerance is not."""


def _as_square(matrix) -> np.ndarray:
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return out


def frobenius_norm(matrix) -> float:
    """sqrt(sum |a_ij|^2) over every entry, as one BLAS dot of the entries.

    Works on any array shape and layout; a contiguous input, in either
    order, is read in place with no temporary. Complex entries are read as
    their real and imaginary parts, so the dot has no cross terms, and
    integer and boolean input is converted to float first, so squares
    cannot wrap around. Like ``np.linalg.norm(matrix, "fro")``, NaN gives
    nan, an infinite entry gives inf and squares past the float range
    overflow to inf; the two differ only in summation order, by a relative
    ~1e-16 * sqrt(size).
    """
    entries = np.asarray(matrix)
    if entries.dtype.kind not in "fc":
        entries = entries.astype(float)
    entries = entries.ravel(order="K")
    if entries.dtype.kind == "c":
        entries = entries.view(entries.real.dtype)
    return float(np.sqrt(np.dot(entries, entries)))


def _check_tol(tol: float) -> None:
    """Refuse a NaN or negative tolerance, the one rule of every public ``tol``."""
    if tol != tol:
        raise ValueError(f"tolerance must be a number, got {tol}")
    if tol < 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")


def is_unitary(matrix, tol: float) -> bool:
    """True when A^dag A is the identity to within ``tol`` (Frobenius)."""
    _check_tol(tol)
    out = _as_square(matrix)
    eye = np.eye(out.shape[0], dtype=complex)
    return frobenius_norm(out.conj().T @ out - eye) <= tol


def is_hermitian(matrix, tol: float) -> bool:
    """True when A equals its conjugate transpose to within ``tol``."""
    _check_tol(tol)
    out = _as_square(matrix)
    return frobenius_norm(out - out.conj().T) <= tol


def _eigh_hermitian_part(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of (A + A^dag) / 2, by ``eigh``.

    ``matrix`` is one square complex matrix or a stack of them, shape
    (k, m, m); a stack takes one ``eigh`` call, and each of its matrices
    gets the same result as on its own. The eigenvectors are orthonormal to
    rounding even where eigenvalues coincide or nearly do.
    """
    hermitian = matrix + np.swapaxes(matrix.conj(), -1, -2)
    hermitian /= 2
    return np.linalg.eigh(hermitian)


def _exp_i_eigh(
    phases: np.ndarray, vectors: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """V e^{i Lambda} V^dag from ``eigh`` output, for one matrix or a stack.

    The product is written into ``out`` when it is given, an array of the
    result's shape whose matrices are C-contiguous.
    """
    scaled = vectors * np.exp(1j * phases)[..., None, :]
    return np.matmul(scaled, vectors.conj().swapaxes(-1, -2), out=out)


def _exp_i_hermitian(matrix: np.ndarray) -> np.ndarray:
    """e^{iH} for H the Hermitian part (A + A^dag) / 2 of a square complex A.

    Takes ``eigh`` of H and rebuilds V e^{i Lambda} V^dag, so the result is
    unitary to rounding even when A is Hermitian only within a tolerance;
    the anti-Hermitian part is dropped, not exponentiated. Callers check
    the input; nothing here probes its structure.
    """
    return _exp_i_eigh(*_eigh_hermitian_part(matrix))


def matrix_exponential(matrix) -> np.ndarray:
    """Matrix exponential e^A.

    Hermitian and skew-Hermitian inputs go through an eigendecomposition,
    which keeps exp(i H) unitary to rounding for Hermitian H; skew-Hermitian
    input takes the ``_exp_i_hermitian`` route that ``verify`` uses for its
    m x m exponentials. The route is chosen by Frobenius norms of A +- A^dag
    against a relative 1e-14. Anything else falls back to
    scaling-and-squaring.
    """
    out = _as_square(matrix)
    scale = max(1.0, frobenius_norm(out))
    adjoint = out.conj().T
    if frobenius_norm(out + adjoint) <= _STRUCTURE_GUARD * scale:
        return _exp_i_hermitian(-1j * out)
    if frobenius_norm(out - adjoint) <= _STRUCTURE_GUARD * scale:
        symmetric = (out + adjoint) / 2
        values, vectors = np.linalg.eigh(symmetric)
        return (vectors * np.exp(values)) @ vectors.conj().T
    import scipy.linalg

    return scipy.linalg.expm(out)


def unitary_logarithm(matrix, tol: float = 1e-9) -> np.ndarray:
    """Hermitian H with e^{iH} equal to the given unitary.

    Eigenphases are taken in (-pi, pi] with -1 mapped to +pi. The
    eigenbasis comes from a Hermitian function of U, with numpy alone. A
    unitary is normal, so every function of it shares its eigenvectors.
    First U is rotated to W = e^{-i alpha} U so that the middle of the
    widest gap between its eigenphases (at least 2 pi / m wide) lands on
    -1. Every eigenvalue of W then stays at least pi / m from -1, so I + W
    is invertible with norm of its inverse at most about m / pi, and the
    half-angle Cayley transform K = i (I + W)^{-1} (I - W) is Hermitian,
    with eigenvalue tan((phi - alpha) / 2) for each eigenphase phi of U.
    That map is strictly increasing on the circle minus the cut, so
    distinct eigenphases stay distinct eigenvalues of K and ``eigh(K)``
    returns an orthonormal eigenbasis V of U. Each phase is then read off
    U itself as the Rayleigh quotient angle(v^dag U v). Degenerate
    eigenphases need no special handling because any orthonormal basis of
    the eigenspace reassembles to the same H.

    The log of a lift is the lift of the log, ``unitary_logarithm(
    lift_U(S)) == lift_H(unitary_logarithm(S))``, exactly when every
    lifted eigenphase, a sum of n eigenphases of S, stays in (-pi, pi];
    n * max|phi| < pi is enough. Past that the lifted phases wrap around
    and the two differ.
    """
    out = _as_square(matrix)
    if not is_unitary(out, tol):
        raise NotUnitaryError(
            f"matrix is not unitary within tolerance {tol}"
        )
    size = out.shape[0]
    if size == 0:
        return np.zeros((0, 0), dtype=complex)
    ordered = np.sort(np.angle(np.linalg.eigvals(out)))
    gaps = np.diff(ordered, append=ordered[0] + 2 * np.pi)
    widest = np.argmax(gaps)
    alpha = ordered[widest] + gaps[widest] / 2 - np.pi
    rotated = np.exp(-1j * alpha) * out
    eye = np.eye(size, dtype=complex)
    cayley = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    _, vectors = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    phases = np.angle(np.einsum("ij,ij->j", vectors.conj(), out @ vectors))
    phases = np.where(phases <= -np.pi + _BRANCH_SNAP, phases + 2 * np.pi, phases)
    log = (vectors * phases) @ vectors.conj().T
    return (log + log.conj().T) / 2


def permanent(matrix) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code updates.

    Runs in O(2^k * k) for a k x k input and refuses k above
    PERMANENT_SIZE_LIMIT. Subset sums are accumulated in a fixed sequential
    order, so the result is reproducible bit for bit. This is the scalar
    reference: the tests compare every entry of
    ``lift.lift_unitary_permanent``, which sums over repeated columns by
    Glynn's formula instead, against it.
    """
    out = _as_square(matrix)
    size = out.shape[0]
    if size > PERMANENT_SIZE_LIMIT:
        raise ValueError(
            f"permanent limited to {PERMANENT_SIZE_LIMIT}x{PERMANENT_SIZE_LIMIT}, "
            f"got {size}x{size}"
        )
    if size == 0:
        return 1 + 0j
    if size == 1:
        return complex(out[0, 0])
    if size == 2:
        return complex(out[0, 0] * out[1, 1] + out[0, 1] * out[1, 0])

    columns = np.ascontiguousarray(out.T)
    row_sums = np.zeros(size, dtype=complex)
    total = 0j
    for step in range(1, 1 << size):
        flipped = (step & -step).bit_length() - 1
        subset = step ^ (step >> 1)
        if (subset >> flipped) & 1:
            row_sums += columns[flipped]
        else:
            row_sums -= columns[flipped]
        term = np.prod(row_sums)
        total += -term if subset.bit_count() & 1 else term
    return complex(total if size % 2 == 0 else -total)
