"""Hermitian matrix machinery: Gram matrices, positivity, characteristic coefficients.

Characteristic coefficients of an n x n matrix M are defined through the
secular equation det(M - x) = sum_r C_r(M) (-x)^(n-r) with C_0 = 1; C_r equals
the sum of all r x r principal minors of M, so C_1 = tr M and C_n = det M.
All checks in this module are plain finite-dimensional linear algebra in
double precision; tolerances below are calibrated for dimensions up to 128.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InputError, NumericError

# Positivity certificates: smallest eigenvalue >= -TOL_PSD * max(1, ||H||).
TOL_PSD = 1e-10
# Relative slack tolerance for inequality checks and saturation flags.
SLACK_RTOL = 1e-8
# Hermiticity: max |M - M^dag| entry <= HERM_RTOL * max |M| entry.
HERM_RTOL = 1e-10

MAX_ORDER = 32


def slack_scale(lhs: float, rhs: float) -> float:
    """Scale used for relative slack comparison, floored at 1."""
    return max(abs(lhs), abs(rhs), 1.0)


def slack_tolerance(lhs: float, rhs: float) -> float:
    return SLACK_RTOL * slack_scale(lhs, rhs)


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a.view(float)).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max(initial=0.0))


def is_hermitian(m: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    scale = float(np.abs(m).max(initial=0.0))
    return hermiticity_defect(m) <= rtol * max(scale, 1e-300)


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_square_matrix(m, name)
    if not is_hermitian(a):
        raise InputError(f"{name} is not Hermitian (defect {hermiticity_defect(a):.3e})")
    return a


def gram(vectors) -> np.ndarray:
    """Gram matrix G_ij = <v_i | v_j> of a list of equal-length complex vectors.

    The vectors may be unnormalized. The result is Hermitian positive
    semidefinite by construction (re-symmetrized to kill roundoff asymmetry).
    """
    if len(vectors) == 0:
        raise InputError("gram requires at least one vector")
    arrs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    dim = arrs[0].size
    for i, v in enumerate(arrs):
        if v.size != dim:
            raise InputError(f"vector {i} has length {v.size}, expected {dim}")
    stack = np.array(arrs)
    g = stack.conj() @ stack.T
    return (g + g.conj().T) / 2


def split(h) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian matrix into real symmetric and imaginary antisymmetric parts.

    Returns (S, A) with H = S + iA, S = S^T and A = -A^T.
    """
    a = require_hermitian(h, "split input")
    s = a.real.copy()
    im = a.imag.copy()
    s = (s + s.T) / 2
    im = (im - im.T) / 2
    return s, im


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The positive-semidefiniteness verdict used throughout the package is
    min_eigenvalue(H) >= -TOL_PSD * max(1, ||H||_2).
    """
    a = require_hermitian(h, "min_eigenvalue input")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc
    return float(w[0])


def is_psd(h) -> bool:
    a = require_hermitian(h, "is_psd input")
    w = np.linalg.eigvalsh(a)
    return w[0] >= -TOL_PSD * max(1.0, abs(w[-1]), abs(w[0]))


def clamp_psd(h) -> np.ndarray:
    """Reconstruct a certified-psd matrix with negative eigenvalues clamped to zero.

    Prevents sign noise from near-zero eigenvalues in downstream determinants.
    """
    a = require_hermitian(h, "clamp_psd input")
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def char_coeffs_from_eigs(eigs: np.ndarray) -> np.ndarray:
    """Characteristic coefficients (C_1 .. C_n) as elementary symmetric functions.

    np.poly returns the monic polynomial prod(x - e_k) whose coefficient of
    x^(n-r) is (-1)^r e_r(eigs).
    """
    eigs = np.asarray(eigs)
    n = eigs.size
    if n == 0:
        return np.zeros(0)
    poly = np.poly(eigs)
    signs = (-1.0) ** np.arange(1, n + 1)
    return signs * poly[1:]


def _char_coeffs_minors(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    out = np.zeros(n, dtype=complex)
    idx = range(n)
    for r in range(1, n + 1):
        acc = 0.0 + 0.0j
        for rows in combinations(idx, r):
            sub = m[np.ix_(rows, rows)]
            acc += np.linalg.det(sub)
        out[r - 1] = acc
    return out


def char_coeffs(m, method: str = "auto") -> np.ndarray:
    """Characteristic coefficients C_1 .. C_n of a square matrix.

    Parameters
    ----------
    m : array_like
        Square matrix with real characteristic coefficients (Hermitian, real,
        or real-antisymmetric inputs all qualify).
    method : {"auto", "minors", "eig"}
        "minors" sums all principal minors (exact semantics, n <= 8 by
        default), "eig" forms elementary symmetric functions of the spectrum.

    Returns
    -------
    ndarray of shape (n,) with C_r at index r-1. C_1 is the trace, C_n the
    determinant.
    """
    a = as_square_matrix(m, "char_coeffs input")
    n = a.shape[0]
    if n > MAX_ORDER:
        raise InputError(f"char_coeffs supports n <= {MAX_ORDER}, got {n}")
    if method not in ("auto", "minors", "eig"):
        raise InputError(f"unknown char_coeffs method {method!r}")
    if method == "minors" or (method == "auto" and n <= 8):
        coeffs = _char_coeffs_minors(a)
    else:
        try:
            eigs = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue solve failed: {exc}") from exc
        coeffs = char_coeffs_from_eigs(eigs).astype(complex)
    scale = max(1.0, float(np.abs(coeffs).max(initial=0.0)))
    resid = float(np.abs(coeffs.imag).max(initial=0.0))
    if resid > 1e-8 * scale:
        raise NumericError(
            f"characteristic coefficients are not real (residue {resid:.3e}); "
            "input matrix has genuinely complex principal minors"
        )
    return coeffs.real


def _certified_psd_eigs(h_list) -> list[np.ndarray]:
    """Eigensystems of a list of psd Hermitian matrices, negatives clamped.

    Raises InputError naming the first member that fails the psd certificate.
    """
    out = []
    dim = None
    for i, h in enumerate(h_list):
        a = require_hermitian(h, f"matrix {i}")
        if dim is None:
            dim = a.shape[0]
        elif a.shape[0] != dim:
            raise InputError(f"matrix {i} has dimension {a.shape[0]}, expected {dim}")
        w, v = np.linalg.eigh(a)
        if w[0] < -TOL_PSD * max(1.0, abs(w[-1]), abs(w[0])):
            raise InputError(
                f"matrix {i} is not positive semidefinite (min eigenvalue {w[0]:.3e})"
            )
        out.append((np.maximum(w, 0.0), v))
    return out


def _clamped(h_list) -> list[np.ndarray]:
    return [(v * w) @ v.conj().T for w, v in _certified_psd_eigs(h_list)]


def _check_order(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise InputError(f"order r={r} outside 1..{n}")


def _antisym_coeffs(a: np.ndarray) -> np.ndarray:
    # iA is Hermitian for real antisymmetric A; its spectrum times -i is A's.
    w = np.linalg.eigvalsh(1j * a)
    coeffs = char_coeffs_from_eigs(-1j * w)
    return coeffs.real


def entangled_char_pair(h_list, r: int) -> tuple[float, float]:
    """(C_r(S_1+..+S_m), C_r(A_1+..+A_m)) for psd Hermitian inputs H_k = S_k + iA_k."""
    clamped = _clamped(h_list)
    n = clamped[0].shape[0]
    _check_order(r, n)
    s_sum = sum(c.real for c in clamped)
    a_sum = sum(c.imag for c in clamped)
    s_sum = (s_sum + s_sum.T) / 2
    a_sum = (a_sum - a_sum.T) / 2
    lhs = char_coeffs_from_eigs(np.maximum(np.linalg.eigvalsh(s_sum), 0.0))
    rhs = _antisym_coeffs(a_sum)
    return float(lhs[r - 1]), float(rhs[r - 1])


def entangled_char_gap(h_list, r: int) -> float:
    """C_r(sum of real parts) - C_r(sum of imaginary parts); >= 0 for psd inputs."""
    lhs, rhs = entangled_char_pair(h_list, r)
    return lhs - rhs


def superadditive_char_pair(h_list, r: int) -> tuple[float, float]:
    """(C_r(H_1+..+H_m), sum_k C_r(H_k)) for psd Hermitian inputs."""
    systems = _certified_psd_eigs(h_list)
    n = systems[0][0].size
    _check_order(r, n)
    total = sum((v * w) @ v.conj().T for w, v in systems)
    w_tot = np.maximum(np.linalg.eigvalsh(total), 0.0)
    lhs = char_coeffs_from_eigs(w_tot)[r - 1]
    rhs = sum(char_coeffs_from_eigs(w)[r - 1] for w, _ in systems)
    return float(lhs), float(rhs)


def superadditive_char_gap(h_list, r: int) -> float:
    """C_r(sum) - sum of C_r; >= 0 for psd inputs, identically 0 at r = 1."""
    lhs, rhs = superadditive_char_pair(h_list, r)
    return lhs - rhs
