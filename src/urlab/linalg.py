"""Hermitian matrix machinery: Gram matrices, positivity, characteristic coefficients.

Characteristic coefficients of an n x n matrix M are defined through the
secular equation det(M - x) = sum_r C_r(M) (-x)^(n-r) with C_0 = 1; C_r equals
the sum of all r x r principal minors of M, so C_1 = tr M and C_n = det M.
Every C_r is computed as e_r of the spectrum by one recurrence
(char_coeffs_from_eigs), and every psd verdict is psd_certified.
All checks in this module are plain finite-dimensional linear algebra in
double precision. The Hermiticity and psd tolerances below, and the moment
realness audit, are 1e-10 relative; at the largest admitted dimension, 512,
matrices that are Hermitian, psd or real only up to rounding miss them by
about 1e-15 relative, so every admitted dimension keeps a wide margin.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Mapping
from itertools import chain

import numpy as np

from .errors import InputError, NumericError

# Positivity certificates: smallest eigenvalue >= -TOL_PSD * max(1, ||H||).
TOL_PSD = 1e-10
# Relative slack tolerance for inequality checks and saturation flags.
SLACK_RTOL = 1e-8
# Hermiticity: max |M - M^dag| entry <= HERM_RTOL * max |M| entry.
HERM_RTOL = 1e-10

MAX_ORDER = 32

# what the scalar readers take; a Python bool is an int and is refused apart,
# a numpy bool is none of these
_REALS = (int, float, np.integer, np.floating)
_NUMBERS = (int, float, complex, np.number)
_SEED_MASK = 2**64 - 1
# what the sequence reader takes: a str or a set is not a sequence of numbers
_SEQUENCES = (list, tuple, range, np.ndarray)


def slack_scale(lhs: float, rhs: float) -> float:
    """Scale used for relative slack comparison, floored at 1."""
    return max(abs(lhs), abs(rhs), 1.0)


def slack_tolerance(lhs: float, rhs: float) -> float:
    return SLACK_RTOL * slack_scale(lhs, rhs)


def as_numbers(a, name: str) -> np.ndarray:
    """The package's one reader of numeric arrays: ``a`` as a C-contiguous complex
    ndarray (no copy if it is one) of finite integer, unsigned, float or complex
    entries. Bool, string, object or ragged input, NaN and infinity are refused.
    A list or tuple is read leaf by leaf, as numpy reads [True, 1.5] as floats:
    Python or numpy numbers, not bools, integers beyond int64 included."""
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged nesting
        raise InputError(f"{name} must be an array of numbers") from None
    if isinstance(a, (list, tuple)):
        leaves = a
        for _ in range(arr.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if not all(issubclass(t, _NUMBERS) and t is not bool for t in set(map(type, leaves))):
            raise InputError(f"{name} must be an array of numbers")
    elif arr.dtype.kind not in "iufc":
        raise InputError(f"{name} must be an array of numbers")
    try:
        arr = np.asarray(arr, dtype=complex, order="C")
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{name} contains non-finite entries") from None
    if not np.isfinite(arr.ravel().view(float)).all():  # the float view: cheaper than on complex
        raise InputError(f"{name} contains non-finite entries")
    return arr


def as_integer(value, name: str, lo: int, hi: int = sys.maxsize) -> int:
    """The package's one reader of integer arguments (counts, slots, orders,
    dimensions): a Python or numpy integer in lo..hi, as int; a bool is not an
    integer here. `hi` defaults to the largest array size, sys.maxsize."""
    if type(value) is int or isinstance(value, np.integer):
        n = int(value)
        if lo <= n <= hi:
            return n
    raise InputError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")


def as_seed(value) -> int:
    """The package's one reader of seeds: any Python or numpy integer, not a
    bool, reduced mod 2^64, so that 0..2^64-1 are read as they are and a
    negative seed names the stream of its 64-bit two's complement."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value) & _SEED_MASK
    raise InputError(f"seed must be an integer, got {value!r}")


def as_real(value, name: str, lo: float = -math.inf) -> float:
    """The package's one reader of real arguments: a Python or numpy integer
    or float, not a bool, finite (an integer too large for a float is not)
    and >= lo, as float."""
    if type(value) is float or (isinstance(value, _REALS) and type(value) is not bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.nan
        if lo <= x and math.isfinite(x):  # a NaN fails the first test
            return x
    floor = "" if lo == -math.inf else f" >= {lo:g}"
    raise InputError(f"{name} must be a finite real number{floor}, got {value!r}")


def as_complex(value, name: str) -> complex:
    """The package's one reader of complex arguments: a Python or numpy
    number, not a bool, finite (an integer too large for a float is not), as
    complex."""
    if type(value) is complex or (isinstance(value, _NUMBERS) and type(value) is not bool):
        try:
            z = complex(value)
        except OverflowError:  # an integer beyond the float range
            z = complex(math.nan)
        if cmath.isfinite(z):
            return z
    raise InputError(f"{name} must be a finite complex number, got {value!r}")


def as_choice(value, name: str, choices) -> str:
    """The package's one reader of enumerated arguments (check ids, variants,
    flavors, h_choice, sample kinds): a str among ``choices``, as it is; the
    str test comes first, so no list, dict or array is hashed or compared."""
    if isinstance(value, str) and value in choices:
        return value
    raise InputError(f"unknown {name} {value!r}; expected one of: {', '.join(choices)}")


def as_container(value, name: str, shape: str):
    """The package's one reader of container arguments, as they are: ``shape``
    "mapping" (extras, fixed states, scan pins) takes a Mapping, or None as a
    new {}; "sequence" (free slots, dims) takes a list, tuple, range or ndarray."""
    if shape == "mapping" and value is None:
        return {}
    if isinstance(value, Mapping if shape == "mapping" else _SEQUENCES):
        return value
    raise InputError(f"{name} must be a {shape}, got {value!r}")


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """`as_numbers`, for a square matrix."""
    a = as_numbers(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max(initial=0.0))


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_square_matrix(m, name)
    defect = hermiticity_defect(a)
    if defect > HERM_RTOL * max(float(np.abs(a).max(initial=0.0)), 1e-300):
        raise InputError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def gram(vectors) -> np.ndarray:
    """Gram matrix G_ij = <v_i | v_j> of a list of equal-length complex vectors.

    The vectors may be unnormalized. The result is Hermitian positive
    semidefinite by construction (re-symmetrized to kill roundoff asymmetry).
    """
    stack = as_numbers(vectors, "gram input")
    if stack.ndim == 0 or len(stack) == 0:
        raise InputError("gram requires at least one vector")
    stack = stack.reshape(len(stack), -1)
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


def psd_certified(w: np.ndarray) -> bool:
    """The package's psd certificate on an ascending Hermitian spectrum w."""
    return w[0] >= -TOL_PSD * max(1.0, abs(w[-1]))


def is_psd(h) -> bool:
    a = require_hermitian(h, "is_psd input")
    return psd_certified(np.linalg.eigvalsh(a))


def char_coeffs_from_eigs(eigs: np.ndarray) -> np.ndarray:
    """Characteristic coefficients (C_1 .. C_n) as elementary symmetric functions.

    The recurrence e_j += x e_(j-1) over the eigenvalues x adds only nonnegative
    terms for a psd spectrum, so each e_r is accurate to a small multiple of the
    unit roundoff relative to itself (Higham, Accuracy and Stability, ch. 4).
    """
    eigs = np.asarray(eigs)
    e = np.zeros(eigs.size + 1, dtype=eigs.dtype)
    e[0] = 1.0
    for x in eigs:
        e[1:] += x * e[:-1]
    return e[1:]


def _antisym_coeffs(a: np.ndarray) -> np.ndarray:
    # iA is Hermitian with spectrum +-w_k (and 0 for odd n), so det(A - x) is a product
    # of (x^2 + w_k^2): C_2j = e_j(w_k^2) over w_k >= 0, and every odd order is 0.
    w = np.linalg.eigvalsh(1j * a)
    n = w.size
    coeffs = np.zeros(n)
    coeffs[1::2] = char_coeffs_from_eigs(w[n - n // 2 :] ** 2)
    return coeffs


def char_coeffs(m) -> np.ndarray:
    """Characteristic coefficients C_1 .. C_n of a square matrix.

    The eigen-solver follows from the input: a real antisymmetric matrix
    goes through _antisym_coeffs, a Hermitian one through eigvalsh, and any
    other through eigvals, whose coefficients are audited for realness.

    Parameters
    ----------
    m : array_like
        Square matrix with real characteristic coefficients (Hermitian, real,
        or real-antisymmetric inputs all qualify).

    Returns
    -------
    ndarray of shape (n,) with C_r at index r-1. C_1 is the trace, C_n the
    determinant.
    """
    a = as_square_matrix(m, "char_coeffs input")
    n = a.shape[0]
    if n > MAX_ORDER:
        raise InputError(f"char_coeffs supports n <= {MAX_ORDER}, got {n}")
    real = not a.imag.any()
    try:
        if real and np.array_equal(a.real, -a.real.T):
            return _antisym_coeffs(a.real)
        if np.array_equal(a, a.conj().T):
            return char_coeffs_from_eigs(np.linalg.eigvalsh(a.real if real else a))
        coeffs = char_coeffs_from_eigs(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc
    scale = max(1.0, float(np.abs(coeffs).max(initial=0.0)))
    resid = float(np.abs(coeffs.imag).max(initial=0.0))
    if resid > 1e-8 * scale:
        raise NumericError(
            f"characteristic coefficients are not real (residue {resid:.3e}); "
            "input matrix has genuinely complex principal minors"
        )
    return coeffs.real


def _certified_sum(h_list, r: int) -> tuple[list, np.ndarray]:
    """Eigensystems of a list of psd Hermitian matrices, negatives clamped, and
    the sum of the clamped matrices.

    Raises InputError for an empty list, naming the first member that fails
    the psd certificate, and for an order r that is not an integer in 1..n.
    """
    if len(h_list) == 0:
        raise InputError("a characteristic gap takes at least one matrix")
    systems = []
    for i, h in enumerate(h_list):
        a = require_hermitian(h, f"matrix {i}")
        if i == 0:
            dim = a.shape[0]
        elif a.shape[0] != dim:
            raise InputError(f"matrix {i} has dimension {a.shape[0]}, expected {dim}")
        w, v = np.linalg.eigh(a)
        if not psd_certified(w):
            raise InputError(
                f"matrix {i} is not positive semidefinite (min eigenvalue {w[0]:.3e})"
            )
        systems.append((np.maximum(w, 0.0), v))
    as_integer(r, "order r", 1, dim)
    return systems, sum((v * w) @ v.conj().T for w, v in systems)


def entangled_char_pair(h_list, r: int) -> tuple[float, float]:
    """(C_r(S_1+..+S_m), C_r(A_1+..+A_m)) for psd Hermitian inputs H_k = S_k + iA_k."""
    s_sum, a_sum = split(_certified_sum(h_list, r)[1])
    lhs = char_coeffs_from_eigs(np.maximum(np.linalg.eigvalsh(s_sum), 0.0))
    rhs = _antisym_coeffs(a_sum)
    return float(lhs[r - 1]), float(rhs[r - 1])


def entangled_char_gap(h_list, r: int) -> float:
    """C_r(sum of real parts) - C_r(sum of imaginary parts); >= 0 for psd inputs."""
    lhs, rhs = entangled_char_pair(h_list, r)
    return lhs - rhs


def superadditive_char_pair(h_list, r: int) -> tuple[float, float]:
    """(C_r(H_1+..+H_m), sum_k C_r(H_k)) for psd Hermitian inputs."""
    systems, total = _certified_sum(h_list, r)
    w_tot = np.maximum(np.linalg.eigvalsh(total), 0.0)
    lhs = char_coeffs_from_eigs(w_tot)[r - 1]
    rhs = sum(char_coeffs_from_eigs(w)[r - 1] for w, _ in systems)
    return float(lhs), float(rhs)


def superadditive_char_gap(h_list, r: int) -> float:
    """C_r(sum) - sum of C_r; >= 0 for psd inputs, identically 0 at r = 1."""
    lhs, rhs = superadditive_char_pair(h_list, r)
    return lhs - rhs
