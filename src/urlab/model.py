"""Finite-dimensional states and observables: truncated Fock space, coherent and
squeezed states, spin operators, and seeded random ensembles.

Conventions: dimensionless quadratures q = (a + a†)/√2, p = (a − a†)/(i√2) in
the number basis, so [q, p] = i away from the truncation corner and the vacuum
has Δq² = Δp² = 1/2.
"""

from __future__ import annotations

import bisect
import cmath
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, TruncationError
from .linalg import as_square_matrix, psd_certified, require_hermitian

MIN_DIM = 2
MAX_DIM = 512
NORM_TOL = 1e-12

# Poisson weight allowed on levels >= N-2 for coherent states.
COHERENT_TAIL_TOL = 1e-12
# Weight of the ideal (untruncated) squeezed state allowed on levels >= N-2,
# from its three-term Fock recurrence. At the admissibility edge (|r| ~ 1 at
# N = 64) the Gaussian moment formulas hold to ~1e-6 relative; the error grows
# about as tail * N, to ~1e-5 at N = 512. Well inside (tail <= 1e-14) they hold
# to ~1e-11.
SQUEEZED_TAIL_TOL = 1e-8

_SAMPLE_KINDS = ("pure", "density", "hermitian", "psd")

# Dimensions (spin values for spin_operators) each builder cache keeps, enough
# for requests that cycle through three large dimensions such as 128, 256 and
# 512. A matrix at dimension 512 takes 4 MB, so an unbounded cache would keep
# every dimension a long-running process was ever asked for.
BUILDER_CACHE_SIZE = 4


def _check_dim(n: int) -> int:
    n = int(n)
    if not MIN_DIM <= n <= MAX_DIM:
        raise InputError(f"Hilbert dimension must lie in [{MIN_DIM}, {MAX_DIM}], got {n}")
    return n


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _sub_digest(tag: bytes, a: np.ndarray) -> bytes:
    """SHA-256 of a tag and an array's bytes: one input's share of a report's
    ``inputs_digest``."""
    h = hashlib.sha256(tag)
    h.update(np.ascontiguousarray(a))
    return h.digest()


@dataclass(frozen=True, eq=False)
class Observable:
    """A named Hermitian matrix acting on an N-dimensional Hilbert space."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, f"observable {self.name!r}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of b"O", the UTF-8 name and the matrix bytes, computed on
        first read."""
        return _sub_digest(b"O" + self.name.encode(), self.matrix)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over the shared Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).ravel()
        if not np.isfinite(a.view(float)).all():
            raise InputError("state amplitudes contain non-finite entries")
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InputError(f"pure state is not normalized (norm {nrm!r})")
        object.__setattr__(self, "amplitudes", _frozen(a))

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> PureState:
        """Wrap a complex unit vector that its builder has just made and
        normalised, without auditing or copying it; the array is frozen in place."""
        amplitudes.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of b"P" and the amplitude bytes, computed on first read."""
        return _sub_digest(b"P", self.amplitudes)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, "density matrix")
        w = np.linalg.eigvalsh(m)
        if not psd_certified(w):
            raise InputError(f"density matrix is not psd (min eigenvalue {w[0]:.3e})")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > NORM_TOL:
            raise InputError(f"density matrix trace is {tr!r}, expected 1")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of b"D" and the matrix bytes, computed on first read."""
        return _sub_digest(b"D", self.matrix)


QuantumState = PureState | DensityMatrix


def state_dim(state: QuantumState) -> int:
    if isinstance(state, (PureState, DensityMatrix)):
        return state.dim
    raise InputError(f"not a quantum state: {type(state).__name__}")


def _annihilation(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def fock_operators(n: int) -> tuple[Observable, Observable]:
    """Truncated quadratures (q, p) in the number basis, a|k> = sqrt(k)|k-1>.

    [q, p] equals i times the identity except in the bottom-right truncation
    corner, so commutator expectations are i for states with negligible weight
    on the top level.
    """
    n = _check_dim(n)
    a = _annihilation(n)
    ad = a.conj().T
    q = (a + ad) / math.sqrt(2)
    p = (a - ad) / (1j * math.sqrt(2))
    return Observable("q", q), Observable("p", p)


def _annihilation_squared(n: int) -> np.ndarray:
    """a² in the truncated number basis: sqrt(k) sqrt(k+1) on the second superdiagonal."""
    k = np.arange(1.0, n - 1)
    return np.diag(np.sqrt(k) * np.sqrt(k + 1), 2)


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def quad_plus(n: int) -> Observable:
    """The continuous-spectrum combination p² − q² = −(a² + a†²), cached per
    dimension.

    The a a† and a† a terms of p² and q² cancel, so the identity holds exactly
    for the truncated matrices too.
    """
    a2 = _annihilation_squared(_check_dim(n))
    return Observable("p2-q2", -(a2 + a2.T))


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def quad_mix(n: int) -> Observable:
    """The continuous-spectrum combination pq + qp = −i(a² − a†²), exact for the
    truncated matrices as in `quad_plus` and cached per dimension."""
    a2 = _annihilation_squared(_check_dim(n))
    return Observable("pq+qp", -1j * (a2 - a2.T))


def fock_state(k: int, n: int) -> PureState:
    n = _check_dim(n)
    if not 0 <= k < n:
        raise InputError(f"Fock level {k} outside 0..{n - 1}")
    amp = np.zeros(n, dtype=complex)
    amp[k] = 1.0
    return PureState(amp)


def coherent_state(alpha: complex, n: int) -> PureState:
    """Glauber coherent state with amplitudes ∝ alpha^k / sqrt(k!), renormalized.

    Requires the Poisson weight on levels >= n-2, the r = 0 case of the
    squeezed-state audit, to stay below 1e-12; then <q> = √2 Re(alpha),
    <p> = √2 Im(alpha) and Δq² = Δp² = 1/2 hold to ~1e-9.
    """
    n = _check_dim(n)
    if not cmath.isfinite(alpha):
        raise InputError(f"coherent state amplitude must be finite, got alpha={alpha}")
    _audit_tail(alpha, 0.0, 0.0, n, COHERENT_TAIL_TOL, "coherent state has Poisson tail")
    amp = np.zeros(n, dtype=complex)
    amp[0] = 1.0
    for k in range(1, n):
        amp[k] = amp[k - 1] * alpha / math.sqrt(k)
    return PureState._trusted(amp / np.linalg.norm(amp))


_SQRT = tuple(math.sqrt(k) for k in range(MAX_DIM))


def _ideal_tail(alpha: complex, r: float, phi: float, n: int, stop: float = -math.inf) -> float:
    """Weight of the ideal D(alpha) S(r e^{i phi}) |0> on levels >= n-2.

    The ideal state obeys (mu a + nu a†) psi = beta psi with mu = cosh r,
    nu = e^{i phi} sinh r and beta = mu alpha + nu alpha*, so with t = nu/mu
    its amplitudes follow the three-term recurrence
    sqrt(k+1) psi_{k+1} = (alpha + t alpha*) psi_k - t sqrt(k) psi_{k-1}
    from psi_0 = exp(-|alpha|^2/2 - alpha*^2 t/2) / sqrt(mu). The weight is
    non-increasing in n, also in floating point.

    The sum stops as soon as the remaining weight is <= `stop` and returns
    that partial value: the running total never decreases, so the full
    weight is <= `stop` exactly when the partial one is.
    """
    alpha = complex(alpha)
    ac = alpha.conjugate()
    t = cmath.exp(1j * phi) * math.tanh(r)
    e = math.exp(-abs(r))
    sech = 2.0 * e / (1.0 + e * e)  # 1/cosh r without overflow
    b = alpha + t * ac
    prev = 0j
    cur = cmath.exp(-0.5 * abs(alpha) * abs(alpha) - 0.5 * t * ac * ac) * math.sqrt(sech)
    total = 0.0
    for k in range(n - 2):
        total += cur.real * cur.real + cur.imag * cur.imag
        if 1.0 - total <= stop:
            break
        prev, cur = cur, (b * cur - t * _SQRT[k] * prev) / _SQRT[k + 1]
    return 1.0 - total


def _audit_tail(alpha: complex, r: float, phi: float, n: int, tol: float, what: str) -> None:
    """The Gaussian family's truncation audit: raise `TruncationError`, opening
    with `what`, unless `_ideal_tail` is <= `tol`; the hint is the smallest
    admitted dimension, bisected since the tail is non-increasing in n."""
    tail = _ideal_tail(alpha, r, phi, n, stop=tol)
    if tail <= tol:  # a NaN tail from overflowing parameters is rejected everywhere
        return
    dims = range(n + 1, MAX_DIM + 1)
    i = bisect.bisect_left(dims, True, key=lambda d: _ideal_tail(alpha, r, phi, d, stop=tol) <= tol)
    req = dims[i] if i < len(dims) else None
    hint = f"; need dimension >= {req}" if req else ""
    msg = f"{what} {tail:.3e} on levels >= {n - 2} at |alpha|={abs(alpha):.3g}, r={r:.3g}"
    raise TruncationError(f"{msg} (limit {tol:g}){hint}", required_dim=req)


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def _squeeze_edge(n: int, alpha: float) -> float:
    """The largest |r| at which the squeezed-state audit admits displacement
    modulus `alpha` at every phase; `TruncationError` if r = 0 fails.

    It is bisected at the worst phase, which displaces along the anti-squeezed
    quadrature: alpha > 0, r < 0, phi = 0 (checked on phase grids, N = 14-512).
    One step of the 2^-20 grid is given back: across phases the tail's rounding
    moves the edge by under 1e-8.
    """
    n, tol = _check_dim(n), SQUEEZED_TAIL_TOL
    _audit_tail(alpha, 0.0, 0.0, n, tol, "squeezed state has ideal weight")
    steps = range(2**23)  # r = k * 2^-20 up to 8, where the weight sits above level 512
    fails = lambda k: _ideal_tail(alpha, -k / 2**20, 0.0, n, stop=tol) > tol
    return (bisect.bisect_left(steps, True, key=fails) - 2) / 2**20


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def _displacement_edge(n: int, r: float, cap: float) -> float:
    """The largest |alpha| <= cap at which the squeezed-state audit admits
    squeeze |r| at every phase, the inverse of `_squeeze_edge`: `cap` when it
    fits, else bisected on a 2^-20 grid below it with one step given back as
    there (0 when not even alpha = 0 fits)."""

    def fails(a: float) -> bool:
        try:  # uncached, so the bisection keeps the cached edges
            return _squeeze_edge.__wrapped__(n, a) < r
        except TruncationError:
            return True

    if not fails(cap):
        return cap
    k = bisect.bisect_left(range(int(cap * 2**20)), True, key=lambda k: fails(k / 2**20))
    return max(0.0, (k - 2) / 2**20)


@lru_cache(maxsize=2 * BUILDER_CACHE_SIZE)  # one entry per (dimension, step)
def _generator_offdiag(n: int, step: int) -> np.ndarray:
    """The off-diagonal of the real tridiagonal generator T_step in dimension n.

    T_1 = a + a† on all n levels carries the displacement: sqrt(k). T_2 = a² + a†²
    restricted to the even levels 0, 2, 4, ... carries the squeeze out of the
    vacuum: sqrt((2k-1)(2k)).
    """
    k = np.arange(1.0, n if step == 1 else (n + 1) // 2)
    off = np.sqrt(k) if step == 1 else np.sqrt((2 * k - 1) * (2 * k))
    off.setflags(write=False)
    return off


@lru_cache(maxsize=2 * BUILDER_CACHE_SIZE)  # one entry per (dimension, step)
def _generator_eigs(n: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystem (w, V) of the generator T_step of `_generator_offdiag` in
    dimension n, and the level index 0, 1, ... of its basis."""
    off = _generator_offdiag(n, step)
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    levels = np.arange(w.size)
    for a in (w, v, levels):
        a.setflags(write=False)
    return w, v, levels


def _real_matvec(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and a complex vector or block of columns z (C-contiguous),
    without casting m to complex."""
    return (m @ z.view(float).reshape(z.shape[0], -1)).view(complex).reshape(z.shape)


def _evolve(n: int, step: int, s: float, theta: float, vec: np.ndarray | None) -> np.ndarray:
    """exp(-i s P T_step P†) @ vec with P = diag(e^{i k theta}), for a vector or
    a block of column vectors.

    ``vec`` None stands for the first basis vector; its coordinates in the
    eigenbasis are row 0 of V, so the first product is skipped.
    """
    w, v, levels = _generator_eigs(n, step)
    col = (slice(None),) + (None,) * (0 if vec is None else vec.ndim - 1)
    ph = np.exp(1j * theta * levels)[col]
    y = v[0] if vec is None else _real_matvec(v.T, ph.conj() * vec)
    return ph * _real_matvec(v, y * np.exp(-1j * s * w)[col])


def _generator_apply(n: int, step: int, theta: float, vec: np.ndarray) -> np.ndarray:
    """P T_step P† @ vec in O(N), T_step being tridiagonal."""
    off = _generator_offdiag(n, step)
    e = cmath.exp(-1j * theta)
    out = np.zeros_like(vec)
    out[:-1] = e * off * vec[1:]
    out[1:] += e.conjugate() * off * vec[:-1]
    return out


# below this |alpha| the polar chain rule's (d/dtheta)/|alpha| loses digits to
# cancellation (about 1e-16 N / |alpha|), and divided differences take over
_POLAR_MIN = 1e-3


def _displacement_turn(n: int, s: float, theta: float, vec: np.ndarray) -> np.ndarray:
    """(1/s) d/dtheta exp(-i s P T_1 P†) @ vec = (1/s) [iL, U] vec, L = diag(k).

    In the eigenbasis Q = P V of the displacement this is Q (B o F) Q† vec with
    B = V^T [L, T_1] V and F the divided differences of exp(-i s w) over
    -i s w (Daleckii-Krein; Higham, Functions of Matrices, 2008, ch. 3): their
    sinc form stays exact as s -> 0, where it tends to P [L, T_1] P† vec.
    """
    w, v, levels = _generator_eigs(n, 1)
    if s == 0:
        return levels * _generator_apply(n, 1, theta, vec) - _generator_apply(
            n, 1, theta, levels * vec)
    b = v.T @ (levels[:, None] * v)
    b = b * (w - w[:, None])  # V^T L V diag(w) - diag(w) V^T L V
    f = np.exp(-0.5j * s * (w + w[:, None])) * np.sinc(s * (w - w[:, None]) / (2 * math.pi))
    ph = np.exp(1j * theta * levels)
    return ph * _real_matvec(v, (b * f) @ _real_matvec(v.T, ph.conj() * vec))


def _squeezed_tangents(alpha: complex, r: float, phi: float, psi: np.ndarray) -> np.ndarray:
    """Rows d psi / d(Re alpha, Im alpha, r, phi) of psi = squeezed_state(alpha,
    r, phi, psi.size).amplitudes, for the truncated, normalised state as built.

    With psi = U_D v, U_D = exp(-i |alpha| P T_1 P†) and v the squeezed vacuum
    (P the phases of `_evolve`, L = diag(k)):
    - d/d|alpha| psi = -i P T_1 P† psi, O(N);
    - d/dtheta psi = i (L psi - U_D L v), one more evolve, divided by |alpha|
      through the polar chain rule, or by `_displacement_turn` near alpha = 0;
    - d/dr and d/dphi of v are -(i/2) P T_2 P† v and i L v on the even levels,
      O(N) since L e_0 = 0, each then evolved through U_D.
    The normalisation psi = w / |w| is differentiated in closed form,
    d psi = dw - psi Re<psi, dw>. The state itself is not rebuilt or audited.
    """
    n, levels = psi.size, _generator_eigs(psi.size, 1)[2]
    theta2 = phi - 0.5 * math.pi
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    if r != 0:
        v[0::2] = _evolve(n, 2, 0.5 * r, theta2, None)
        v /= np.linalg.norm(v)
    block = np.zeros((n, 3), dtype=complex)  # columns L v, dv/dr, dv/dphi
    block[:, 0] = levels * v
    block[0::2, 1] = -0.5j * _generator_apply(n, 2, theta2, v[0::2])
    block[0::2, 2] = 1j * levels[: (n + 1) // 2] * v[0::2]
    s, arg = abs(alpha), cmath.phase(alpha)
    theta1 = arg + 0.5 * math.pi
    if alpha != 0:
        block = _evolve(n, 1, s, theta1, block)
    if s >= _POLAR_MIN:
        turn = 1j * (levels * psi - block[:, 0]) / s
    else:
        turn = _displacement_turn(n, s, theta1, v)
    shift = -1j * _generator_apply(n, 1, theta1, psi)
    ca, sa = math.cos(arg), math.sin(arg)
    out = np.array([ca * shift - sa * turn, sa * shift + ca * turn, block[:, 1], block[:, 2]])
    return out - np.outer((out @ psi.conj()).real, psi)


def squeezed_state(
    alpha: complex,
    r: float,
    phi: float,
    n: int,
    tail_tol: float = SQUEEZED_TAIL_TOL,
) -> PureState:
    """Displaced squeezed vacuum D(alpha) S(r e^{i phi}) |0>.

    Both unitaries are exponentials of the truncated generators (a†² vs a² for
    the squeeze, a† vs a for the displacement), applied to the vacuum and
    renormalized. Each generator is, up to a diagonal phase, a fixed real
    tridiagonal matrix times |alpha| or r/2: a + a† for the displacement, and
    a² + a†² on the even levels for the squeeze, which only ever acts on the
    vacuum. Their eigensystems are cached per dimension, so a state costs
    three O(N²) real matrix-vector products (the vacuum's eigenbasis
    coordinates are row 0 of V, so the squeeze needs one). For phi = 0,
    alpha = 0 the quadrature variances are Δq² = e^{-2r}/2 and Δp² = e^{2r}/2
    up to truncation error.

    Before building, the weight of the ideal (untruncated) state on levels
    >= n-2 is audited against `tail_tol`; a state above it is rejected with
    the smallest admissible dimension as a hint.
    """
    n = _check_dim(n)
    if not (cmath.isfinite(alpha) and math.isfinite(r) and math.isfinite(phi)):
        raise InputError(f"squeezed state parameters must be finite: alpha={alpha}, r={r}, phi={phi}")
    _audit_tail(alpha, r, phi, n, tail_tol, "squeezed state has ideal weight")
    vec = np.zeros(n, dtype=complex)
    vec[0] = 1.0
    if r != 0:
        vec[0::2] = _evolve(n, 2, 0.5 * r, phi - 0.5 * math.pi, None)
    if alpha != 0:
        vec = _evolve(n, 1, abs(alpha), cmath.phase(alpha) + 0.5 * math.pi, vec)
    return PureState._trusted(vec / np.linalg.norm(vec))


@lru_cache(maxsize=BUILDER_CACHE_SIZE)
def spin_operators(j: float) -> tuple[Observable, Observable, Observable]:
    """Angular-momentum matrices (Jx, Jy, Jz) for half-integer j, dim = 2j + 1,
    cached per j."""
    twoj = round(2 * j)
    if abs(2 * j - twoj) > 1e-12 or twoj < 1:
        raise InputError(f"j must be a positive half-integer, got {j}")
    dim = twoj + 1
    if dim > 64:
        raise InputError(f"spin dimension 2j+1 = {dim} exceeds 64")
    j = twoj / 2
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)) on the superdiagonal.
    raise_amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.diag(raise_amp, 1).astype(complex)
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return Observable("Jx", jx), Observable("Jy", jy), Observable("Jz", jz)


def sample(kind: str, dim: int, seed: int):
    """Seeded random objects: Haar pure states, Ginibre densities, Hermitian/psd matrices.

    The output is a pure function of (kind, dim, seed): identical arguments
    reproduce identical values bit for bit.
    """
    if kind not in _SAMPLE_KINDS:
        raise InputError(f"unknown sample kind {kind!r}; expected one of {_SAMPLE_KINDS}")
    dim = _check_dim(dim)
    rng = np.random.default_rng(seed)
    if kind == "pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return PureState(v / np.linalg.norm(v))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "hermitian":
        return (g + g.conj().T) / 2
    ggd = g @ g.conj().T
    if kind == "psd":
        return ggd
    return DensityMatrix(ggd / np.trace(ggd).real)


def raw_vector_state(amplitudes) -> PureState:
    """Normalize an explicit complex vector into a PureState."""
    a = np.asarray(amplitudes, dtype=complex).ravel()
    nrm = float(np.linalg.norm(a))
    if not np.all(np.isfinite(a.view(float))) or nrm == 0.0:
        raise InputError("raw vector must be finite and nonzero")
    return PureState(a / nrm)


def raw_density_state(matrix) -> DensityMatrix:
    """Validate an explicit density matrix, renormalizing trace drift <= 1e-12."""
    m = as_square_matrix(matrix, "raw density")
    tr = np.trace(m).real
    if abs(tr - 1.0) <= NORM_TOL and tr != 1.0:
        m = m / tr
    return DensityMatrix(m)
