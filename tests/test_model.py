"""State and observable builders: Fock quadratures, coherent/squeezed states,
spin matrices, seeded sampling."""

import bisect
import cmath
import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urlab.errors import InputError, TruncationError
from urlab.model import (
    BUILDER_CACHE_SIZE,
    COHERENT_TAIL_TOL,
    MAX_DIM,
    SQUEEZED_TAIL_TOL,
    DensityMatrix,
    Observable,
    PureState,
    coherent_state,
    fock_operators,
    fock_state,
    quad_mix,
    quad_plus,
    raw_density_state,
    raw_vector_state,
    _annihilation,
    _displacement_edge,
    _displacement_turn,
    _evolve,
    _ideal_tail,
    _squeeze_edge,
    _squeezed_amplitudes,
    _squeezed_tangents,
    sample,
    spin_operators,
    squeezed_state,
    squeezed_tail_tol,
)


def expval(op, psi):
    return np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)


def variance(op, psi):
    v = op.matrix @ psi.amplitudes
    return (np.vdot(v, v) - expval(op, psi) ** 2).real


def covariance(a, b, psi):
    va, vb = a.matrix @ psi.amplitudes, b.matrix @ psi.amplitudes
    return (np.vdot(va, vb).real - expval(a, psi).real * expval(b, psi).real)


# ---------------------------------------------------------------------------
# fock operators


def test_fock_q_matrix_n2():
    q, _ = fock_operators(2)
    assert_allclose(q.matrix, [[0, 1 / math.sqrt(2)], [1 / math.sqrt(2), 0]])


def test_vacuum_moments():
    q, p = fock_operators(32)
    vac = fock_state(0, 32)
    assert expval(q, vac) == pytest.approx(0.0, abs=1e-14)
    assert variance(q, vac) == pytest.approx(0.5, abs=1e-13)
    assert variance(p, vac) == pytest.approx(0.5, abs=1e-13)


def test_commutator_expectation_away_from_corner():
    n = 64
    q, p = fock_operators(n)
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    rng = np.random.default_rng(0)
    amp = np.zeros(n, complex)
    amp[: n // 2] = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    psi = PureState(amp / np.linalg.norm(amp))
    val = np.vdot(psi.amplitudes, comm @ psi.amplitudes)
    assert abs(val - 1j) < 1e-10


def test_observables_are_hermitian_and_frozen():
    q, p = fock_operators(16)
    assert np.max(np.abs(q.matrix - q.matrix.conj().T)) < 1e-15
    with pytest.raises(ValueError):
        q.matrix[0, 0] = 1.0


@pytest.mark.parametrize("n", [2, 3, 17, 64, MAX_DIM])
def test_quadratic_observables_match_quadrature_products(n):
    # reference: the dense products of the truncated quadratures
    q, p = (o.matrix for o in fock_operators(n))
    for built, ref in ((quad_plus(n), p @ p - q @ q), (quad_mix(n), p @ q + q @ p)):
        m = built.matrix
        assert np.abs(m - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert (m == m.conj().T).all()
    assert (quad_plus(n).name, quad_mix(n).name) == ("p2-q2", "pq+qp")


@pytest.mark.parametrize("n", [1, MAX_DIM + 1])
def test_quadratic_observables_check_dim(n):
    for build in (quad_plus, quad_mix):
        with pytest.raises(InputError):
            build(n)


def test_named_observables_are_built_once_per_dimension():
    assert quad_plus(40) is quad_plus(40)
    assert quad_mix(40) is quad_mix(40)
    assert fock_operators(40) is fock_operators(40)
    assert spin_operators(1.5) is spin_operators(1.5)
    for obs in (quad_plus(40), quad_mix(40), *fock_operators(40), *spin_operators(1.5)):
        assert not obs.matrix.flags.writeable
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 1.0


def test_builder_caches_stay_bounded():
    for build in (fock_operators, quad_plus, quad_mix, spin_operators):
        assert build.cache_info().maxsize == BUILDER_CACHE_SIZE
    first = quad_plus(20)
    for n in range(20, 20 + BUILDER_CACHE_SIZE + 3):
        quad_plus(n)
        fock_operators(n)
        spin_operators((n - 19) / 2)
    for build in (quad_plus, fock_operators, spin_operators):
        assert build.cache_info().currsize == BUILDER_CACHE_SIZE
    # an evicted dimension is rebuilt with the same values
    again = quad_plus(20)
    assert again is not first and (again.matrix == first.matrix).all()


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_zero_is_vacuum():
    c = coherent_state(0, 16)
    assert_allclose(c.amplitudes, fock_state(0, 16).amplitudes)


def test_coherent_mean_quadrature():
    q, p = fock_operators(64)
    c = coherent_state(1.0, 64)
    assert expval(q, c).real == pytest.approx(math.sqrt(2), abs=1e-10)
    assert expval(p, c).real == pytest.approx(0.0, abs=1e-10)


def test_coherent_saturates_heisenberg():
    q, p = fock_operators(64)
    c = coherent_state(1 + 1j, 64)
    prod = variance(q, c) * variance(p, c)
    assert prod == pytest.approx(0.25, abs=1e-9)
    assert covariance(q, p, c) == pytest.approx(0.0, abs=1e-10)


def test_coherent_truncation_error_reports_required_dim():
    with pytest.raises(TruncationError) as err:
        coherent_state(4.0, 8)
    assert err.value.required_dim is not None
    assert err.value.required_dim > 8
    coherent_state(4.0, err.value.required_dim)  # suggested dimension works


# ---------------------------------------------------------------------------
# squeezed states


def test_squeezed_zero_squeezing_is_coherent():
    a = 0.7 - 0.3j
    s = squeezed_state(a, 0.0, 0.0, 64)
    c = coherent_state(a, 64)
    # same ray: fix the global phase on the largest amplitude
    k = int(np.argmax(np.abs(c.amplitudes)))
    phase = c.amplitudes[k] / s.amplitudes[k]
    assert_allclose(s.amplitudes * phase, c.amplitudes, atol=1e-10)


def test_squeezed_variances_example():
    q, p = fock_operators(64)
    s = squeezed_state(0, 0.5, 0.0, 64)
    assert variance(q, s) == pytest.approx(math.exp(-1.0) / 2, abs=1e-8)
    assert variance(p, s) == pytest.approx(math.exp(1.0) / 2, abs=1e-8)
    assert covariance(q, p, s) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("alpha,r,phi", [(0.3, 0.4, 0.0), (0.5j, 0.6, 1.1), (0.4 - 0.2j, 0.8, 2.0)])
def test_squeezed_saturates_schrodinger(alpha, r, phi):
    q, p = fock_operators(64)
    s = squeezed_state(alpha, r, phi, 64)
    slack = variance(q, s) * variance(p, s) - covariance(q, p, s) ** 2 - 0.25
    assert abs(slack) < 1e-8


def test_squeezed_truncation_audit():
    with pytest.raises(TruncationError):
        squeezed_state(0, 2.0, 0.0, 64)


def test_gaussian_moments_stable_under_dim_growth():
    # moments move by < 1e-10 between N = 64 and N = 128 inside the
    # admissible box (|alpha| <= 2, |r| <= 0.7)
    for alpha, r in ((2.0, 0.0), (1.0, 0.5), (0.5j, 0.7), (-1.2 + 0.8j, 0.3)):
        vals = {}
        for n in (64, 128):
            q, p = fock_operators(n)
            s = squeezed_state(alpha, r, 0.0, n)
            vals[n] = (
                expval(q, s).real,
                expval(p, s).real,
                variance(q, s),
                variance(p, s),
                covariance(q, p, s),
            )
        drift = np.max(np.abs(np.array(vals[64]) - np.array(vals[128])))
        assert drift < 1e-10


def dense_squeezed(alpha, r, phi, n):
    """Reference D(alpha) S(r e^{i phi})|0>: each truncated generator G is
    exponentiated through a dense eigendecomposition of iG."""

    def expm_apply(gen, vec):
        w, v = np.linalg.eigh(1j * gen)
        return v @ (np.exp(-1j * w) * (v.conj().T @ vec))

    a = _annihilation(n)
    ad = a.conj().T
    vec = np.zeros(n, dtype=complex)
    vec[0] = 1.0
    xi = r * np.exp(1j * phi)
    if xi != 0:
        vec = expm_apply(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)), vec)
    if alpha != 0:
        vec = expm_apply(alpha * ad - np.conj(alpha) * a, vec)
    return vec / np.linalg.norm(vec)


def gaussian_grid(seed, dims, per_dim):
    rng = np.random.default_rng(seed)
    for n in dims:
        for i in range(per_dim):
            alpha = complex(*rng.uniform(-2.0, 2.0, 2))
            r = rng.uniform(-1.2, 1.2)
            phi = rng.uniform(0.1, 2 * np.pi)
            if i == 0:
                alpha = 0j  # pure squeezing
            elif i == 1:
                r = 0.0  # pure displacement
            elif i == 2:
                r = -abs(r)
            yield alpha, r, phi, n


@pytest.mark.parametrize("n", [2, 3, 17, 64, 257, 512])
def test_squeezed_matches_dense_generator_exponential(n):
    # the unaudited construction, so that it is compared at every dimension,
    # dims 2 and 3 included
    for alpha, r, phi, _ in gaussian_grid(100 + n, [n], 5):
        got = _squeezed_amplitudes(alpha, r, phi, n)
        assert np.max(np.abs(got - dense_squeezed(alpha, r, phi, n))) < 1e-12


@pytest.mark.parametrize("n", [16, 64, 512])
def test_squeezed_tangents_match_central_differences(n):
    # d psi / d(Re alpha, Im alpha, r, phi) of the state as built, at and near
    # alpha = 0 (where the polar chain rule is singular) and away from it;
    # the unaudited construction, since the tangents are those of the
    # truncated state whatever its tail
    edge, h = _squeeze_edge(n, 0.0), 1e-6
    build = lambda x: _squeezed_amplitudes(complex(x[0], x[1]), x[2], x[3], n)
    worst = 0.0
    # 9e-4: divided differences, just below where the polar rule takes over
    for amag in (0.0, 1e-9, 1e-4, 9e-4, 1.0):
        for r in (0.0, 0.3, -0.3, 0.9 * edge, -0.9 * edge):
            for phi in (0.0, 1.3, 2.9, 4.4):
                for aph in (0.0, 2.2):
                    x = np.array([amag * math.cos(aph), amag * math.sin(aph), r, phi])
                    psi = build(x)
                    got = _squeezed_tangents(complex(x[0], x[1]), r, phi, psi)
                    for j, e in enumerate(h * np.eye(4)):
                        want = (build(x + e) - build(x - e)) / (2 * h)
                        worst = max(worst, float(np.abs(got[j] - want).max()))
    assert worst < 1e-8


@pytest.mark.parametrize("n", [16, 64])
def test_displacement_turn_matches_the_polar_rule(n):
    # where the polar rule i (L U v - U L v) / s loses few digits, the divided
    # differences agree with it, on a vector spread over every eigenvector
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    levels = np.arange(n)
    for s in (2e-3, 0.05, 0.5):
        for theta in (0.0, 1.1):
            u, ul = _evolve(n, 1, s, theta, v), _evolve(n, 1, s, theta, levels * v)
            polar = 1j * (levels * u - ul) / s
            got = _displacement_turn(n, s, theta, v)
            assert np.abs(got - polar).max() < 1e-9 * np.abs(polar).max()


def gaussian_moment_errors(alpha, r, phi, n):
    """Relative errors of <q>, <p>, Δq², Δp² and the symmetrized covariance
    against the closed forms of the ideal displaced squeezed state."""
    q, p = fock_operators(n)
    s = squeezed_state(alpha, r, phi, n)
    got = (
        expval(q, s).real,
        expval(p, s).real,
        variance(q, s),
        variance(p, s),
        covariance(q, p, s),
    )
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    ref = (
        math.sqrt(2) * alpha.real,
        math.sqrt(2) * alpha.imag,
        (c2 - math.cos(phi) * s2) / 2,
        (c2 + math.cos(phi) * s2) / 2,
        -math.sin(phi) * s2 / 2,
    )
    return [abs(g - f) / max(1.0, abs(f)) for g, f in zip(got, ref)]


@pytest.mark.parametrize(
    "alpha,r,phi,n",
    [
        (3 - 2j, 1.2, 0.9, 256),
        (-1 + 4j, -0.8, 2.5, 256),
        (8 + 6j, 1.5, 2.0, MAX_DIM),
        (-12 + 3j, -1.0, 4.0, MAX_DIM),
    ],
)
def test_squeezed_gaussian_moments_at_large_dim(alpha, r, phi, n):
    assert max(gaussian_moment_errors(alpha, r, phi, n)) < 1e-9


@pytest.mark.parametrize("n", [64, 256, MAX_DIM])
def test_squeezed_moments_at_admissibility_edge(n):
    # states whose ideal tail lies just under the limit: the truncation error
    # of the moments grows with the levels it sits on, about tail * N, and the
    # limit falls as 1/N above N = 64, so the bound is the same at every N
    rng = np.random.default_rng(n)
    r_max = {64: 1.1, 256: 1.8, MAX_DIM: 2.2}[n]
    limit = squeezed_tail_tol(n)
    edge = 0
    for _ in range(3000):
        alpha = complex(*rng.uniform(-1.0, 1.0, 2)) * 0.95 * math.sqrt(n) * rng.uniform()
        r, phi = rng.uniform(-r_max, r_max), rng.uniform(0, 2 * np.pi)
        tail = _ideal_tail(alpha, r, phi, n)
        if not 0.01 * limit <= tail <= limit:
            continue
        edge += 1
        assert max(gaussian_moment_errors(alpha, r, phi, n)) < 10 * limit * n
        if edge == 20:
            break
    assert edge == 20


def test_ideal_tail_matches_a_large_dim_state():
    # the recurrence's weight above n-3 against the same weight of a state
    # built where the truncation is negligible
    for alpha, r, phi, n in gaussian_grid(7, [12, 24, 40], 6):
        big = squeezed_state(alpha, r, phi, MAX_DIM).amplitudes
        tail = _ideal_tail(alpha, r, phi, n)
        assert tail == pytest.approx(np.sum(np.abs(big[n - 2 :]) ** 2), abs=1e-13)


@pytest.mark.parametrize("n", [63, 64, 101, 256])
def test_small_tails_are_summed_directly(n):
    # below 1e-6 the weight is the sum of the levels >= n-2 themselves: it
    # matches the weight of a state built at MAX_DIM, odd levels of a squeezed
    # vacuum (exactly 0) included, and it does not grow with n
    edge = _squeeze_edge(n, 0.0)
    for alpha, r in ((0j, edge), (0j, -0.9 * edge), (0.3 - 0.2j, 0.5 * edge)):
        tail = _ideal_tail(alpha, r, 0.7, n)
        assert 0 < tail <= 1e-6
        big = squeezed_state(alpha, r, 0.7, MAX_DIM).amplitudes
        assert tail == pytest.approx(np.sum(np.abs(big[n - 2 :]) ** 2), rel=1e-6)
        assert _ideal_tail(alpha, r, 0.7, n + 1) <= tail


def _full_recurrence_hint(alpha, r, phi, n, limit=squeezed_tail_tol):
    dims = range(n + 1, MAX_DIM + 1)
    i = bisect.bisect_left(dims, True, key=lambda d: _ideal_tail(alpha, r, phi, d) <= limit(d))
    return dims[i] if i < len(dims) else None


@pytest.mark.parametrize("n", [64, 256, MAX_DIM])
def test_early_stopped_audit_admits_exactly_the_full_recurrence(n):
    # squeezed_state stops the tail recurrence once the remaining weight is
    # within the limit; at and around the limit its verdict and its hint must
    # be those of the full recurrence
    rng = np.random.default_rng(100 + n)
    r_max = {64: 1.1, 256: 1.8, MAX_DIM: 2.2}[n]
    limit = squeezed_tail_tol(n)
    verdicts = []
    for _ in range(30):
        r, phi = rng.uniform(-r_max, r_max), rng.uniform(0, 2 * np.pi)
        unit = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        if _ideal_tail(0, r, phi, n) > limit:
            continue
        # bracket the |alpha| where the full tail crosses the limit
        lo, hi = 0.0, math.sqrt(n)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if _ideal_tail(mid * unit, r, phi, n) <= limit:
                lo = mid
            else:
                hi = mid
        for amag in (lo, hi, lo * (1 + rng.uniform(-1e-3, 1e-3))):
            alpha = amag * unit
            admitted = _ideal_tail(alpha, r, phi, n) <= limit
            try:
                squeezed_state(alpha, r, phi, n)
                built = True
            except TruncationError as err:
                built = False
                assert err.required_dim == _full_recurrence_hint(alpha, r, phi, n)
            assert built == admitted, (alpha, r, phi, n)
            verdicts.append(admitted)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


@pytest.mark.parametrize("n", [16, 64, 256, MAX_DIM])
def test_early_stopped_coherent_audit_admits_exactly_the_full_recurrence(n):
    # the coherent limit, 1e-12, is near the rounding of 1 - total, so the
    # early stop keeps an absolute margin; within 1% of the limit and beyond
    # the verdict and the hint must still be those of the full recurrence
    rng = np.random.default_rng(200 + n)
    verdicts = []
    for _ in range(10):
        unit = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        lo, hi = 0.0, math.sqrt(n)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _ideal_tail(mid * unit, 0.0, 0.0, n) <= COHERENT_TAIL_TOL:
                lo = mid
            else:
                hi = mid
        for amag in (lo, hi, *(lo * (1 + rng.uniform(-1e-4, 1e-4, 4)))):
            alpha = amag * unit
            admitted = _ideal_tail(alpha, 0.0, 0.0, n) <= COHERENT_TAIL_TOL
            try:
                coherent_state(alpha, n)
                built = True
            except TruncationError as err:
                built = False
                assert err.required_dim == _full_recurrence_hint(
                    alpha, 0.0, 0.0, n, lambda d: COHERENT_TAIL_TOL)
            assert built == admitted, (alpha, n)
            verdicts.append(admitted)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15


def test_squeezed_vacua_are_admitted_monotonically_in_n():
    # a squeezed vacuum's tails at an odd n and at n + 1 are equal (its odd
    # levels are empty), and the limit is kept per pair of levels: on the
    # 2^-20 grid of r, the first r rejected at n is never below the first
    # rejected at n - 1, so the bisected hint is the smallest admitted n
    steps = range(2**23)

    def first_rejected(n):
        tol = squeezed_tail_tol(n)
        return bisect.bisect_left(
            steps, True, key=lambda k: _ideal_tail(0, k / 2**20, 0.0, n, stop=tol) > tol)

    dims = range(64, MAX_DIM + 1)
    firsts = [first_rejected(n) for n in dims]
    assert firsts == sorted(firsts)
    hints = []
    for n in (65, 66, 127, 300, 511):  # 511 and 512 share a limit: no hint
        k = firsts[n - 64]
        with pytest.raises(TruncationError) as err:
            squeezed_state(0, k / 2**20, 0.0, n)
        hints.append(err.value.required_dim)
        assert hints[-1] == next((d for d, f in zip(dims, firsts) if f > k), None)
    assert hints[-1] is None and None not in hints[:-1]


def test_squeezed_audit_rejects_wrapped_displacement():
    # the truncated displacement of |alpha| = 40 wraps around inside 512
    # levels and leaves the top two nearly empty; the ideal state lies above
    with pytest.raises(TruncationError) as err:
        squeezed_state(40, 0.5, 0.0, 512)
    assert err.value.required_dim is None


@pytest.mark.parametrize("alpha,r", [(0, 2.0), (3, 1.0), (1 - 2j, -0.9)])
def test_squeezed_truncation_error_reports_required_dim(alpha, r):
    with pytest.raises(TruncationError) as err:
        squeezed_state(alpha, r, 0.3, 48)
    req = err.value.required_dim
    assert req is not None and req > 48
    squeezed_state(alpha, r, 0.3, req)  # suggested dimension works
    with pytest.raises(TruncationError):
        squeezed_state(alpha, r, 0.3, req - 1)


def test_squeezed_rejects_non_finite_parameters():
    for args in ((np.nan, 0.1, 0.0), (0.0, np.inf, 0.0), (0.0, 0.1, np.nan)):
        with pytest.raises(InputError):
            squeezed_state(*args, 64)


def test_coherent_rejects_non_finite_amplitude():
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(InputError):
            coherent_state(alpha, 64)


@pytest.mark.parametrize("alpha", [1e200, 1e160j, complex(1e154, -1e154), 1.3e154])
def test_coherent_rejects_huge_amplitude_as_truncation(alpha):
    # |alpha|^2 overflows to inf above about 1.3e154; 1.3e154 itself is just below
    with pytest.raises(TruncationError) as err:
        coherent_state(alpha, 64)
    assert err.value.required_dim is None


def _poisson_tail(lam, n):
    # plain Poisson(lam) weight on levels >= n-2: the reference for the
    # coherent-state audit, which runs the squeezed-state recurrence at r = 0
    term = cdf = math.exp(-lam)
    for k in range(1, n - 2):
        term *= lam / k
        cdf += term
    return 1.0 - cdf


def test_coherent_audit_matches_a_plain_poisson_tail():
    # the shared recurrence's weights at r = 0 are the Poisson weights; its
    # verdict may differ from the plain sum's only where the tail lies within
    # rounding of the limit
    for n in [3, 4, 5, 8, 13, 24, 40, 64, 100, 181, 256, 377, MAX_DIM]:
        for amag in np.linspace(0.0, 25.0, 126):
            alpha = amag * cmath.exp(0.7j * amag)
            ref = _poisson_tail(amag * amag, n)
            if abs(ref - COHERENT_TAIL_TOL) <= 1e-3 * COHERENT_TAIL_TOL:
                continue
            try:
                coherent_state(alpha, n)
                admitted = True
            except TruncationError as err:
                admitted = False
                d = err.required_dim
                if d is not None:
                    # the hint is admitted at d and rejected at d - 1
                    coherent_state(alpha, d)
                    with pytest.raises(TruncationError):
                        coherent_state(alpha, d - 1)
            assert admitted == (ref <= COHERENT_TAIL_TOL), (n, amag, ref)


def test_coherent_state_needs_three_levels():
    # the audit asks for negligible weight on levels >= N-2; at N = 2 that is
    # every level, as for squeezed_state
    for build in (lambda: coherent_state(0, 2), lambda: squeezed_state(0, 0, 0, 2)):
        with pytest.raises(TruncationError) as err:
            build()
        assert err.value.required_dim == 3
    assert coherent_state(0, 3).amplitudes[0] == 1.0


@pytest.mark.parametrize(
    "n,amag", [(n, a) for n in (16, 32, 64, 128) for a in (0.0, 0.5, 1.0, 1.4) if (n, a) != (16, 1.4)]
)
def test_squeeze_edge_admits_every_phase(n, amag):
    edge = _squeeze_edge(n, amag)
    assert 0 < edge < 8
    grid = np.linspace(0, 2 * np.pi, 25)
    for aph in grid:
        for phi in grid:
            for r in (edge, -edge):
                squeezed_state(amag * cmath.exp(1j * aph), r, phi, n)
    # the worst phase: displaced along the anti-squeezed quadrature
    with pytest.raises(TruncationError):
        squeezed_state(amag, -1.001 * edge, 0.0, n)


@pytest.mark.parametrize("n", [8, 16, 24, 64, 512])
def test_displacement_edge_inverts_the_squeeze_edge(n):
    # (at r near the edge of alpha = 0 the squeeze edge is flat in alpha, and
    # its own 2^-20 grid in r blurs where it crosses r)
    for r in (0.0, 0.5 * _squeeze_edge(n, 0.0), 0.7 * _squeeze_edge(n, 0.0)):
        edge = _displacement_edge(n, r, math.sqrt(n) + 1)
        assert 0 <= edge < math.sqrt(n) + 1
        assert _squeeze_edge(n, edge) >= r
        # three grid steps on (one given back, one more for rounding) the audit fails
        try:
            assert _squeeze_edge(n, edge + 3 / 2**20) < r
        except TruncationError:
            pass
        # a cap that fits comes back as it is
        assert _displacement_edge(n, r, 0.5 * edge) == 0.5 * edge


@pytest.mark.parametrize("n,amag,need", [(13, 1.0, 14), (16, 1.4, 17)])
def test_squeeze_edge_rejects_a_displacement_too_large_unsqueezed(n, amag, need):
    with pytest.raises(TruncationError) as err:
        _squeeze_edge(n, amag)
    assert err.value.required_dim == need
    assert _squeeze_edge(need, amag) > 0
    with pytest.raises(InputError):
        _squeeze_edge(MAX_DIM + 1, 0.0)


def test_gaussian_builders_return_frozen_unit_vectors():
    for psi in (coherent_state(0.7 - 0.2j, 64), squeezed_state(0.3j, 0.5, 0.4, 64)):
        a = psi.amplitudes
        assert isinstance(psi, PureState) and a.dtype == complex and a.shape == (64,)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-14
        assert not a.flags.writeable
        # the audited constructor accepts it and keeps the same values
        assert (PureState(a).amplitudes == a).all()


# ---------------------------------------------------------------------------
# spin operators


def test_spin_half_is_pauli_over_two():
    jx, jy, jz = spin_operators(0.5)
    assert_allclose(jx.matrix, [[0, 0.5], [0.5, 0]])
    assert_allclose(jy.matrix, [[0, -0.5j], [0.5j, 0]])
    assert_allclose(jz.matrix, [[0.5, 0], [0, -0.5]])


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3.5])
def test_spin_commutation_and_casimir(j):
    jx, jy, jz = spin_operators(j)
    comm = jx.matrix @ jy.matrix - jy.matrix @ jx.matrix
    assert np.max(np.abs(comm - 1j * jz.matrix)) < 1e-14
    comm = jy.matrix @ jz.matrix - jz.matrix @ jy.matrix
    assert np.max(np.abs(comm - 1j * jx.matrix)) < 1e-14
    casimir = jx.matrix @ jx.matrix + jy.matrix @ jy.matrix + jz.matrix @ jz.matrix
    assert_allclose(casimir, j * (j + 1) * np.eye(int(2 * j + 1)), atol=1e-13)


def test_spin_rejects_bad_j():
    with pytest.raises(InputError):
        spin_operators(0.3)
    with pytest.raises(InputError):
        spin_operators(40)


# ---------------------------------------------------------------------------
# sampling


def test_sample_pure_deterministic():
    a = sample("pure", 4, 7)
    b = sample("pure", 4, 7)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_sample_density_valid():
    for seed in range(5):
        rho = sample("density", 4, seed)
        assert isinstance(rho, DensityMatrix)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_sample_hermitian():
    h = sample("hermitian", 3, 11)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


def test_sample_psd():
    m = sample("psd", 5, 13)
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


def test_sample_unknown_kind():
    with pytest.raises(InputError):
        sample("thermal", 4, 0)


# ---------------------------------------------------------------------------
# type invariants


def test_pure_state_requires_normalization():
    with pytest.raises(InputError):
        PureState(np.array([1.0, 1.0]))


def test_density_requires_unit_trace_and_psd():
    with pytest.raises(InputError):
        DensityMatrix(np.eye(2))
    with pytest.raises(InputError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_observable_requires_hermitian():
    with pytest.raises(InputError):
        Observable("bad", np.array([[0, 1], [0, 0]], dtype=complex))


def test_sample_states_pass_the_full_audit():
    for dim in (2, 5, 64):
        psi, rho = sample("pure", dim, dim), sample("density", dim, dim)
        assert not psi.amplitudes.flags.writeable and not rho.matrix.flags.writeable
        assert np.array_equal(PureState(psi.amplitudes).amplitudes, psi.amplitudes)
        assert np.array_equal(DensityMatrix(rho.matrix).matrix, rho.matrix)


_SQUARE_NAN = np.array([[np.nan, 0], [0, 1]], dtype=complex)
# entries that would be a valid state or observable if they were numbers
_STR_VEC, _BOOL_VEC, _RAGGED_VEC = ["1", "0"], [True, False], [[1.0], [0.0, 0.0]]
_STR_MAT, _BOOL_MAT = [["1", "0"], ["0", "0"]], np.diag([True, False])
_RAGGED_MAT = [[1.0, 0.0], [0.0]]
_MALFORMED_BUILDS = {
    "observable-non-square": lambda: Observable("wide", np.zeros((2, 3))),
    "observable-non-finite": lambda: Observable("nan", _SQUARE_NAN),
    "pure-non-finite": lambda: PureState(np.array([1.0, np.inf])),
    "density-non-square": lambda: DensityMatrix(np.full((1, 2), 0.5)),
    "density-non-finite": lambda: DensityMatrix(_SQUARE_NAN),
    "density-non-hermitian": lambda: DensityMatrix(np.array([[0.5, 0.5], [0, 0.5]])),
    **{
        f"{what}-{kind}": partial(build, arg)
        for what, build, args in [
            ("observable", partial(Observable, "x"), (_STR_MAT, _BOOL_MAT, _RAGGED_MAT)),
            ("pure", PureState, (_STR_VEC, _BOOL_VEC, _RAGGED_VEC)),
            ("density", DensityMatrix, (_STR_MAT, _BOOL_MAT, _RAGGED_MAT)),
            ("raw-vector", raw_vector_state, (_STR_VEC, _BOOL_VEC, _RAGGED_VEC)),
            ("raw-density", raw_density_state, (_STR_MAT, _BOOL_MAT, _RAGGED_MAT)),
        ]
        for kind, arg in zip(("string", "bool", "ragged"), args)
    },
    "fock-operators-float-dim": lambda: fock_operators(2.7),
    "fock-operators-string-dim": lambda: fock_operators("16"),
    "coherent-float-dim": lambda: coherent_state(0.3, 16.9),
    "sample-float-dim": lambda: sample("pure", 4.5, 1),
    "fock-float-level": lambda: fock_state(1.5, 4),
    "fock-bool-level": lambda: fock_state(True, 4),
}


@pytest.mark.parametrize("build", list(_MALFORMED_BUILDS.values()), ids=list(_MALFORMED_BUILDS))
def test_constructors_reject_malformed_input(build):
    with pytest.raises(InputError):
        build()


def test_an_f_ordered_matrix_reads_as_its_c_ordered_copy():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = g @ g.conj().T
    cases = [(Observable, ("h",), g + g.conj().T), (DensityMatrix, (), rho / np.trace(rho))]
    for cls, head, m in cases:
        f = np.asfortranarray(m)
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        assert cls(*head, f).digest == cls(*head, np.ascontiguousarray(m)).digest


def test_trusted_flag_is_keyword_only_and_freezes_in_place():
    m = np.eye(2, dtype=complex) / 2
    cases = [(Observable, ("h",), "matrix", m), (PureState, (), "amplitudes", 2 * m[0]),
             (DensityMatrix, (), "matrix", m)]
    for cls, head, field, a in cases:
        with pytest.raises(TypeError):
            cls(*head, a.copy(), True)
        a = a.copy()
        # no audit and no copy: the builder's array itself, now read-only
        assert getattr(cls(*head, a, _trusted=True), field) is a
        assert not a.flags.writeable
