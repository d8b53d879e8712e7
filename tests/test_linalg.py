"""Matrix-kernel checks: Gram construction, positivity, characteristic
coefficients, and the two characteristic gap inequalities."""

import itertools
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urlab.analysis import minimize_slack
from urlab.catalog import char_gap_check
from urlab.errors import InputError, NumericError
from urlab.linalg import (
    HERM_RTOL,
    TOL_PSD,
    char_coeffs,
    char_coeffs_from_eigs,
    entangled_char_gap,
    gram,
    hermiticity_defect,
    is_psd,
    split,
    superadditive_char_gap,
)
from urlab.model import DensityMatrix, Observable, PureState, fock_operators, fock_state
from urlab.moments import (
    RESIDUE_TOL,
    moment_set,
    robertson_matrix,
    transform_observables,
    transform_states,
)


def brute_char_coeffs(m):
    """Independent oracle: sum of all r x r principal minors, enumerated."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    out = []
    for r in range(1, n + 1):
        acc = 0.0
        for rows in itertools.combinations(range(n), r):
            acc += np.linalg.det(m[np.ix_(rows, rows)])
        out.append(acc)
    return np.array(out)


def rand_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def rand_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# gram


def test_gram_orthonormal_pair():
    assert_allclose(gram([[1, 0], [0, 1]]), np.eye(2))


def test_gram_proportional_vectors_singular():
    g = gram([[1, 0], [1, 0]])
    assert_allclose(g, np.ones((2, 2)))
    assert abs(np.linalg.det(g)) < 1e-14


def test_gram_random_vectors_psd():
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    g = gram(list(vecs))
    w = np.linalg.eigvalsh(g)
    assert w[0] >= -1e-12 * np.linalg.norm(g, 2)


def test_gram_dimension_mismatch():
    with pytest.raises(InputError):
        gram([[1, 0], [1, 0, 0]])


# ---------------------------------------------------------------------------
# split / is_psd


def test_split_basic():
    s, a = split([[1, 1j], [-1j, 1]])
    assert_allclose(s, np.eye(2))
    assert_allclose(a, [[0, 1], [-1, 0]])


def test_split_real_symmetric_has_zero_antisymmetric_part():
    _, a = split([[2.0, 0.5], [0.5, 1.0]])
    assert_allclose(a, 0, atol=1e-16)


def test_split_reconstructs():
    rng = np.random.default_rng(1)
    h = rand_herm(rng, 5)
    s, a = split(h)
    assert np.max(np.abs(s + 1j * a - h)) <= 1e-15
    assert_allclose(s, s.T)
    assert_allclose(a, -a.T)


def test_split_rejects_nonhermitian():
    with pytest.raises(InputError):
        split([[0, 1], [0, 0]])


def test_is_psd():
    rng = np.random.default_rng(3)
    h = rand_psd(rng, 4)
    assert is_psd(h)
    assert not is_psd(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# characteristic coefficients


def test_char_coeffs_identity3():
    assert_allclose(char_coeffs(np.eye(3)), [3, 3, 1])


def test_char_coeffs_diagonal_elementary_symmetric():
    expected = brute_char_coeffs(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(expected.real, [6, 11, 6])
    assert_allclose(char_coeffs(np.diag([1.0, 2.0, 3.0])), [6, 11, 6])


def test_char_coeffs_antisymmetric_2x2():
    a = 0.7
    assert_allclose(char_coeffs([[0, a], [-a, 0]]), [0, a * a], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_char_coeffs_matches_minor_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        h = rand_herm(rng, n)
        got = char_coeffs(h)
        want = brute_char_coeffs(h)
        assert np.max(np.abs(want.imag)) < 1e-10
        scale = np.maximum(np.abs(want.real), 1.0)
        assert np.max(np.abs(got - want.real) / scale) < 1e-10


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_char_coeffs_minor_and_eig_paths_agree(n):
    # principal-minor sum, e_r of the general eigvals spectrum, and char_coeffs
    rng = np.random.default_rng(200 + n)
    h = rand_herm(rng, n)
    a = brute_char_coeffs(h)
    b = char_coeffs_from_eigs(np.linalg.eigvals(h))
    assert_allclose(a, b, rtol=1e-9, atol=1e-9)
    assert_allclose(char_coeffs(h), a.real, rtol=1e-9, atol=1e-9)


def test_char_coeffs_trace_and_det():
    rng = np.random.default_rng(5)
    h = rand_herm(rng, 10)
    c = char_coeffs(h)
    assert c[0] == pytest.approx(np.trace(h).real, rel=1e-12)
    assert c[-1] == pytest.approx(np.linalg.det(h).real, rel=1e-9)


def test_char_coeffs_odd_orders_vanish_for_antisymmetric():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6):
        m = rng.standard_normal((n, n))
        a = m - m.T
        c = char_coeffs(a)
        assert np.max(np.abs(c[::2])) < 1e-12 * max(1.0, np.max(np.abs(c)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_char_coeffs_real_antisymmetric_matches_minor_enumeration(n):
    rng = np.random.default_rng(300 + n)
    m = rng.standard_normal((n, n))
    a = m - m.T
    got = char_coeffs(a)
    want = brute_char_coeffs(a).real
    assert np.all(got[::2] == 0.0)  # odd orders
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) < 1e-10


def test_char_coeffs_nonsymmetric_real_spectrum_matches_minor_enumeration():
    # similar to a real triangular matrix: neither Hermitian nor antisymmetric, real spectrum
    rng = np.random.default_rng(51)
    t = np.triu(rng.standard_normal((5, 5)))
    p = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    m = p @ t @ np.linalg.inv(p)
    assert not np.allclose(m, m.T)
    assert_allclose(char_coeffs(m), brute_char_coeffs(m).real, rtol=1e-9, atol=1e-9)


def test_char_coeffs_genuinely_complex_coefficients_raise():
    with pytest.raises(NumericError, match="not real"):
        char_coeffs([[1j, 0], [0, 2.0]])


def test_char_coeffs_psd_spectrum_relative_accuracy():
    # each C_r against the exact e_r of the chosen eigenvalues, in rationals
    rng = np.random.default_rng(53)
    for n in (3, 6, 10, 16):
        w = np.sort(10.0 ** rng.uniform(-6, 3, n))
        exact = [Fraction(1)] + [Fraction(0)] * n
        for x in map(Fraction, w):
            exact = [exact[0]] + [exact[j] + x * exact[j - 1] for j in range(1, n + 1)]
        for got in (char_coeffs_from_eigs(w), char_coeffs(np.diag(w))):
            rel = [abs(Fraction(g) - e) / e for g, e in zip(got, exact[1:])]
            assert max(rel) < 1e-12, (n, float(max(rel)))


# ---------------------------------------------------------------------------
# psd certificate


@pytest.mark.parametrize("side", [0.9, 1.1])
def test_psd_certificate_same_verdict_at_every_site(side):
    """diag(1 + eps, -eps) sits just inside (side 0.9) or just outside (1.1)
    the certificate's edge eps = TOL_PSD / (1 - TOL_PSD). The Robertson matrix
    of (sigma_x, sigma_y) in that state has spectrum {-2 eps, 2 + 2 eps}, which
    lies at the same edge."""
    eps = side * TOL_PSD
    m = np.diag([1.0 + eps, -eps]).astype(complex)
    inside = side < 1
    assert is_psd(m) == inside
    verdicts = {}
    for name, site in [
        ("DensityMatrix", lambda: DensityMatrix(m)),
        ("entangled_char_gap", lambda: entangled_char_gap([m], 2)),
        ("superadditive_char_gap", lambda: superadditive_char_gap([m, m], 2)),
    ]:
        try:
            site()
            verdicts[name] = True
        except InputError:
            verdicts[name] = False
    # DensityMatrix refuses the outside matrix, so the state is built around it
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", m)
    sx = Observable("sx", np.array([[0, 1], [1, 0]], dtype=complex))
    sy = Observable("sy", np.array([[0, -1j], [1j, 0]]))
    try:
        robertson_matrix([sx, sy], rho)
        verdicts["robertson_matrix"] = True
    except NumericError:
        verdicts["robertson_matrix"] = False
    assert verdicts == dict.fromkeys(verdicts, inside)


# ---------------------------------------------------------------------------
# characteristic gap inequalities


def test_entangled_gap_single_matrix_example():
    # det S - det A = 1 - 1 for [[1, i], [-i, 1]]
    assert entangled_char_gap([np.array([[1, 1j], [-1j, 1]])], 2) == pytest.approx(0.0, abs=1e-12)


def test_entangled_gap_symmetric_members():
    rng = np.random.default_rng(21)
    s = rand_psd(rng, 3).real
    s = (s + s.T) / 2
    for r in (1, 2, 3):
        gap = entangled_char_gap([s] * 3, r)
        lhs = brute_char_coeffs(3 * s)[r - 1].real
        assert gap == pytest.approx(lhs, rel=1e-9, abs=1e-12)
        assert gap >= 0


def test_entangled_gap_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(50):
        hs = [rand_psd(rng, 3) for _ in range(2)]
        for r in (1, 2, 3):
            assert entangled_char_gap(hs, r) >= -1e-10


def test_superadditive_gap_examples():
    assert superadditive_char_gap([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2) == pytest.approx(1.0)
    assert superadditive_char_gap([np.eye(2), np.eye(2)], 2) == pytest.approx(2.0)


def test_superadditive_gap_trace_additivity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        hs = [rand_psd(rng, 4) for _ in range(3)]
        assert abs(superadditive_char_gap(hs, 1)) < 1e-12


def test_gap_rejects_nonpsd_member_naming_index():
    good = np.eye(2)
    bad = np.diag([1.0, -1.0])
    with pytest.raises(InputError, match="matrix 1"):
        entangled_char_gap([good, bad], 2)
    with pytest.raises(InputError, match="matrix 1"):
        superadditive_char_gap([good, bad], 2)
    for gap in (entangled_char_gap, superadditive_char_gap):
        with pytest.raises(InputError, match="^a characteristic gap takes at least one matrix$"):
            gap([], 1)


def _order_one_gram():
    q, p = fock_operators(4)
    return [robertson_matrix((q, p), fock_state(0, 4))]


def _mix(e):
    """A 2 x 2 transformation with entry e."""
    return [[e, 0], [0, 1]]


# entries that would be a valid argument if they were numbers
_STR_MAT, _BOOL_MAT = [["1", "0"], ["0", "1"]], np.eye(2, dtype=bool)
_MALFORMED_CALLS = {
    "char_coeffs-string": lambda: char_coeffs(_STR_MAT),
    "char_coeffs-bool": lambda: char_coeffs(_BOOL_MAT),
    "split-string": lambda: split(_STR_MAT),
    "split-bool": lambda: split(_BOOL_MAT),
    "gram-string": lambda: gram([["1", "0"]]),
    "gram-bool": lambda: gram([[True, False]]),
    "entangled_char_gap-string": lambda: entangled_char_gap([_STR_MAT], 1),
    "superadditive_char_gap-bool": lambda: superadditive_char_gap([_BOOL_MAT], 1),
    **{
        f"{name}-r={r!r}": partial(call, r)
        for r in (1.5, "2", True, None)
        for name, call in [
            ("entangled_char_gap", lambda r: entangled_char_gap([np.eye(2)], r)),
            ("superadditive_char_gap", lambda r: superadditive_char_gap([np.eye(2)], r)),
            ("char_gap_check", lambda r: char_gap_check(_order_one_gram(), r, "entangled")),
        ]
    },
    **{
        f"{name}-{kind}": partial(call, entry)
        for kind, entry in [("string", "a"), ("nan", np.nan), ("inf", np.inf)]
        for name, call in [
            ("transform_observables", lambda e: transform_observables(_mix(e), fock_operators(4))),
            ("transform_states", lambda e: transform_states([[e]], [fock_state(0, 4)])),
        ]
    },
    "transform_observables-complex": lambda: transform_observables(_mix(1j), fock_operators(4)),
    "minimize_slack-string-init": lambda: minimize_slack(
        "heisenberg", fock_operators(16), 16, init=["0"] * 4),
    "minimize_slack-bool-init": lambda: minimize_slack(
        "heisenberg", fock_operators(16), 16, init=[False] * 4),
}


@pytest.mark.parametrize("call", list(_MALFORMED_CALLS.values()), ids=list(_MALFORMED_CALLS))
def test_malformed_numeric_arguments_are_input_errors(call):
    # every array is read by linalg.as_numbers and every order by
    # linalg.as_integer: no raw ValueError, TypeError, IndexError or
    # LinAlgError, no bool taken for a number, and no NaN result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            call()


def test_gaps_match_char_coeffs_semantics():
    rng = np.random.default_rng(29)
    hs = [rand_psd(rng, 4) for _ in range(2)]
    s_sum = sum(h.real for h in hs)
    a_sum = sum(h.imag for h in hs)
    total = sum(hs)
    for r in (1, 2, 3, 4):
        want = (brute_char_coeffs(s_sum) - brute_char_coeffs(a_sum))[r - 1].real
        assert entangled_char_gap(hs, r) == pytest.approx(want, rel=1e-9, abs=1e-10)
        want = (
            brute_char_coeffs(total)[r - 1]
            - brute_char_coeffs(hs[0])[r - 1]
            - brute_char_coeffs(hs[1])[r - 1]
        ).real
        assert superadditive_char_gap(hs, r) == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_single_psd_matrix_char_gaps_nonnegative():
    # det S >= det A and C_r(S) >= C_r(A) for psd H = S + iA
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        h = rand_psd(rng, n)
        for r in range(1, n + 1):
            assert entangled_char_gap([h], r) >= -1e-8 * max(1.0, np.linalg.norm(h, 2) ** r)


def test_char_gap_inequalities_random_ensembles():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        hs = [rand_psd(rng, n) for _ in range(m)]
        scale = max(1.0, max(np.linalg.norm(h, 2) for h in hs) ** n)
        for r in range(1, n + 1):
            assert entangled_char_gap(hs, r) >= -1e-8 * scale
            assert superadditive_char_gap(hs, r) >= -1e-8 * scale


def test_superadditive_equality_needs_singular_members():
    # nonsingular G forces a strictly positive superadditive gap at r = n
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = rand_psd(rng, n)
        h = rand_psd(rng, n)
        if np.linalg.det(g).real <= 10 * 1e-8:
            continue
        assert superadditive_char_gap([g, h], n) > 0


def test_superadditive_gap_unitary_similarity_invariance():
    # all characteristic coefficients are spectral, so any unitary conjugation
    # applied to every member leaves each gap unchanged
    rng = np.random.default_rng(43)
    n, m = 4, 3
    hs = [rand_psd(rng, n) for _ in range(m)]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    hs_rot = [q @ h @ q.conj().T for h in hs]
    for r in range(1, n + 1):
        a = superadditive_char_gap(hs, r)
        b = superadditive_char_gap(hs_rot, r)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_entangled_gap_similarity_invariance():
    # real/imaginary parts transform as a similarity only for real conjugations;
    # under complex unitaries the gap is spectral (hence invariant) at r <= 2 only
    rng = np.random.default_rng(47)
    n, m = 4, 2
    hs = [rand_psd(rng, n) for _ in range(m)]
    q_real, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hs_real = [q_real @ h @ q_real.T for h in hs]
    for r in range(1, n + 1):
        a = entangled_char_gap(hs, r)
        b = entangled_char_gap(hs_real, r)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    hs_rot = [q @ h @ q.conj().T for h in hs]
    for r in (1, 2):
        a = entangled_char_gap(hs, r)
        b = entangled_char_gap(hs_rot, r)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# audits at the largest admitted dimensions (MAX_DIM = 512)


@pytest.mark.parametrize("d", [256, 512])
def test_audits_keep_their_margin_at_the_largest_dimensions(d):
    """Matrices that are Hermitian, psd or real only up to rounding stay at
    least 1e3 inside the Hermiticity, psd and realness tolerances; about
    1e-15 relative was seen at d = 512, against tolerances of 1e-10."""
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h = (q * rng.standard_normal(d)) @ q.conj().T
    assert hermiticity_defect(h) <= 1e-3 * HERM_RTOL * np.abs(h).max()
    low = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    rho = low @ low.conj().T
    rho /= np.trace(rho).real  # rank 3: d - 3 eigenvalues are zero up to rounding
    w = np.linalg.eigvalsh(rho)
    assert w[0] >= -1e-3 * TOL_PSD * w[-1]
    obs = [Observable("H", h), Observable("G", rand_herm(rng, d))]
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for state in (PureState(v / np.linalg.norm(v)), DensityMatrix(rho)):
        ms = moment_set(obs, state)
        if isinstance(state, PureState):
            means = np.array([np.vdot(state.amplitudes, o.matrix @ state.amplitudes) for o in obs])
        else:
            means = np.array([np.trace(rho @ o.matrix) for o in obs])
        for values in (means, (ms.m2 + ms.m2.T) / 2, -0.5j * (ms.m2 - ms.m2.T)):
            scale = max(1.0, np.abs(values).max())
            assert np.abs(values.imag).max() <= 1e-3 * RESIDUE_TOL * scale

