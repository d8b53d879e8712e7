"""Matrix-kernel checks: Gram construction, positivity, characteristic
coefficients, and the two characteristic gap inequalities."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urlab.errors import InputError
from urlab.linalg import (
    HERM_RTOL,
    TOL_PSD,
    char_coeffs,
    clamp_psd,
    entangled_char_gap,
    gram,
    hermiticity_defect,
    is_psd,
    min_eigenvalue,
    split,
    superadditive_char_gap,
)
from urlab.model import DensityMatrix, Observable, PureState
from urlab.moments import RESIDUE_TOL, moment_set


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
# split / min_eigenvalue


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


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
    # 2x2 closed forms: eigenvalues 1 +- 2 and {0, 2}
    assert min_eigenvalue([[1, 2], [2, 1]]) == pytest.approx(-1.0)
    assert min_eigenvalue([[1, 1j], [-1j, 1]]) == pytest.approx(0.0, abs=1e-12)


def test_is_psd_and_clamp():
    rng = np.random.default_rng(3)
    h = rand_psd(rng, 4)
    assert is_psd(h)
    assert not is_psd(np.diag([1.0, -1.0]))
    c = clamp_psd(h - 1e-14 * np.eye(4))
    assert np.linalg.eigvalsh(c)[0] >= 0.0


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
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
    rng = np.random.default_rng(200 + n)
    h = rand_herm(rng, n)
    a = char_coeffs(h, method="minors")
    b = char_coeffs(h, method="eig")
    assert_allclose(a, b, rtol=1e-9, atol=1e-9)


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

