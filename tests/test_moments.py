"""Moment sets, Robertson matrix, Gram constructions, transformation laws."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urlab import moments
from urlab.errors import InputError
from urlab.linalg import gram
from urlab.model import (
    DensityMatrix,
    Observable,
    PureState,
    coherent_state,
    fock_operators,
    fock_state,
    sample,
    spin_operators,
)
from urlab.moments import (
    gram_centered,
    gram_raw,
    moment_set,
    second_moment_matrix,
    robertson_matrix,
    transform_observables,
    transform_states,
)


def rand_observables(rng, n, d):
    out = []
    for i in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(Observable(f"H{i}", (g + g.conj().T) / 2))
    return out


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# moment_set


def test_vacuum_qp_moments():
    q, p = fock_operators(32)
    ms = moment_set((q, p), fock_state(0, 32))
    assert_allclose(ms.means, [0, 0], atol=1e-14)
    assert_allclose(ms.sigma, np.diag([0.5, 0.5]), atol=1e-13)
    assert_allclose(ms.cmat, [[0, 0.5], [-0.5, 0]], atol=1e-13)


def test_spin_half_up_moments():
    jx, jy, jz = spin_operators(0.5)
    up = PureState(np.array([1.0, 0.0]))
    ms = moment_set((jx, jy, jz), up)
    assert_allclose(ms.sigma, np.diag([0.25, 0.25, 0.0]), atol=1e-15)
    assert ms.cmat[0, 1] == pytest.approx(0.25)
    assert ms.cmat[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert ms.cmat[1, 2] == pytest.approx(0.0, abs=1e-15)


def test_single_observable_variance_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        (x,) = rand_observables(rng, 1, d)
        st = rand_pure(rng, d)
        ms = moment_set((x,), st)
        assert ms.sigma[0, 0] >= -1e-12


def test_moment_set_mixed_state_matches_eigen_decomposition():
    # Tr(rho X) equals the eigenweighted average of pure expectations
    rng = np.random.default_rng(3)
    d = 5
    obs = rand_observables(rng, 2, d)
    rho = sample("density", d, 9)
    w, v = np.linalg.eigh(rho.matrix)
    ms = moment_set(obs, rho)
    for i, x in enumerate(obs):
        want = sum(
            wk * np.vdot(v[:, k], x.matrix @ v[:, k]).real for k, wk in enumerate(w)
        )
        assert ms.means[i] == pytest.approx(want, abs=1e-10)


def test_moment_set_dimension_mismatch():
    q, p = fock_operators(8)
    with pytest.raises(InputError):
        moment_set((q, p), fock_state(0, 9))


def test_moment_set_symmetry_structure():
    rng = np.random.default_rng(4)
    obs = rand_observables(rng, 3, 6)
    st = rand_pure(rng, 6)
    ms = moment_set(obs, st)
    assert_allclose(ms.sigma, ms.sigma.T)
    assert_allclose(ms.cmat, -ms.cmat.T)


# ---------------------------------------------------------------------------
# robertson matrix


def test_robertson_vacuum():
    q, p = fock_operators(32)
    r = robertson_matrix((q, p), fock_state(0, 32))
    assert_allclose(r.matrix, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-13)
    assert np.linalg.eigvalsh(r.matrix)[0] == pytest.approx(0.0, abs=1e-12)


def test_robertson_single_observable():
    q, _ = fock_operators(16)
    r = robertson_matrix((q,), fock_state(1, 16))
    assert r.matrix.shape == (1, 1)
    assert r.matrix[0, 0].real == pytest.approx(1.5, abs=1e-12)


def test_robertson_random_psd():
    rng = np.random.default_rng(5)
    for k in range(200):
        d = int(rng.integers(2, 7))
        obs = rand_observables(rng, 3, d)
        state = sample("density", d, 1000 + k) if k % 2 else rand_pure(rng, d)
        r = robertson_matrix(obs, state)
        assert np.linalg.eigvalsh(r.matrix)[0] >= -1e-10 * max(1.0, np.linalg.norm(r.matrix, 2))


# ---------------------------------------------------------------------------
# gram constructions


def test_gram_centered_identical_states_equals_robertson():
    rng = np.random.default_rng(6)
    d = 6
    obs = rand_observables(rng, 3, d)
    st = rand_pure(rng, d)
    g = gram_centered(obs, [st, st, st])
    r = robertson_matrix(obs, st)
    assert np.max(np.abs(g.matrix - r.matrix)) < 1e-12


def test_gram_centered_diagonal_is_variances():
    _, p = fock_operators(64)
    s1 = coherent_state(0, 64)
    s2 = coherent_state(1, 64)
    g = gram_centered([p, p], [s1, s2])
    assert_allclose(np.diag(g.matrix).real, [0.5, 0.5], atol=1e-9)


def test_gram_centered_rejects_density():
    q, _ = fock_operators(4)
    rho = sample("density", 4, 1)
    with pytest.raises(InputError, match="pure"):
        gram_centered([q], [rho])


def test_gram_raw_vacuum_single_slot():
    q, _ = fock_operators(64)
    g = gram_raw([q], [coherent_state(0, 64)])
    assert g.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)


def test_gram_raw_coherent_diagonal_identity():
    q, _ = fock_operators(64)
    g = gram_raw([q], [coherent_state(1, 64)])
    assert g.matrix[0, 0].real == pytest.approx(0.5 + 2.0, abs=1e-9)


def test_gram_raw_diagonal_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(2, 8))
        obs = rand_observables(rng, 2, d)
        states = [rand_pure(rng, d) for _ in range(2)]
        g = gram_raw(obs, states)
        for i in range(2):
            ms = moment_set((obs[i],), states[i])
            want = ms.sigma[0, 0] + ms.means[0] ** 2
            assert abs(g.matrix[i, i].real - want) < 1e-12 * max(1.0, abs(want))


def test_gram_raw_psd():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(2, 8))
        obs = rand_observables(rng, 3, d)
        states = [rand_pure(rng, d) for _ in range(3)]
        g = gram_raw(obs, states)
        assert np.linalg.eigvalsh(g.matrix)[0] >= -1e-10 * max(
            1.0, np.linalg.norm(g.matrix, 2)
        )


def test_gram_raw_rejects_density():
    q, _ = fock_operators(4)
    with pytest.raises(InputError, match="pure"):
        gram_raw([q], [sample("density", 4, 2)])


# ---------------------------------------------------------------------------
# transformation laws


def test_transform_observables_identity():
    rng = np.random.default_rng(9)
    obs = rand_observables(rng, 2, 5)
    st = rand_pure(rng, 5)
    out = transform_observables(np.eye(2), obs)
    ms0 = moment_set(obs, st)
    ms1 = moment_set(out, st)
    assert_allclose(ms1.sigma, ms0.sigma, atol=1e-13)
    assert_allclose(ms1.cmat, ms0.cmat, atol=1e-13)


def test_transform_observables_covariance_law():
    rng = np.random.default_rng(10)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        obs = rand_observables(rng, n, d)
        st = rand_pure(rng, d) if rng.random() < 0.5 else sample("density", d, int(rng.integers(1 << 16)))
        lam = rng.standard_normal((n, n))
        ms0 = moment_set(obs, st)
        ms1 = moment_set(transform_observables(lam, obs), st)
        scale = max(1.0, float(np.max(np.abs(ms1.sigma))))
        assert np.max(np.abs(ms1.sigma - lam @ ms0.sigma @ lam.T)) < 1e-10 * scale
        scale = max(1.0, float(np.max(np.abs(ms1.cmat))))
        assert np.max(np.abs(ms1.cmat - lam @ ms0.cmat @ lam.T)) < 1e-10 * scale


def test_transform_observables_symplectic_preserves_determinants():
    q, p = fock_operators(64)
    st = coherent_state(0.5 + 0.1j, 64)
    s = 1.7
    lam = np.diag([s, 1 / s])
    ms0 = moment_set((q, p), st)
    ms1 = moment_set(transform_observables(lam, (q, p)), st)
    assert np.linalg.det(ms1.sigma) == pytest.approx(np.linalg.det(ms0.sigma), rel=1e-10)
    assert np.linalg.det(ms1.cmat) == pytest.approx(np.linalg.det(ms0.cmat), rel=1e-10)


def test_transform_observables_orthogonal_preserves_char_gaps():
    from urlab.linalg import char_coeffs

    rng = np.random.default_rng(11)
    jx, jy, jz = spin_operators(1.5)
    st = rand_pure(rng, 4)
    lam, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    ms0 = moment_set((jx, jy, jz), st)
    ms1 = moment_set(transform_observables(lam, (jx, jy, jz)), st)
    gaps0 = char_coeffs(ms0.sigma) - char_coeffs(ms0.cmat)
    gaps1 = char_coeffs(ms1.sigma) - char_coeffs(ms1.cmat)
    assert np.max(np.abs(gaps0 - gaps1)) < 1e-9 * max(1.0, np.max(np.abs(gaps0)))


def test_transform_states_identity():
    rng = np.random.default_rng(12)
    states = [rand_pure(rng, 5) for _ in range(2)]
    out = transform_states(np.eye(2), states)
    assert_allclose(out[0], states[0].amplitudes)
    assert_allclose(out[1], states[1].amplitudes)


def test_transform_states_unitary_preserves_gram_determinant():
    q, _ = fock_operators(64)
    states = [coherent_state(0.3, 64), coherent_state(-0.4 + 0.2j, 64)]
    g0 = gram_raw([q, q], states)
    u, _ = np.linalg.qr(
        np.random.default_rng(13).standard_normal((2, 2))
        + 1j * np.random.default_rng(14).standard_normal((2, 2))
    )
    imgs = transform_states(u, states)
    g1 = gram_raw([q, q], imgs)
    assert np.linalg.det(g1.matrix).real == pytest.approx(
        np.linalg.det(g0.matrix).real, rel=1e-10
    )


def test_transform_states_covariance_entrywise():
    rng = np.random.default_rng(15)
    d = 6
    (x,) = rand_observables(rng, 1, d)
    for trial in range(20):
        m = int(rng.integers(2, 4))
        states = [rand_pure(rng, d) for _ in range(m)]
        u = np.diag([2.0, 1.0]) if trial == 0 and m == 2 else (
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        )
        g0 = gram_raw([x] * m, states)
        g1 = gram_raw([x] * m, transform_states(u, states))
        want = u @ g0.matrix @ u.conj().T
        assert np.max(np.abs(g1.matrix - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_transform_states_singular_warns():
    rng = np.random.default_rng(16)
    states = [rand_pure(rng, 4) for _ in range(2)]
    with pytest.warns(UserWarning, match="singular"):
        transform_states(np.zeros((2, 2)), states)


# ---------------------------------------------------------------------------
# moment sets against per-state formulas


def rand_density(rng, d, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def per_state_moments(obs, psi):
    """Means, sigma, C and the commutators <[X_i, X_j]> of one pure state from
    the rows X_i|psi>, one formula per quantity."""
    rows = np.array([o.matrix @ psi for o in obs])
    m2 = rows.conj() @ rows.T
    means = np.array([np.vdot(psi, r) for r in rows]).real
    sigma = ((m2 + m2.T) / 2).real - np.outer(means, means)
    sigma = (sigma + sigma.T) / 2
    cmat = (-0.5j * (m2 - m2.T)).real
    cmat = (cmat - cmat.T) / 2
    comm = {}
    for i, j in itertools.permutations(range(len(obs)), 2):
        z = np.vdot(rows[i], rows[j])
        comm[i, j] = z - np.conj(z)
    return means, sigma, cmat, comm


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 64])
def test_moment_set_pure_states_match_per_state_formulas(d, n):
    """Byte-equal to the formulas read from the rows X_i|psi>, at the scan's
    dims 2-12 and at dim 64, where the minimiser runs."""
    rng = np.random.default_rng(100 * d + n)
    for obs in ((fock_operators(d) * 2)[:n], rand_observables(rng, n, d)):
        for _ in range(5):
            st = rand_pure(rng, d)
            ms = moment_set(obs, st)
            means, sigma, cmat, comm = per_state_moments(obs, st.amplitudes)
            assert ms.means.tobytes() == means.tobytes()
            assert ms.sigma.tobytes() == sigma.tobytes()
            assert ms.cmat.tobytes() == cmat.tobytes()
            assert all(ms.comm(i, j) == c for (i, j), c in comm.items())
            assert ms.m2.tobytes() == second_moment_matrix(obs, st).tobytes()


@pytest.mark.parametrize("d", [2, 17, 64, 256])
def test_moment_set_mixed_commutators_match_trace_formula(d):
    rng = np.random.default_rng(d)
    obs = rand_observables(rng, 3, d)
    for rho in (rand_density(rng, d), rand_density(rng, d, rank=2)):
        ms = moment_set(obs, rho)
        for i, j in itertools.permutations(range(3), 2):
            x, y = obs[i].matrix, obs[j].matrix
            want = np.trace(rho.matrix @ (x @ y - y @ x))
            assert abs(ms.comm(i, j) - want) <= 1e-12 * abs(want)
            assert abs(ms.cmat[i, j] - (-0.5j * want).real) <= 1e-12 * abs(want)
        assert ms.rows is None
        assert ms.m2.tobytes() == second_moment_matrix(obs, rho).tobytes()


# ---------------------------------------------------------------------------
# per-state moment memo


def _arrays(ms):
    return [a for a in (ms.means, ms.sigma, ms.cmat, ms.m2, ms.rows) if a is not None]


def test_memo_hit_is_bit_identical_to_a_fresh_computation():
    rng = np.random.default_rng(21)
    obs = rand_observables(rng, 3, 12)
    pure = rand_pure(rng, 12)
    mixed = rand_density(rng, 12)
    for st, twin in ((pure, PureState(pure.amplitudes)), (mixed, DensityMatrix(mixed.matrix))):
        first = moment_set(obs, st)
        hit = moment_set(obs, st)
        fresh = moment_set(obs, twin)  # an equal state is a distinct memo key
        assert hit.m2 is first.m2 and fresh.m2 is not first.m2
        for a, b, c in zip(_arrays(first), _arrays(hit), _arrays(fresh), strict=True):
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert second_moment_matrix(obs, st) is first.m2


def test_each_product_is_formed_once_per_state_and_tuple(monkeypatch):
    calls = []
    raw_moments = moments._raw_moments

    def counting(mats, state):
        calls.append(len(mats))
        return raw_moments(mats, state)

    monkeypatch.setattr(moments, "_raw_moments", counting)
    obs = fock_operators(16)
    psi = coherent_state(0.4 - 0.3j, 16)
    moment_set(obs, psi)
    robertson_matrix(obs, psi)
    gram_centered(obs, [psi, psi])
    gram_raw(obs, [psi, psi])
    second_moment_matrix(list(obs), psi)
    assert calls == [2]
    moment_set(obs[:1], psi)
    assert calls == [2, 1]
    # a Gram construction reads the memo but does not fill it
    fresh = coherent_state(0.1j, 16)
    gram_centered(obs, [fresh, fresh])
    gram_raw(obs, [fresh, fresh])
    assert calls == [2, 1] and moments._MEMO_ATTR not in vars(fresh)


def _memo(state) -> dict:
    return vars(state)[moments._MEMO_ATTR]


def test_memo_keeps_at_most_memo_size_tuples_per_state():
    rng = np.random.default_rng(22)
    pool = rand_observables(rng, moments.MEMO_SIZE + 2, 6)
    psi = rand_pure(rng, 6)
    tuples = [(a, b) for a, b in zip(pool, pool[1:])]
    for t in tuples:
        moment_set(t, psi)
    assert list(_memo(psi)) == tuples[-moments.MEMO_SIZE:]  # the oldest went first
    again = moment_set(tuples[0], psi)
    assert again.m2.tobytes() == moment_set(tuples[0], PureState(psi.amplitudes)).m2.tobytes()
    assert len(_memo(psi)) == moments.MEMO_SIZE


def test_collected_state_drops_its_memo_entries():
    obs = fock_operators(16)
    psi = coherent_state(0.5, 16)
    ms = moment_set(obs, psi)
    assert _memo(psi)[obs][0] is ms.rows
    refs = [weakref.ref(psi), weakref.ref(ms.rows), weakref.ref(ms.m2)]
    del psi, ms
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_moment_set_arrays_are_read_only():
    rng = np.random.default_rng(23)
    obs = rand_observables(rng, 2, 5)
    for st in (rand_pure(rng, 5), rand_density(rng, 5)):
        ms = moment_set(obs, st)
        for a in _arrays(ms) + [second_moment_matrix(obs, st)]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


def _gram_centered_by_slot(observables, states):
    """Centered Gram matrix formed as earlier versions did, two products per slot."""
    vecs = []
    for obs, st in zip(observables, states):
        psi = st.amplitudes
        mean = np.vdot(psi, obs.matrix @ psi).real
        vecs.append(obs.matrix @ psi - mean * psi)
    return gram(vecs)


@pytest.mark.parametrize("d", [3, 12, 64])
def test_one_state_grams_are_bit_identical_to_per_slot_products(d):
    rng = np.random.default_rng(24 + d)
    obs = rand_observables(rng, 3, d)
    for warm in (False, True):
        psi = rand_pure(rng, d)
        if warm:
            moment_set(obs, psi)
        slots = [psi] * len(obs)
        want_c = _gram_centered_by_slot(obs, slots)
        want_r = gram([o.matrix @ psi.amplitudes for o in obs])
        assert gram_centered(obs, slots).matrix.tobytes() == want_c.tobytes()
        assert gram_raw(obs, slots).matrix.tobytes() == want_r.tobytes()
    states = [rand_pure(rng, d) for _ in obs]
    want_c = _gram_centered_by_slot(obs, states)
    assert gram_centered(obs, states).matrix.tobytes() == want_c.tobytes()
