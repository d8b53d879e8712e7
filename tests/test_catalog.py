"""Catalog checks: example values, universal validity, reduction identities."""

import hashlib
import json
import math

import numpy as np
import pytest

from urlab import catalog
from urlab.catalog import (
    CHAR_GAP_IDS,
    SPECS,
    UR_SPECS,
    URReport,
    _digest,
    char_gap_from_states,
    characteristic,
    coherent_fixed,
    entangled_heisenberg,
    evaluate_ur,
    extended_schrodinger,
    heisenberg,
    char_gap_check,
    robertson,
    schrodinger,
    type_1_2,
    type_2_1,
    type_2_2,
    type_2_m,
    type_3_1,
)
from urlab.ensembles import DEFAULT_SCAN_URS, scan_report, stream_rng
from urlab.errors import InputError
from urlab.linalg import slack_scale
from urlab.model import (
    DensityMatrix,
    Observable,
    PureState,
    coherent_state,
    fock_operators,
    fock_state,
    quad_mix,
    sample,
    spin_operators,
    squeezed_state,
)
from urlab.moments import GramUR, gram_centered, robertson_matrix, transform_observables


def rand_observables(rng, n, d):
    out = []
    for i in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(Observable(f"H{i}", (g + g.conj().T) / 2))
    return out


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def rand_state(rng, d):
    if rng.random() < 0.5:
        return sample("density", d, int(rng.integers(1 << 31)))
    return rand_pure(rng, d)


# ---------------------------------------------------------------------------
# heisenberg / schrodinger


def test_heisenberg_vacuum_saturated():
    q, p = fock_operators(64)
    rep = heisenberg(q, p, fock_state(0, 64))
    assert rep.lhs == pytest.approx(0.25, abs=1e-10)
    assert rep.rhs == pytest.approx(0.25, abs=1e-10)
    assert rep.saturated


def test_heisenberg_squeezed_saturated():
    q, p = fock_operators(64)
    rep = heisenberg(q, p, squeezed_state(0, 0.5, 0, 64))
    assert rep.lhs == pytest.approx(0.25, abs=1e-8)
    assert rep.rhs == pytest.approx(0.25, abs=1e-8)
    assert rep.saturated


def test_heisenberg_spin_half_up():
    jx, jy, _ = spin_operators(0.5)
    rep = heisenberg(jx, jy, PureState([1.0, 0.0]))
    assert rep.lhs == pytest.approx(1 / 16)
    assert rep.rhs == pytest.approx(1 / 16)
    assert rep.saturated


def test_schrodinger_gaussian_saturated():
    q, p = fock_operators(64)
    for state in (coherent_state(0.7 + 0.2j, 64), squeezed_state(0.2, 0.6, 1.0, 64)):
        rep = schrodinger(q, p, state)
        assert abs(rep.slack) <= 1e-8


def test_schrodinger_fock_one():
    q, p = fock_operators(64)
    rep = schrodinger(q, p, fock_state(1, 64))
    assert rep.lhs == pytest.approx(9 / 4, abs=1e-10)
    assert rep.rhs == pytest.approx(1 / 4, abs=1e-10)
    assert rep.slack == pytest.approx(2.0, abs=1e-9)


def test_schrodinger_equal_observables_trivial():
    q, _ = fock_operators(16)
    rep = schrodinger(q, q, fock_state(2, 16))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.saturated


# ---------------------------------------------------------------------------
# robertson / characteristic


def test_robertson_n2_equals_schrodinger():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y = rand_observables(rng, 2, d)
        st = rand_state(rng, d)
        r = robertson((x, y), st)
        s = schrodinger(x, y, st)
        assert r.lhs == pytest.approx(s.lhs, rel=1e-10, abs=1e-12)
        assert r.rhs == pytest.approx(s.rhs, rel=1e-10, abs=1e-12)


def test_robertson_spin_half_up_degenerate():
    jx, jy, jz = spin_operators(0.5)
    rep = robertson((jx, jy, jz), PureState([1.0, 0.0]))
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)


def test_robertson_random_mixed_holds():
    rng = np.random.default_rng(2)
    for k in range(100):
        d = int(rng.integers(4, 10))
        obs = rand_observables(rng, 4, d)
        rep = robertson(obs, sample("density", d, k))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


def test_robertson_spin_triple_ensemble_holds():
    rng = np.random.default_rng(26)
    ops = spin_operators(1.0)
    for _ in range(200):
        rep = robertson(ops, rand_pure(rng, 3))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


def test_robertson_equality_invariance_under_nonsingular_mix():
    # slack scales by det(lam)^2 exactly, so the sign is preserved
    rng = np.random.default_rng(3)
    q, p = fock_operators(32)
    st = rand_pure(rng, 32)
    for _ in range(20):
        lam = rng.standard_normal((2, 2))
        if abs(np.linalg.det(lam)) < 0.1:
            continue
        r0 = robertson((q, p), st)
        r1 = robertson(tuple(transform_observables(lam, (q, p))), st)
        want = np.linalg.det(lam) ** 2 * r0.slack
        assert r1.slack == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_characteristic_r1_trace_vs_zero():
    rng = np.random.default_rng(4)
    obs = rand_observables(rng, 3, 5)
    rep = characteristic(obs, rand_pure(rng, 5), 1)
    assert rep.rhs == 0.0
    assert rep.lhs >= 0.0


def test_characteristic_r2_vacuum_matches_schrodinger():
    q, p = fock_operators(32)
    rep = characteristic((q, p), fock_state(0, 32), 2)
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)


def test_characteristic_odd_r_rhs_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(3, 5))
        obs = rand_observables(rng, n, d)
        st = rand_state(rng, d)
        for r in range(1, n + 1, 2):
            rep = characteristic(obs, st, r)
            assert abs(rep.rhs) < 1e-12 * max(1.0, abs(rep.lhs))


def test_characteristic_rn_equals_robertson():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        obs = rand_observables(rng, n, d)
        st = rand_state(rng, d)
        c = characteristic(obs, st, n)
        r = robertson(obs, st)
        assert c.lhs == pytest.approx(r.lhs, rel=1e-10, abs=1e-12)
        assert c.rhs == pytest.approx(r.rhs, rel=1e-10, abs=1e-12)


def test_characteristic_orthogonal_invariance_every_order():
    rng = np.random.default_rng(7)
    jx, jy, jz = spin_operators(1.0)
    st = rand_pure(rng, 3)
    lam, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mixed = tuple(transform_observables(lam, (jx, jy, jz)))
    for r in (1, 2, 3):
        a = characteristic((jx, jy, jz), st, r)
        b = characteristic(mixed, st, r)
        assert b.slack == pytest.approx(a.slack, rel=1e-9, abs=1e-11)


# ---------------------------------------------------------------------------
# type (1,2)


def test_type_1_2a_identical_states_saturated():
    q, _ = fock_operators(32)
    st = fock_state(2, 32)
    rep = type_1_2(q, st, st, "a")
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-12)
    assert rep.saturated


def test_type_1_2a_coherent_pair_strict():
    _, p = fock_operators(64)
    s1, s2 = coherent_state(0, 64), coherent_state(1, 64)
    rep = type_1_2(p, s1, s2, "a")
    # brute-force oracle in the truncated basis
    pm = p.matrix
    m1 = np.vdot(s1.amplitudes, pm @ s1.amplitudes).real
    m2 = np.vdot(s2.amplitudes, pm @ s2.amplitudes).real
    chi1 = pm @ s1.amplitudes - m1 * s1.amplitudes
    chi2 = pm @ s2.amplitudes - m2 * s2.amplitudes
    want_rhs = abs(np.vdot(chi1, chi2)) ** 2
    assert rep.rhs == pytest.approx(want_rhs, rel=1e-12)
    assert rep.slack > 0.01


def test_type_1_2b_vanishing_rhs():
    x = Observable("X", np.diag([1.0, 1.0, 2.0]).astype(complex))
    psi2 = PureState([1.0, 0.0, 0.0])
    psi1 = PureState([0.0, 1.0, 0.0])
    rep = type_1_2(x, psi1, psi2, "b")
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert rep.lhs == pytest.approx(1.0)


def test_type_1_2_rejects_mixed():
    q, _ = fock_operators(4)
    with pytest.raises(InputError):
        type_1_2(q, sample("density", 4, 0), fock_state(0, 4), "a")


# ---------------------------------------------------------------------------
# type (2,1)


def test_type_2_1_vacuum():
    q, p = fock_operators(64)
    rep = type_2_1(q, p, fock_state(0, 64))
    assert rep.lhs == pytest.approx(0.25, abs=1e-10)
    assert rep.rhs == pytest.approx(0.25, abs=1e-10)
    assert rep.saturated


def test_type_2_1_coherent():
    q, p = fock_operators(64)
    rep = type_2_1(q, p, coherent_state(1.0, 64))
    assert rep.lhs == pytest.approx((0.5 + 2.0) * 0.5, abs=1e-9)
    assert rep.rhs == pytest.approx(0.25, abs=1e-9)
    assert rep.slack == pytest.approx(1.0, abs=1e-8)


def test_type_2_1_random_holds():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        x, y = rand_observables(rng, 2, d)
        rep = type_2_1(x, y, rand_state(rng, d))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


# ---------------------------------------------------------------------------
# type (2,2)


def test_type_2_2a_single_state_schwartz_bound():
    q, p = fock_operators(64)
    st = squeezed_state(0.3, 0.4, 0.7, 64)
    rep = type_2_2(q, p, st, st, "a")
    # |<(q - <q>)(p - <p>)>|^2 = (cov qp)^2 + 1/4 for canonical pairs
    from urlab.moments import moment_set

    ms = moment_set((q, p), st)
    assert rep.rhs == pytest.approx(ms.sigma[0, 1] ** 2 + 0.25, abs=1e-8)


def test_type_2_2a_vacuum_pair():
    q, p = fock_operators(64)
    vac = fock_state(0, 64)
    rep = type_2_2(q, p, vac, vac, "a")
    assert rep.lhs == pytest.approx(0.25, abs=1e-10)
    assert rep.rhs == pytest.approx(0.25, abs=1e-10)


def test_type_2_2_random_holds_both_variants():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        x, y = rand_observables(rng, 2, d)
        s1, s2 = rand_pure(rng, d), rand_pure(rng, d)
        for variant in ("a", "b"):
            rep = type_2_2(x, y, s1, s2, variant)
            assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


# ---------------------------------------------------------------------------
# extended schrodinger / entangled heisenberg


def test_extended_schrodinger_identical_states_reduces():
    rng = np.random.default_rng(10)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y = rand_observables(rng, 2, d)
        st = rand_pure(rng, d)
        a = extended_schrodinger(x, y, st, st)
        b = schrodinger(x, y, st)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-10, abs=1e-12)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-10, abs=1e-12)


def test_extended_schrodinger_coherent_squeezed_values():
    q, p = fock_operators(64)
    for r in (0.3, 0.7, 1.0):
        rep = extended_schrodinger(q, p, coherent_state(0.4 - 0.1j, 64), squeezed_state(0, r, 0, 64))
        assert rep.lhs == pytest.approx(0.25 * math.cosh(2 * r), rel=1e-7)
        assert rep.rhs == pytest.approx(0.25, abs=1e-9)


def test_extended_schrodinger_random_holds():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        x, y = rand_observables(rng, 2, d)
        rep = extended_schrodinger(x, y, rand_pure(rng, d), rand_pure(rng, d))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


def test_entangled_heisenberg_gaussian_pair():
    q, p = fock_operators(64)
    for r in (0.0, 0.4, 1.0):
        rep = entangled_heisenberg(q, p, coherent_state(0, 64), squeezed_state(0, r, 0, 64))
        assert 2 * rep.lhs == pytest.approx(0.5 * math.cosh(2 * r), rel=1e-7)
        assert 2 * rep.rhs == pytest.approx(0.5, abs=1e-9)
    rep0 = entangled_heisenberg(q, p, coherent_state(0, 64), squeezed_state(0, 0, 0, 64))
    assert abs(rep0.slack) < 1e-9


def test_entangled_heisenberg_vacuum_pair():
    q, p = fock_operators(64)
    vac = fock_state(0, 64)
    rep = entangled_heisenberg(q, p, vac, vac)
    assert rep.lhs == pytest.approx(0.25, abs=1e-10)
    assert rep.rhs == pytest.approx(0.25, abs=1e-10)


def test_entangled_heisenberg_random_holds():
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        x, y = rand_observables(rng, 2, d)
        rep = entangled_heisenberg(x, y, rand_pure(rng, d), rand_pure(rng, d))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


# ---------------------------------------------------------------------------
# type (3,1)


def test_type_3_1_z_equals_y_doubles_schrodinger():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y = rand_observables(rng, 2, d)
        st = rand_pure(rng, d)
        a = type_3_1(x, y, y, st)
        b = schrodinger(x, y, st)
        assert a.slack == pytest.approx(2 * b.slack, rel=1e-10, abs=1e-11)


def test_type_3_1_x_equals_y_new_ordinary():
    rng = np.random.default_rng(14)
    from urlab.moments import moment_set

    for _ in range(30):
        d = int(rng.integers(2, 8))
        x, z = rand_observables(rng, 2, d)
        st = rand_pure(rng, d)
        rep = type_3_1(x, x, z, st)
        ms = moment_set((x, z), st)
        vx, vz, cxz = ms.sigma[0, 0], ms.sigma[1, 1], ms.sigma[0, 1]
        # slack = varX (varX + varZ - 2 covXZ) >= 0
        assert rep.slack == pytest.approx(vx * (vx + vz) - 2 * vx * cxz, rel=1e-9, abs=1e-12)
        assert rep.slack >= -1e-10 * slack_scale(rep.lhs, rep.rhs)


def test_type_3_1_quadrature_triple_holds():
    q, p = fock_operators(64)
    mix = quad_mix(64)
    for r in (0.2, 0.5, 0.9):
        rep = type_3_1(q, p, mix, squeezed_state(0.1, r, 0.3, 64))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


def test_type_3_1_random_holds():
    rng = np.random.default_rng(15)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        x, y, z = rand_observables(rng, 3, d)
        rep = type_3_1(x, y, z, rand_pure(rng, d))
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


# ---------------------------------------------------------------------------
# type (2,m)


def test_type_2_m_m2_equals_extended_schrodinger():
    rng = np.random.default_rng(16)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y = rand_observables(rng, 2, d)
        s1, s2 = rand_pure(rng, d), rand_pure(rng, d)
        a = type_2_m(x, y, [s1, s2])
        b = extended_schrodinger(x, y, s1, s2)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=1e-14)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12, abs=1e-14)


def test_type_2_m_mixed_gaussian_like_holds():
    rng = np.random.default_rng(17)
    q, p = fock_operators(16)
    states = [sample("density", 16, k) for k in range(3)]
    rep = type_2_m(q, p, states)
    assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)
    assert rep.type_nm == (2, 3)


def test_type_2_m_identical_states_collapse():
    rng = np.random.default_rng(18)
    d = 6
    x, y = rand_observables(rng, 2, d)
    st = rand_pure(rng, d)
    s = schrodinger(x, y, st)
    for m in (2, 3, 4):
        rep = type_2_m(x, y, [st] * m)
        pairs = m * (m - 1) / 2
        assert rep.lhs == pytest.approx(pairs * s.lhs, rel=1e-10)
        assert rep.rhs == pytest.approx(pairs * s.rhs, rel=1e-10)


def test_type_2_m_requires_two_states():
    rng = np.random.default_rng(19)
    x, y = rand_observables(rng, 2, 4)
    with pytest.raises(InputError):
        type_2_m(x, y, [rand_pure(rng, 4)])


def test_type_2_m_slack_is_half_superadditive_gap():
    from urlab.linalg import superadditive_char_gap

    rng = np.random.default_rng(20)
    d = 6
    x, y = rand_observables(rng, 2, d)
    states = [rand_pure(rng, d) for _ in range(3)]
    rep = type_2_m(x, y, states)
    mats = [robertson_matrix((x, y), s).matrix for s in states]
    gap = superadditive_char_gap(mats, 2)
    assert rep.slack == pytest.approx(gap / 2, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# char_gap_check


def test_char_gap_single_robertson_entangled_equals_characteristic():
    rng = np.random.default_rng(22)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 4))
        obs = rand_observables(rng, n, d)
        st = rand_state(rng, d)
        mat = robertson_matrix(obs, st)
        for r in range(1, n + 1):
            a = char_gap_check([mat], r, "entangled")
            b = characteristic(obs, st, r)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-9, abs=1e-11)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-9, abs=1e-11)


def test_char_gap_two_robertson_superadditive_matches_extended_schrodinger():
    q, p = fock_operators(64)
    s1 = coherent_state(0.5, 64)
    s2 = squeezed_state(0, 0.6, 0, 64)
    mats = [robertson_matrix((q, p), s) for s in (s1, s2)]
    a = char_gap_check(mats, 2, "superadditive")
    b = extended_schrodinger(q, p, s1, s2)
    assert a.slack == pytest.approx(2 * b.slack, rel=1e-9, abs=1e-11)


def test_char_gap_three_centered_grams_hold_all_orders():
    rng = np.random.default_rng(23)
    d = 8
    obs = rand_observables(rng, 3, d)
    mats = []
    for _ in range(3):
        st = rand_pure(rng, d)
        mats.append(gram_centered(obs, [st] * 3))
    for r in (1, 2, 3):
        rep = char_gap_check(mats, r, "entangled")
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)
        rep = char_gap_check(mats, r, "superadditive")
        assert rep.slack >= -1e-8 * slack_scale(rep.lhs, rep.rhs)


def test_char_gap_rejects_bad_flavor():
    rng = np.random.default_rng(24)
    mat = robertson_matrix(rand_observables(rng, 2, 4), rand_pure(rng, 4))
    with pytest.raises(InputError):
        char_gap_check([mat], 2, "multiplicative")


# ---------------------------------------------------------------------------
# coherent-fixed ordinary check


def test_coherent_fixed_on_gaussians():
    q, p = fock_operators(64)
    rep = coherent_fixed(p, q, coherent_state(0.8 + 0.1j, 64))
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.saturated
    rep = coherent_fixed(p, q, squeezed_state(0, 0.5, 0, 64))
    assert rep.lhs == pytest.approx(math.cosh(1.0), rel=1e-8)
    assert rep.slack > 0


# ---------------------------------------------------------------------------
# report mechanics


def test_report_fields_consistent():
    q, p = fock_operators(32)
    rep = schrodinger(q, p, fock_state(1, 32))
    assert rep.slack == rep.lhs - rep.rhs
    assert rep.tol == pytest.approx(1e-8 * slack_scale(rep.lhs, rep.rhs))
    assert rep.type_nm == (2, 1)
    assert len(rep.inputs_digest) == 16
    d = rep.as_dict()
    assert d["ur_id"] == "schrodinger"
    assert d["slack"] == rep.slack


def test_report_digest_tracks_inputs():
    q, p = fock_operators(32)
    r1 = schrodinger(q, p, fock_state(0, 32))
    r2 = schrodinger(q, p, fock_state(0, 32))
    r3 = schrodinger(q, p, fock_state(1, 32))
    assert r1.inputs_digest == r2.inputs_digest
    assert r1.inputs_digest != r3.inputs_digest


# inputs_digest of one seeded scan instance per default check, recorded when
# each observable and state first hashed itself into a sub-digest (only the
# char gaps, whose inputs are copied Gram matrices, kept their earlier values)
GOLDEN_DIGESTS = {
    "heisenberg": "f5270c4cd4f08a61",
    "schrodinger": "e7c67d810af06ec0",
    "robertson": "af52be95008a7078",
    "characteristic": "173042bdbb0e8171",
    "type_1_2a": "6a73cb019c481ef8",
    "type_1_2b": "aef84300be9c53c5",
    "type_2_1": "c095b9495b692ab2",
    "type_2_2a": "3a5b2d1dc5b3b71a",
    "type_2_2b": "0af701c57c698464",
    "extended_schrodinger": "5cc6ac9f3b77f21c",
    "entangled_heisenberg": "b9f0086e4b88f40e",
    "type_3_1": "23180b9453cc6293",
    "type_2_m": "c17afedd906b2430",
    "char_gap_entangled": "304c97561027a9fb",
    "char_gap_superadditive": "7885b46af9933e0c",
}


def test_golden_digests_of_default_scan_checks():
    assert set(GOLDEN_DIGESTS) == set(DEFAULT_SCAN_URS)
    for ur_id, digest in GOLDEN_DIGESTS.items():
        rep = scan_report(ur_id, stream_rng(2024, f"golden:{ur_id}"), [2, 3, 4])
        assert rep.inputs_digest == digest, ur_id
        assert rep.as_dict()["inputs_digest"] == digest, ur_id


def test_digest_ignores_later_mutation_of_inputs():
    rng = np.random.default_rng(31)
    obs = rand_observables(rng, 2, 3)
    states = [rand_pure(rng, 3), rand_pure(rng, 3)]
    grams = [robertson_matrix(obs, s) for s in states]
    expected = char_gap_check(
        [GramUR(g.kind, g.matrix.copy(), g.provenance) for g in grams], 2, "superadditive"
    ).inputs_digest
    rep = char_gap_check(grams, 2, "superadditive")
    for g in grams:
        g.matrix[0, 0] += 1.0
    assert rep.inputs_digest == expected

    amps = np.array([0.6, 0.8j])
    expected = _digest("raw", (), (amps.copy(),))()
    hasher = _digest("raw", (), (amps,))
    amps[0] = 1.0
    assert hasher() == expected


def _documented_digest(ur_id, observables, states, extras=()):
    """inputs_digest spelled out from its definition in the README."""
    h = hashlib.sha256(ur_id.encode())
    for obs in observables:
        h.update(hashlib.sha256(b"O" + obs.name.encode() + obs.matrix.tobytes()).digest())
    for st in states:
        if isinstance(st, PureState):
            h.update(hashlib.sha256(b"P" + st.amplitudes.tobytes()).digest())
        elif isinstance(st, DensityMatrix):
            h.update(hashlib.sha256(b"D" + st.matrix.tobytes()).digest())
        else:
            h.update(b"V" + np.asarray(st, dtype=complex).tobytes())
    for x in extras:
        h.update(repr(x).encode())
    return h.hexdigest()[:16]


def test_digest_follows_the_documented_formula():
    rng = np.random.default_rng(41)
    obs = rand_observables(rng, 2, 3)
    states = (rand_pure(rng, 3), sample("density", 3, 5))
    rep = type_2_m(*obs, states)
    assert rep.inputs_digest == _documented_digest("type_2_m", obs, states)
    rep = characteristic(obs, states[0], 1)
    assert rep.inputs_digest == _documented_digest("characteristic", obs, states[:1], (1,))
    grams = [robertson_matrix(obs, s) for s in states]
    rep = char_gap_check(grams, 2, "entangled")
    prov = tuple(f"{g.kind}:{','.join(g.provenance)}" for g in grams)
    expected = _documented_digest("char_gap_entangled", (), [g.matrix for g in grams], (2,) + prov)
    assert rep.inputs_digest == expected


def test_equal_inputs_in_distinct_objects_give_equal_digests():
    rng = np.random.default_rng(43)
    x, y = rand_observables(rng, 2, 4)
    psi, rho = rand_pure(rng, 4), sample("density", 4, 9)
    x2, y2 = (Observable(o.name, o.matrix.copy()) for o in (x, y))
    psi2, rho2 = PureState(psi.amplitudes.copy()), DensityMatrix(rho.matrix.copy())
    assert all(a is not b for a, b in ((x, x2), (y, y2), (psi, psi2), (rho, rho2)))
    assert (x.digest, psi.digest, rho.digest) == (x2.digest, psi2.digest, rho2.digest)
    rep = type_2_m(x, y, (psi, rho))
    assert type_2_m(x2, y2, (psi2, rho2)).inputs_digest == rep.inputs_digest
    renamed = Observable("other", x.matrix)
    assert renamed.digest != x.digest
    assert type_2_m(renamed, y, (psi, rho)).inputs_digest != rep.inputs_digest
    assert type_2_m(x, y, (rho, psi)).inputs_digest != rep.inputs_digest


def test_report_accepts_a_digest_string():
    rep = URReport("heisenberg", (2, 1), 1.0, 0.25, 0.75, False, 1e-8, "0123456789abcdef")
    assert rep.inputs_digest == "0123456789abcdef"
    assert rep.as_dict()["inputs_digest"] == "0123456789abcdef"


def test_evaluate_ur_dispatch_and_signature_checks():
    q, p = fock_operators(16)
    vac = fock_state(0, 16)
    rep = evaluate_ur("schrodinger", (q, p), (vac,))
    assert rep.ur_id == "schrodinger"
    rep = evaluate_ur("characteristic", (q, p), (vac,), r=1)
    assert rep.rhs == 0.0
    with pytest.raises(InputError):
        evaluate_ur("schrodinger", (q,), (vac,))
    with pytest.raises(InputError):
        evaluate_ur("type_1_2a", (q,), (vac,))
    with pytest.raises(InputError):
        evaluate_ur("no_such_ur", (q, p), (vac,))


# id -> (number of observables, number of states, extras, the public function
# called directly on (observables, states, extras))
TABLE_CASES = {
    "heisenberg": (2, 1, {}, lambda o, s, e: heisenberg(o[0], o[1], s[0])),
    "schrodinger": (2, 1, {}, lambda o, s, e: schrodinger(o[0], o[1], s[0])),
    "robertson": (3, 1, {}, lambda o, s, e: robertson(o, s[0])),
    "characteristic": (3, 1, {"r": 2}, lambda o, s, e: characteristic(o, s[0], e["r"])),
    "type_1_2a": (1, 2, {}, lambda o, s, e: type_1_2(o[0], s[0], s[1], "a")),
    "type_1_2b": (1, 2, {}, lambda o, s, e: type_1_2(o[0], s[0], s[1], "b")),
    "type_2_1": (2, 1, {}, lambda o, s, e: type_2_1(o[0], o[1], s[0])),
    "type_2_2a": (2, 2, {}, lambda o, s, e: type_2_2(o[0], o[1], s[0], s[1], "a")),
    "type_2_2b": (2, 2, {}, lambda o, s, e: type_2_2(o[0], o[1], s[0], s[1], "b")),
    "extended_schrodinger": (2, 2, {}, lambda o, s, e: extended_schrodinger(o[0], o[1], s[0], s[1])),
    "entangled_heisenberg": (2, 2, {}, lambda o, s, e: entangled_heisenberg(o[0], o[1], s[0], s[1])),
    "type_3_1": (3, 1, {}, lambda o, s, e: type_3_1(o[0], o[1], o[2], s[0])),
    "type_2_m": (2, 3, {}, lambda o, s, e: type_2_m(o[0], o[1], s)),
    "coherent_fixed": (2, 1, {}, lambda o, s, e: coherent_fixed(o[0], o[1], s[0])),
    "char_gap_entangled": (
        2, 3, {"r": 1}, lambda o, s, e: char_gap_from_states("char_gap_entangled", o, s, **e)
    ),
    "char_gap_superadditive": (
        3,
        2,
        {"h_choice": "centered"},
        lambda o, s, e: char_gap_from_states("char_gap_superadditive", o, s, **e),
    ),
}


def _table_instance(rng, ur_id, mixed_slot):
    n_obs, n_states, _, _ = TABLE_CASES[ur_id]
    observables = rand_observables(rng, n_obs, 4)
    states = [rand_pure(rng, 4) for _ in range(n_states)]
    if mixed_slot is not None:
        states[mixed_slot] = sample("density", 4, int(rng.integers(1 << 31)))
    return observables, states


def _pure(ur_id):
    """Whether the table case of ``ur_id`` admits pure states only: a pure_only
    spec, or a characteristic gap that builds Gram matrices."""
    extras = TABLE_CASES[ur_id][2]
    return SPECS[ur_id].pure_only or extras.get("h_choice", "robertson") != "robertson"


def test_evaluate_ur_matches_each_named_evaluator():
    assert set(TABLE_CASES) == set(SPECS) == set(UR_SPECS) | set(CHAR_GAP_IDS)
    rng = np.random.default_rng(40)
    for ur_id, (_, _, extras, direct) in TABLE_CASES.items():
        observables, states = _table_instance(rng, ur_id, None if _pure(ur_id) else 0)
        via_table = evaluate_ur(ur_id, observables, states, **extras)
        assert via_table.as_dict() == direct(observables, states, extras).as_dict(), ur_id


@pytest.mark.parametrize("ur_id", [u for u, spec in UR_SPECS.items() if spec.pure_only])
def test_pure_only_ids_reject_a_density_matrix(ur_id):
    rng = np.random.default_rng(41)
    last = TABLE_CASES[ur_id][1] - 1
    observables, states = _table_instance(rng, ur_id, last)
    with pytest.raises(InputError, match=rf"^state {last} must be pure for this check$"):
        evaluate_ur(ur_id, observables, states)


def _outcome(call):
    """A call's report, or the message of the InputError it raised."""
    try:
        return call().as_dict()
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("ur_id", sorted(SPECS))
def test_direct_and_table_calls_meet_one_gate(ur_id):
    # a wrong count of observables or states, a density matrix in the last
    # slot, an unknown extra and a fractional order r: the public function
    # (where its signature can carry the input) and, for a UR_SPECS check,
    # `_check`, which every such public function calls, admit exactly what
    # evaluate_ur admits, and say why not in the same words
    spec = SPECS[ur_id]
    _, _, extras, public = TABLE_CASES[ur_id]
    rng = np.random.default_rng(43)
    observables, states = _table_instance(rng, ur_id, None)
    wrong = lambda want: want + 1 if want > 0 else -want  # 0 = at least 1, -1 = at least 2
    cases = {
        "observables": (rand_observables(rng, wrong(spec.n_observables), 4), states, extras),
        "states": (observables, [rand_pure(rng, 4)] * wrong(spec.n_states), extras),
        "mixed": (observables, states[:-1] + [sample("density", 4, 44)], extras),
        "extra": (observables, states, dict(extras, bogus=1)),
    }
    if "r" in spec.extras:
        cases["order"] = (observables, states, dict(extras, r=1.5))
    for case, (o, s, e) in cases.items():
        via_table = _outcome(lambda: evaluate_ur(ur_id, o, s, **e))
        if ur_id in UR_SPECS:
            assert _outcome(lambda: catalog._check(ur_id, o, s, **e)) == via_table, case
        reachable = {"observables": spec.n_observables <= 0, "states": spec.n_states <= 0,
                     "mixed": True, "extra": False, "order": True}[case]
        if reachable:
            assert _outcome(lambda: public(o, s, e)) == via_table, case
        rejected = case != "mixed" or _pure(ur_id)
        assert isinstance(via_table, str) == rejected, (case, via_table)
    takes = ", ".join(spec.extras) or "none"
    assert _outcome(lambda: evaluate_ur(ur_id, observables, states, bogus=1)) == (
        f"InputError: {ur_id} takes no extra 'bogus' (its extras: {takes})"
    )


@pytest.mark.parametrize("r", [1.5, "2", True, None, 0, 4])
@pytest.mark.parametrize("ur_id", ["characteristic", *CHAR_GAP_IDS])
def test_a_malformed_order_is_an_input_error(ur_id, r):
    # only an integer r in 1..n is an order: a float, a string, a bool or None
    # is refused at the gate like an order out of range, never later as an
    # IndexError or TypeError, and True is not order 1
    q, p, z = rand_observables(np.random.default_rng(45), 3, 4)
    psi = fock_state(1, 4)
    with pytest.raises(InputError, match=rf"^order r must be an integer in 1\.\.3, got {r!r}$"):
        evaluate_ur(ur_id, (q, p, z), (psi,), r=r)
    numpy_order = evaluate_ur(ur_id, (q, p, z), (psi,), r=np.int64(2))
    order = evaluate_ur(ur_id, (q, p, z), (psi,), r=2)
    assert (numpy_order.lhs, numpy_order.rhs) == (order.lhs, order.rhs)


@pytest.mark.parametrize("ur_id", ["characteristic", *CHAR_GAP_IDS])
def test_a_numpy_order_has_the_digest_of_its_python_value(ur_id):
    # one check on one input has one digest, whichever integer type r has
    q, p, z = rand_observables(np.random.default_rng(45), 3, 4)
    psi = fock_state(1, 4)
    for r in (1, 2, 3):
        numpy_order = evaluate_ur(ur_id, (q, p, z), (psi,), r=np.int64(r))
        assert numpy_order.inputs_digest == evaluate_ur(ur_id, (q, p, z), (psi,), r=r).inputs_digest
    if ur_id in CHAR_GAP_IDS:  # a direct call hashes its order the same way
        mats, flavor = [robertson_matrix((q, p, z), psi)], ur_id.removeprefix("char_gap_")
        direct = char_gap_check(mats, np.int64(2), flavor).inputs_digest
        assert direct == char_gap_check(mats, 2, flavor).inputs_digest


@pytest.mark.parametrize("ur_id", CHAR_GAP_IDS)
def test_each_gap_call_is_admitted_once(ur_id, monkeypatch):
    admitted = []
    admit = catalog._admit
    monkeypatch.setattr(catalog, "_admit", lambda *a: admitted.append(a[0].ur_id) or admit(*a))
    q, p = fock_operators(12)
    states = (fock_state(0, 12), coherent_state(0.3, 12))
    evaluate_ur(ur_id, (q, p), states, r=2)
    assert admitted == [ur_id]
    char_gap_from_states(ur_id, (q, p), states, r=2)
    assert admitted == [ur_id, ur_id]
    with pytest.raises(InputError, match=rf"^{ur_id} takes at least 1 states$"):
        evaluate_ur(ur_id, (q, p), ())


def test_realness_audit_passes_on_admissible_inputs():
    # rhs products of mean commutators are real for Hermitian observables
    rng = np.random.default_rng(25)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y, z = rand_observables(rng, 3, d)
        s1, s2 = rand_pure(rng, d), rand_pure(rng, d)
        extended_schrodinger(x, y, s1, s2)
        type_3_1(x, y, z, s1)
        type_2_m(x, y, [s1, s2])


# ---------------------------------------------------------------------------
# golden report bytes: the whole report, not just its digest, recorded before
# the checks were split into a record and a sides formula


def _scan_bytes_digest(ur_id: str) -> str:
    rng = stream_rng(77, f"report-bytes:{ur_id}")
    h = hashlib.sha256()
    for _ in range(200):
        h.update(json.dumps(scan_report(ur_id, rng, range(2, 13)).as_dict()).encode())
    return h.hexdigest()[:16]


# SHA-256 of the as_dict() JSON of 200 seeded scan reports per default check
GOLDEN_SCAN_BYTES = {
    "heisenberg": "54faa7c41454be44",
    "schrodinger": "52de7e7f8e9f2671",
    "robertson": "0bf4a47bacb17f26",
    "characteristic": "1f3abe30bcd266cd",
    "type_1_2a": "4a50aff1ddbc8cac",
    "type_1_2b": "301b47a5be2fee88",
    "type_2_1": "590ee6d8c5a45744",
    "type_2_2a": "1e6d0720316bded5",
    "type_2_2b": "f6bd44b9bdbfe6db",
    "extended_schrodinger": "ede7c3681b8a765e",
    "entangled_heisenberg": "677ea4fd21b02801",
    "type_3_1": "9c4c4150cef4cad8",
    "type_2_m": "c9bc621ae27d220a",
    "char_gap_entangled": "a9ba5642c65f317f",
    "char_gap_superadditive": "afbc80a1e8c6dff7",
}


@pytest.mark.parametrize("ur_id", DEFAULT_SCAN_URS)
def test_golden_scan_report_bytes(ur_id):
    assert _scan_bytes_digest(ur_id) == GOLDEN_SCAN_BYTES[ur_id]


# request shapes like the check-large benchmark's, at dim 128: builder
# observables or raw Hermitian matrices, builder states or a raw density matrix
_REQUEST_SHAPES = (
    (("fock_q", "fock_p"), ("coherent", "squeezed")),
    (("fock_q", "fock_p", "quad_mix"), ("squeezed",)),
    (("quad_plus", "quad_mix"), ("squeezed",)),
    (("fock_q",), ("fock_n", "coherent")),
    (("fock_q", "fock_p", "quad_plus"), ("fock_n",)),
    (("fock_p",), ("squeezed", "coherent")),
    (("raw", "raw"), ("coherent",)),
    (("fock_q", "fock_p"), ("raw_density",)),
)


def _complex_rows(m):
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


def _check_request(rng, k, dim=128):
    obs_kinds, state_kinds = _REQUEST_SHAPES[k % len(_REQUEST_SHAPES)]
    observables = []
    for i, kind in enumerate(obs_kinds):
        if kind == "raw":
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (g + g.conj().T) / (2 * math.sqrt(dim))
            observables.append({"builder": "raw_observable", "name": f"R{i}",
                                "matrix": _complex_rows(m)})
        else:
            observables.append({"builder": kind})
    states = []
    for i, kind in enumerate(state_kinds):
        if kind == "raw_density":
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = (m + m.conj().T) / 2
            states.append({"builder": kind, "matrix": _complex_rows(m / np.trace(m).real)})
        elif kind == "fock_n":
            states.append({"builder": kind, "k": i + int(rng.integers(3))})
        else:
            amag = (1.2 if kind == "coherent" else 0.8) * math.sqrt(rng.uniform())
            aph = rng.uniform(0, 2 * math.pi)
            spec = {"builder": kind, "alpha": [amag * math.cos(aph), amag * math.sin(aph)]}
            if kind == "squeezed":
                spec.update(r=rng.uniform(-0.8, 0.8), phi=rng.uniform(0, 2 * math.pi))
            states.append(spec)
    n_obs, n_states = len(observables), len(states)
    pure = "raw_density" not in state_kinds
    urs = []
    for ur_id, spec in UR_SPECS.items():
        fits = lambda want, got: want == got or (want < 0 and got >= 2)
        if not (fits(spec.n_observables, n_obs) and fits(spec.n_states, n_states)):
            continue
        if spec.pure_only and not pure:
            continue
        if ur_id == "coherent_fixed" and obs_kinds != ("fock_q", "fock_p"):
            continue
        urs.append({"id": ur_id, "r": int(rng.integers(1, n_obs + 1))}
                   if ur_id == "characteristic" else ur_id)
    for ur_id in CHAR_GAP_IDS:
        h_choice = ("robertson", "centered", "raw")[int(rng.integers(3))] if pure else "robertson"
        urs.append({"id": ur_id, "r": int(rng.integers(1, n_obs + 1)), "h_choice": h_choice})
    return {"urs": urs, "hilbert_dim": dim, "observables": observables, "states": states}


# (exit code, SHA-256 of the report file) of 30 such requests
GOLDEN_CHECK_BYTES = [
    (0, "61dad3b16ff9ef81"),
    (0, "2a4c042d8fae549b"),
    (0, "d47dcc692a873270"),
    (0, "669206202e9ca01c"),
    (0, "4ce1d4ab8c433f93"),
    (0, "428e17b3a1576da6"),
    (0, "fbc25bc7ff09fd13"),
    (0, "157789a573c0072c"),
    (0, "5727bb089438d45f"),
    (0, "998f45cd2b4e0c1c"),
    (0, "80900f55cff8b113"),
    (0, "3e391416d124fe36"),
    (0, "0879246314f66fc2"),
    (0, "e6febf6acca809d2"),
    (0, "7ad93fe9fc823e99"),
    (0, "3a84f6382b9d3e14"),
    (0, "d644c66bf8ef88be"),
    (0, "15e85c0a580822b5"),
    (0, "9d0345197daa11b3"),
    (0, "b61961f0effb9803"),
    (0, "aee02b6ac1e87e04"),
    (0, "cf7b8a899277cda5"),
    (0, "4c9e3a4069b83f03"),
    (0, "3110d7e3d03e1e99"),
    (0, "e7329909a8c4c150"),
    (0, "302aac16428bb879"),
    (0, "8be77c1e2b8b6c6c"),
    (0, "346329a9537f0a52"),
    (0, "676152846bab8f39"),
    (0, "6891c6f4d4176a5e"),
]


def test_golden_check_report_bytes(tmp_path):
    from urlab.cli import main

    rng = np.random.default_rng(2031)
    config, out = tmp_path / "request.json", tmp_path / "report.json"
    digests = []
    for k in range(30):
        config.write_text(json.dumps(_check_request(rng, k)))
        code = main(["check", "--config", str(config), "--out", str(out)])
        digests.append((code, hashlib.sha256(out.read_bytes()).hexdigest()[:16]))
    assert digests == GOLDEN_CHECK_BYTES
