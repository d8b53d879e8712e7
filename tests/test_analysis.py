"""Saturation certificates, slack minimization, precision comparison,
saturation-transfer audit, divergences."""

import math

import numpy as np
import pytest

from urlab import analysis
from urlab.analysis import (
    ALPHA_BOX,
    compare_precision,
    divergence,
    gaussian_pair_ensemble,
    minimize_slack,
    nelder_mead,
    saturation_transfer_audit,
    saturation_1_2a,
    triangle_scan,
)
from urlab.catalog import UR_SPECS, type_1_2
from urlab.ensembles import coherent_pair_grid, random_instances
from urlab.errors import InputError, TruncationError
from urlab.model import (
    Observable,
    PureState,
    _displacement_edge,
    _squeeze_edge,
    coherent_state,
    fock_operators,
    fock_state,
    quad_mix,
    sample,
    squeezed_state,
)


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def rand_observable(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Observable("H", (g + g.conj().T) / 2)


# ---------------------------------------------------------------------------
# saturation certificate


def test_saturation_identical_states():
    q, _ = fock_operators(32)
    st = fock_state(1, 32)
    cert = saturation_1_2a(q, st, st)
    assert cert.is_saturated
    assert not cert.degenerate
    assert cert.lam == pytest.approx(1.0 + 0j, abs=1e-12)
    assert cert.residual < 1e-8


def test_saturation_coherent_pair_not_saturated():
    q, _ = fock_operators(64)
    cert = saturation_1_2a(q, coherent_state(0, 64), coherent_state(1, 64))
    assert not cert.is_saturated
    assert cert.residual > 1e-3


def test_saturation_eigenvector_slot_degenerate():
    x = Observable("X", np.diag([1.0, 2.0, 3.0]).astype(complex))
    eig = PureState([0.0, 1.0, 0.0])
    other = PureState(np.ones(3) / math.sqrt(3))
    cert = saturation_1_2a(x, eig, other)
    assert cert.degenerate
    assert cert.is_saturated
    assert cert.lam is None


def test_certificate_agrees_with_report_flag():
    rng = np.random.default_rng(0)
    q, _ = fock_operators(16)
    agree = 0
    total = 0
    cases = []
    for _ in range(10_000):
        d = int(rng.integers(2, 8))
        x = rand_observable(rng, d)
        s1 = rand_pure(rng, d)
        s2 = s1 if rng.random() < 0.3 else rand_pure(rng, d)
        cases.append((x, s1, s2))
    # structured: proportional centered vectors by construction
    cases.append((q, fock_state(1, 16), fock_state(1, 16)))
    for x, s1, s2 in cases:
        cert = saturation_1_2a(x, s1, s2)
        rep = type_1_2(x, s1, s2, "a")
        total += 1
        agree += cert.is_saturated == rep.saturated
    assert agree == total


# ---------------------------------------------------------------------------
# nelder-mead and minimize_slack


def with_gradient(f, grad):
    """An objective for the descent: f's value, and a callable for its gradient."""
    return lambda x: (f(x), lambda: grad(x))


def test_nelder_mead_quadratic():
    f = lambda x: float((x[0] - 1) ** 2 + 4 * (x[1] + 2) ** 2 + 0.5)
    grad = lambda x: np.array([2 * (x[0] - 1), 8 * (x[1] + 2)])
    x, fx, iters, evals, converged = nelder_mead(with_gradient(f, grad), np.zeros(2), budget=800)
    assert fx == pytest.approx(0.5, abs=1e-8)
    assert converged
    assert np.allclose(x, [1, -2], atol=1e-3)


def test_nelder_mead_restarts_a_stagnant_simplex():
    # a point where the simplex used to stall 1.2e-6 above the minimum of 0
    # after 20 iterations, flagged converged; restarting there repeated it
    x_stuck = [
        0.15860574619453982, 0.28342311754241506, -0.07271333380588862, 3.131084110628635,
        -0.370297224186822, -0.8797291699451464, 0.07239043853090565, 0.017472779329107034,
    ]
    res = minimize_slack(
        "entangled_heisenberg", fock_operators(64), 64, init=x_stuck, budget=800, restarts=1
    )
    assert res.converged
    assert abs(res.slack) < 1e-10


def test_descent_crosses_the_rounding_floor():
    # a start whose exact gradient (1.44e-7 in r) is above the certificate
    # while the slack values around it differ by less than their rounding:
    # the plain Armijo test rejected every step from here and the descent
    # stopped unconverged, in the benchmark's restarts too
    stuck = [0.30330361588065075, -0.933861188506133, -3.6004428218938244e-08, 5.273436354295172]
    res = minimize_slack("coherent_fixed", fock_operators(64), 64, init=stuck, budget=800,
                         restarts=1)
    assert res.converged and abs(res.slack) <= 1e-6


def test_descent_lands_on_the_box_boundary_with_a_certificate():
    # the unconstrained minimum (3, 0.5) lies outside the box [-1, 1]^2; the
    # constrained one is the corner (1, 1), where the projected gradient vanishes
    f = lambda x: float((x[0] - 3) ** 2 + 2 * (x[1] - 0.5) ** 2 + (x[0] - 3) * (x[1] - 0.5))
    grad = lambda x: np.array([2 * (x[0] - 3) + (x[1] - 0.5), 4 * (x[1] - 0.5) + (x[0] - 3)])
    box = lambda x: np.clip(x, -1.0, 1.0)
    x, fx, iters, evals, converged = nelder_mead(
        with_gradient(f, grad), np.zeros(2), budget=400, project=box
    )
    assert converged
    assert np.array_equal(x, [1.0, 1.0])
    assert fx == pytest.approx(3.5, abs=1e-12)
    # a disc, as minimize_slack's alpha: the minimum is the point nearest (2, 2)
    disc = lambda x: x / max(1.0, float(np.hypot(*x)))
    g = with_gradient(lambda x: float((x[0] - 2) ** 2 + (x[1] - 2) ** 2), lambda x: 2 * (x - 2))
    x, _, _, _, converged = nelder_mead(g, np.array([0.3, -0.6]), budget=400, project=disc)
    assert converged
    assert np.allclose(x, [math.sqrt(0.5)] * 2, atol=1e-9)


def test_descent_budget_is_a_hard_cap():
    values, gradients = [], []

    def f(x):
        values.append(x)
        return float((x[0] - 1) ** 2 + 4 * (x[1] + 2) ** 2)

    def grad(x):
        gradients.append(x)
        return np.array([2 * (x[0] - 1), 8 * (x[1] + 2)])

    x0 = np.array([0.5, -0.5])
    n = x0.size
    for budget in range(1, 3 * n + 1):
        values.clear()
        gradients.clear()
        x, fx, iters, evals, converged = nelder_mead(with_gradient(f, grad), x0, budget=budget)
        # a gradient is charged the 2n central-difference probes it stands in for
        assert evals == len(values) + 2 * n * len(gradients) <= budget
        if budget < 1 + 2 * n:  # no room for one gradient: the start comes back
            assert (iters, evals, converged, fx) == (0, 1, False, f(x0))
            assert np.array_equal(x, x0)
        else:
            assert not converged


@pytest.mark.parametrize("start", [[-3.0, 1.0], [1.0, 1.0]])
def test_descent_treats_a_rejected_point_as_a_barrier(start):
    # points beyond x0 = 1 are rejected (inf): from (-3, 1) the first steps
    # overshoot into them and the line search backtracks; from (1, 1), on the
    # barrier's edge, the gradient leads away from it
    rejected = []

    def f(x):
        rejected.append(x[0] > 1)
        if x[0] > 1:
            return math.inf, None
        grad = lambda: np.array([200 * (x[0] - 0.9), 2 * x[1]])
        return float(100 * (x[0] - 0.9) ** 2 + x[1] ** 2), grad

    x, fx, iters, evals, converged = nelder_mead(f, np.array(start), budget=400)
    assert any(rejected) == (start[0] < 1)
    assert converged
    assert np.allclose(x, [0.9, 0.0], atol=1e-8)
    assert fx < 1e-15


def test_descent_returns_a_rejected_start_as_it_is():
    x0 = np.array([0.3, -0.2])
    x, fx, iters, evals, converged = nelder_mead(lambda x: (math.inf, None), x0, budget=400)
    assert (fx, iters, evals, converged) == (math.inf, 0, 1, False)
    assert np.array_equal(x, x0)


def test_descent_gives_no_false_certificate():
    rosenbrock = with_gradient(
        lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2),
        lambda x: np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                            200 * (x[1] - x[0] ** 2)]),
    )
    x, fx, iters, evals, converged = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), budget=60)
    assert evals <= 60
    assert not converged
    assert fx > 1e-3
    x, fx, iters, evals, converged = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), budget=800)
    assert converged
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)


def test_minimize_counts_the_calls_of_every_start(monkeypatch):
    from urlab import analysis

    descend = analysis.nelder_mead
    seen = []

    def counted(f, x0, **kwargs):
        out = descend(f, x0, **kwargs)
        seen.append(out[3])
        return out

    monkeypatch.setattr(analysis, "nelder_mead", counted)
    q, p = fock_operators(64)
    res = minimize_slack("schrodinger", (q, p), 64, budget=60, restarts=3, seed=1)
    assert len(seen) == 3
    assert res.evaluations == sum(seen) > max(seen)
    assert res.truncation_rejects == 0
    # at dim 16 a start at the corner of the box, |alpha| at the disc's radius
    # and r at the squeeze edge, is rejected by the truncation audit; the
    # vacuum start wins
    q, p = fock_operators(16)
    init = [ALPHA_BOX, 0, -_squeeze_edge(16, 0.0), 0]
    res = minimize_slack("heisenberg", (q, p), 16, init=init, budget=100, restarts=2)
    assert res.truncation_rejects >= 1
    assert res.converged and abs(res.slack) < 1e-12


def test_gradient_builds_and_reports_nothing(monkeypatch):
    from urlab import analysis

    build, evaluate, descend = analysis.squeezed_state, analysis.evaluate_ur, analysis.nelder_mead
    log = []

    def counted_build(alpha, r, phi, dim):
        log.append("build")
        return build(alpha, r, phi, dim)

    def counted_evaluate(*args, **kwargs):
        log.append("evaluate")
        return evaluate(*args, **kwargs)

    def recorded(f, x0, **kwargs):
        def objective(x):
            log.append("value")
            value, grad = f(x)
            return value, lambda: (log.append("gradient"), grad())[1]

        return descend(objective, x0, **kwargs)

    monkeypatch.setattr(analysis, "squeezed_state", counted_build)
    monkeypatch.setattr(analysis, "evaluate_ur", counted_evaluate)
    monkeypatch.setattr(analysis, "nelder_mead", recorded)
    init = [0.4, -0.3, 0.2, 1.0, -0.5, 0.1, -0.15, 2.0]
    res = minimize_slack("entangled_heisenberg", fock_operators(64), 64, init=init,
                         budget=800, restarts=1)
    assert res.converged and res.truncation_rejects == 0
    calls = log.count("value")
    assert res.gradients == log.count("gradient") >= 1
    assert res.evaluations == calls + 16 * res.gradients
    # each value call builds both free slots once and reports once; a gradient
    # reuses them and does neither; the final report builds both slots again
    text = " ".join(log)
    assert text.count("value build build evaluate") == calls
    rest = text.replace("value build build evaluate", "").split()
    assert rest == ["gradient"] * res.gradients + ["build", "build", "evaluate"]


def test_a_rejected_slot_is_counted_on_every_call(monkeypatch):
    from urlab import analysis

    build = analysis.squeezed_state
    builds = []

    def counted_build(alpha, r, phi, dim):
        builds.append(r)
        return build(alpha, r, phi, dim)

    # slot 0 is the vacuum; slot 1 is a start the dim-16 audit rejects
    rejected = [ALPHA_BOX, 0.0, -_squeeze_edge(16, 0.0), 0.0]
    x0 = np.array([0.0, 0.0, 0.0, 0.0] + rejected)
    moved = x0 + np.eye(8)[1] * 1e-3

    def descent(f, x, **kwargs):
        values = [f(x0), f(x0), f(moved), f(x0)]
        assert values == [(math.inf, None)] * 4
        return np.zeros(8), 0.0, 0, 4, False

    monkeypatch.setattr(analysis, "squeezed_state", counted_build)
    monkeypatch.setattr(analysis, "nelder_mead", descent)
    q, p = fock_operators(16)
    res = minimize_slack("entangled_heisenberg", (q, p), 16, init=x0, budget=10, restarts=1)
    assert (res.evaluations, res.gradients, res.truncation_rejects) == (4, 0, 4)
    # both slots are built on every call, slot 1 rejected by its audit; the
    # final report builds both slots once more
    assert builds.count(0.0) == 4 + 2 and builds.count(rejected[2]) == 4


def _objective_of(monkeypatch, ur_id, observables, dim, **kwargs):
    """The objective minimize_slack hands its descent."""
    from urlab import analysis

    seen = []
    monkeypatch.setattr(analysis, "nelder_mead",
                        lambda f, x0, **kw: seen.append(f) or (x0, math.inf, 0, 0, False))
    minimize_slack(ur_id, observables, dim, budget=1, restarts=1, **kwargs)
    return seen[0]


@pytest.mark.parametrize("ur_id", sorted(UR_SPECS))
def test_slack_gradient_matches_central_differences(monkeypatch, ur_id):
    # the exact gradient against central differences of the objective itself,
    # on every check the minimiser takes; extended_schrodinger keeps a fixed
    # coherent slot and type_2_m a fixed density-matrix slot
    dim = 32
    q, p = fock_operators(dim)
    # Gaussian states saturate the Schrödinger check of (q, p): its slack is flat
    pair = (q, quad_mix(dim)) if ur_id == "schrodinger" else (q, p)
    observables = {1: (q,), 2: pair, 3: (q, p, quad_mix(dim))}[
        max(UR_SPECS[ur_id].n_observables, 0) or 3]
    kwargs = {}
    if ur_id == "extended_schrodinger":
        kwargs = {"fixed_states": {0: coherent_state(0.3 - 0.4j, dim)}, "free_slots": [1]}
    elif ur_id == "type_2_m":
        kwargs = {"fixed_states": {1: sample("density", dim, 3)}, "free_slots": [0, 2]}
    elif ur_id == "characteristic":
        kwargs = {"extras": {"r": 2}}
    f = _objective_of(monkeypatch, ur_id, observables, dim, **kwargs)
    rng = np.random.default_rng(len(ur_id))
    for _ in range(3):
        n_free = len(kwargs.get("free_slots", range(UR_SPECS[ur_id].n_states)))
        x = rng.uniform([-0.5, -0.5, -0.3, 0], [0.5, 0.5, 0.3, 2 * math.pi], (n_free, 4)).ravel()
        value, grad = f(x)
        h = 1e-6
        want = np.array([(f(x + e)[0] - f(x - e)[0]) / (2 * h) for e in h * np.eye(x.size)])
        got = grad()
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max()), (got, want)


@pytest.mark.parametrize("init", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4] * 2, [0.1, math.nan, 0.3, 0.4],
                                  [[0.1, 0.2, 0.3, 0.4]], ["a", 0.2, 0.3, 0.4], [1j, 0, 0, 0]])
def test_minimize_wants_four_finite_reals_per_free_slot(init):
    q, p = fock_operators(16)
    with pytest.raises(InputError):
        minimize_slack("heisenberg", (q, p), 16, init=init, budget=5, restarts=1)


@pytest.mark.parametrize("dim", [16, 32, 48, 64])
def test_minimize_box_follows_the_audit(dim):
    # |r| <= min(1, the audit's squeeze edge at alpha = 0): unchanged at 64
    q, p = fock_operators(dim)
    edge = min(1.0, _squeeze_edge(dim, 0.0))
    assert (edge == 1.0) == (dim == 64)
    res = minimize_slack("heisenberg", (q, p), dim, init=[0, 0, 5.0, 0], budget=1, restarts=1)
    assert res.slots[0].r == edge


@pytest.mark.parametrize("dim", [8, 16, 20, 24, 32, 48])
def test_no_seeded_start_is_rejected(dim):
    # a seeded start draws Re and Im alpha within 0.6 of the disc's radius, so
    # |alpha| reaches hypot(0.6, 0.6) of it, and |r| <= 0.7 of the box's edge;
    # the audit admits all of that at every phase. The radius is ALPHA_BOX
    # from dim 40 (at 32 the square's corner already fails) and below it the
    # largest that the audit admits, to 2^-20 of the displacement
    r_seed, reach = 0.7 * min(1.0, _squeeze_edge(dim, 0.0)), math.hypot(0.6, 0.6)
    a_max = min(ALPHA_BOX, _displacement_edge(dim, r_seed, math.sqrt(dim) + 1) / reach)
    assert (a_max == ALPHA_BOX) == (dim >= 40)
    assert _squeeze_edge(dim, reach * a_max) >= r_seed
    q, p = fock_operators(dim)
    # the descent projects a start onto that disc
    init = [2 * ALPHA_BOX, 0.0, 0.0, 0.0]
    res = minimize_slack("heisenberg", (q, p), dim, init=init, budget=1, restarts=1)
    assert res.slots[0].alpha == pytest.approx(a_max, rel=1e-15)
    q, p = fock_operators(dim)
    for seed in range(4):
        res = minimize_slack("entangled_heisenberg", (q, p), dim, budget=1, restarts=8, seed=seed)
        assert (res.evaluations, res.truncation_rejects) == (8, 0)


@pytest.mark.parametrize("bad", [{"budget": 0}, {"budget": -5}, {"restarts": 0}, {"restarts": -3}])
def test_minimize_rejects_a_budget_or_restarts_below_one(bad):
    q, p = fock_operators(16)
    with pytest.raises(InputError):
        minimize_slack("heisenberg", (q, p), 16, **bad)


def test_minimize_schrodinger_gaussian_family():
    q, p = fock_operators(64)
    res = minimize_slack("schrodinger", (q, p), dim=64, budget=200, restarts=2, seed=1)
    assert res.slack < 1e-6
    assert res.slack >= -1e-8


def test_minimize_coherent_fixed_lands_on_zero_squeezing():
    q, p = fock_operators(64)
    res = minimize_slack("coherent_fixed", (p, q), dim=64, budget=400, restarts=4, seed=2)
    assert res.slack < 1e-6  # achieved sum of variances is 1 + slack
    assert abs(res.slots[0].r) < 1e-3
    assert res.converged


def test_minimize_extended_schrodinger_saturates_both_slots():
    from urlab.catalog import schrodinger

    q, p = fock_operators(64)
    res = minimize_slack(
        "extended_schrodinger", (q, p), dim=64, budget=300, restarts=3, seed=3
    )
    assert res.slack < 1e-6
    for par in res.slots:
        st = squeezed_state(par.alpha, par.r, par.phi, 64)
        assert schrodinger(q, p, st).slack < 1e-6


def test_minimize_never_breaches_inequality():
    q, p = fock_operators(64)
    for ur in ("heisenberg", "entangled_heisenberg"):
        res = minimize_slack(ur, (q, p), dim=64, budget=150, restarts=2, seed=4)
        assert res.slack >= -1e-8


def test_minimize_respects_fixed_slots():
    q, p = fock_operators(64)
    vac = fock_state(0, 64)
    res = minimize_slack(
        "extended_schrodinger",
        (q, p),
        dim=64,
        fixed_states={0: vac},
        free_slots=[1],
        budget=200,
        restarts=2,
        seed=5,
    )
    assert len(res.slots) == 1
    assert res.slack < 1e-6


def test_minimize_draws_each_start_when_its_descent_begins(monkeypatch):
    # a count of restarts far beyond memory draws only the starts that
    # descend, bit for bit the rows of one block draw of them all
    seen = []

    class Stop(Exception):
        pass

    def descent(objective, x0, budget, project):
        seen.append(x0)
        if len(seen) == 3:
            raise Stop
        return x0, math.inf, 0, 0, False

    monkeypatch.setattr(analysis, "nelder_mead", descent)
    with pytest.raises(Stop):
        minimize_slack("entangled_heisenberg", fock_operators(16), 16, restarts=2**40, seed=3)
    r_max = min(1.0, _squeeze_edge(16, 0.0))
    reach = math.hypot(0.6, 0.6)
    a_max = min(ALPHA_BOX, _displacement_edge(16, 0.7 * r_max, reach * ALPHA_BOX) / reach)
    block = np.random.default_rng(3).uniform(
        [-0.6, -0.6, -0.7, 0], [0.6, 0.6, 0.7, 2 * np.pi], size=(2, 2, 4)
    )
    want = [np.zeros(8), *(block * [a_max, a_max, r_max, 1.0]).reshape(-1, 8)]
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in want]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"free_slots": 5}, "free_slots must be a sequence of slot numbers, got 5"),
        ({"free_slots": {1}}, "free_slots must be a sequence of slot numbers, got {1}"),
        ({"fixed_states": [1]}, "fixed_states must be a mapping, got [1]"),
        ({"extras": [("r", 1)]}, "extras must be a mapping, got [('r', 1)]"),
    ],
)
def test_minimize_reads_its_containers(kwargs, message):
    with pytest.raises(InputError) as info:
        minimize_slack("extended_schrodinger", fock_operators(16), 16, budget=5, **kwargs)
    assert str(info.value) == message


# (slack, iterations, evaluations, gradients, converged) of one descent per
# benchmark case at dim 64 from a seeded start, recorded from the projected
# quasi-Newton descent on the exact gradient; a change of any of them means the
# descent took a different trajectory. Iterations and evaluations are those of
# the central-difference gradient it replaced, whose slacks differed in the
# last bits only: (-1.0e-15, 3, 38), (-1.9e-16, 3, 36) and (0.0, 8, 153).
GOLDEN_DESCENTS = {
    "coherent_fixed": (0.0, 3, 38, 4, True),
    "extended_schrodinger": (-1.1102230246251565e-16, 3, 36, 4, True),
    "entangled_heisenberg": (-1.1102230246251565e-16, 8, 153, 9, True),
}


def _seeded_alpha(rng):
    amag = math.sqrt(rng.uniform())
    aph = rng.uniform(0, 2 * math.pi)
    return complex(amag * math.cos(aph), amag * math.sin(aph))


@pytest.mark.parametrize("case", sorted(GOLDEN_DESCENTS))
def test_golden_minimizer_trajectory(case):
    # starts drawn like the gaussian-minimize benchmark's: a displacement in the
    # unit disc and a small squeezing 0.05 <= |r| <= 0.3 per free slot
    rng = np.random.default_rng([401, 102])
    kwargs = {}
    if case == "extended_schrodinger":
        kwargs = {"fixed_states": {0: coherent_state(_seeded_alpha(rng), 64)}, "free_slots": [1]}
    init = []
    for _ in range(2 if case == "entangled_heisenberg" else 1):
        alpha = _seeded_alpha(rng)
        r = rng.uniform(0.05, 0.3) * rng.choice((-1, 1))
        init += [alpha.real, alpha.imag, r, rng.uniform(0, 2 * math.pi)]
    res = minimize_slack(
        case, fock_operators(64), 64, init=init, budget=800, restarts=1, **kwargs
    )
    got = (res.slack, res.iterations, res.evaluations, res.gradients, res.converged)
    assert got == GOLDEN_DESCENTS[case]


@pytest.mark.parametrize("case", ["coherent_fixed", "extended_schrodinger", "entangled_heisenberg"])
def test_one_descent_passes_the_benchmark_gate(case):
    # starts drawn like the gaussian-minimize benchmark's, as in the golden test
    # above; each must reach the gate (|slack| <= 1e-6, converged) in one descent
    rng = np.random.default_rng([2027, 102])
    observables = fock_operators(64)
    for _ in range(200):
        kwargs = {}
        if case == "extended_schrodinger":
            kwargs = {"fixed_states": {0: coherent_state(_seeded_alpha(rng), 64)}, "free_slots": [1]}
        init = []
        for _ in range(2 if case == "entangled_heisenberg" else 1):
            alpha = _seeded_alpha(rng)
            r = rng.uniform(0.05, 0.3) * rng.choice((-1, 1))
            init += [alpha.real, alpha.imag, r, rng.uniform(0, 2 * math.pi)]
        res = minimize_slack(
            case, observables, 64, init=init, budget=800, restarts=1, **kwargs
        )
        assert abs(res.slack) <= 1e-6 and res.converged, res
        assert res.evaluations <= 800


# ---------------------------------------------------------------------------
# precision comparison


def test_compare_type_1_2_grid_has_both_directions():
    stats = compare_precision("type_1_2a", "type_1_2b", coherent_pair_grid(64, 2.0, 5))
    assert stats.example_a_tighter is not None
    assert stats.example_b_tighter is not None
    assert stats.min_slack_a >= -1e-10
    assert stats.min_slack_b >= -1e-10
    assert 0 < stats.fraction_a_tighter_relative < 1


def test_compare_identical_urs_is_half_with_no_examples():
    stats = compare_precision(
        "schrodinger", "schrodinger", random_instances("schrodinger", 50, [2, 4, 6], 7)
    )
    assert stats.fraction_a_tighter == pytest.approx(0.5)
    assert stats.fraction_a_tighter_relative == pytest.approx(0.5)
    assert stats.example_a_tighter is None
    assert stats.example_b_tighter is None
    assert stats.ties == 50


def test_compare_schrodinger_vs_type_2_1():
    stats = compare_precision(
        "schrodinger", "type_2_1", random_instances("schrodinger", 200, [2, 3, 4, 6], 11)
    )
    assert stats.size == 200
    assert stats.min_slack_a >= -1e-8
    assert stats.min_slack_b >= -1e-8
    # the uncentered check is never tighter: its slack exceeds the Schrödinger
    # slack by a psd quadratic form in the means
    assert stats.fraction_a_tighter >= 0.99


def test_compare_incompatible_signatures():
    with pytest.raises(InputError, match="incompatible"):
        compare_precision(
            "schrodinger", "type_1_2a", random_instances("schrodinger", 5, [4], 13)
        )


# ---------------------------------------------------------------------------
# saturation-transfer audit


@pytest.mark.parametrize("dim", [14, 16, 24, 32, 48])
def test_gaussian_pair_ensemble_fits_the_audit(dim):
    q, p, pairs = gaussian_pair_ensemble(50, dim=dim, seed=0, pool_size=50)
    assert len(pairs) == 50 and pairs[0][0].dim == q.dim == dim


def test_gaussian_pair_ensemble_names_the_smallest_dimension():
    with pytest.raises(InputError, match="dimension >= 14"):
        gaussian_pair_ensemble(10, dim=13)


def test_saturation_transfer_gaussian_pairs_forward_holds():
    q, p, pairs = gaussian_pair_ensemble(400, dim=64, seed=17, pool_size=40)
    audit = saturation_transfer_audit(q, p, pairs, epsilon=1e-8)
    assert audit.size == 400
    assert audit.violations == ()
    assert audit.n_triggered > 0  # repeated pool states produce saturated pairs
    assert audit.non_inverse is not None
    assert audit.non_inverse.extended_slack > 1e-5
    assert audit.non_inverse.schrodinger_slack_1 <= audit.eps_prime
    assert audit.non_inverse.schrodinger_slack_2 <= audit.eps_prime


def test_saturation_transfer_distinct_squeezings_exhibit_non_inverse():
    q, p = fock_operators(64)
    s1 = squeezed_state(0, 0.2, 0, 64)
    s2 = squeezed_state(0, 0.8, 0, 64)
    audit = saturation_transfer_audit(q, p, [(s1, s1), (s1, s2)], epsilon=1e-8)
    assert audit.violations == ()
    assert audit.non_inverse is not None
    # analytic gap: cosh(2 dr)/4 - 1/4
    want = 0.25 * (math.cosh(2 * 0.6) - 1.0)
    assert audit.non_inverse.extended_slack == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# divergence


def test_divergence_vanishes_on_diagonal():
    q, _ = fock_operators(32)
    st = fock_state(2, 32)
    assert divergence(q, st, st) == pytest.approx(0.0, abs=1e-7)


def test_divergence_symmetric():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        x = rand_observable(rng, d)
        s1, s2 = rand_pure(rng, d), rand_pure(rng, d)
        for variant in ("a", "b"):
            d12 = divergence(x, s1, s2, variant)
            d21 = divergence(x, s2, s1, variant)
            assert d12 == pytest.approx(d21, abs=1e-12)
            assert d12 >= 0


def test_divergence_coherent_pair_positive():
    q, _ = fock_operators(64)
    d = divergence(q, coherent_state(0, 64), coherent_state(1, 64))
    assert d > 0.01


def test_divergence_gaussian_grid_identity_of_indiscernibles():
    # zero only on the diagonal of a (alpha, r) grid with spacing 0.1
    q, p = fock_operators(64)
    pars = [(a, r) for a in np.arange(-0.2, 0.21, 0.1) for r in np.arange(-0.2, 0.21, 0.1)]
    states = [squeezed_state(a, r, 0.0, 64) for a, r in pars]
    for x in (q, p):
        for i in range(len(states)):
            for j in range(i, len(states)):
                d = divergence(x, states[i], states[j])
                if i == j:
                    assert d < 1e-6
                else:
                    assert d > 1e-4


def test_triangle_scan_reports_rate_without_failing():
    q, _ = fock_operators(64)
    states = [coherent_state(a, 64) for a in (-0.5, 0.0, 0.4, 1.0)]
    rate = triangle_scan(q, states)
    assert 0.0 <= rate <= 1.0
