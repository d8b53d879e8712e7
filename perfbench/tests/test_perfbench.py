"""Tests of the benchmark's own parts: the check-large request generator, the
gaussian-minimize gate, span coverage of the traced run, and the plain-numpy
reference.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from perfbench import reference, trace, workloads  # noqa: E402
from perfbench.run import Loop  # noqa: E402
from urlab import analysis, catalog, cli, ensembles, model, moments  # noqa: E402


@pytest.fixture
def tracer():
    t = trace.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_request_exits_zero_at_smallest_dim(tmp_path):
    stream = workloads.RequestStream(7, dim=128)
    config, out = tmp_path / "request.json", tmp_path / "report.json"
    shapes = set()
    for _, req in zip(range(3 * len(workloads.TEMPLATES)), stream):
        config.write_text(req.config_text())
        code = cli.main(["check", "--config", str(config), "--out", str(out)])
        assert code == 0, req.urs
        summary = json.loads(out.read_text())["summary"]
        assert summary["all_hold"] and summary["n_results"] == len(req.urs)
        shapes.add((req.kind, len(req.observables), len(req.states)))
    assert len(shapes) == len({(t.kind, len(t.observables), len(t.states))
                               for t in workloads.TEMPLATES})


def test_eligible_checks_follow_catalog_signatures():
    for n_obs, n_states in ((1, 2), (2, 1), (2, 2), (3, 1)):
        for pure in (True, False):
            for ur_id in workloads.eligible_checks(n_obs, n_states, pure, canonical=False):
                if ur_id in ensembles.CHAR_GAP_IDS:
                    continue
                spec = catalog.UR_SPECS[ur_id]
                assert spec.n_observables in (n_obs, -1) and spec.n_states in (n_states, -1)
                assert pure or not spec.pure_only
                assert ur_id != "coherent_fixed"


def test_every_binding_is_wrapped_and_restored():
    t = trace.Tracer()
    t.install()
    try:
        sites = {
            "moments.moment_set": (moments, catalog, analysis),
            "catalog.evaluate_ur": (catalog, ensembles, analysis, cli),
            "model.squeezed_state": (model, analysis, cli),
        }
        for qualname, modules in sites.items():
            original = t.originals[qualname]
            name = qualname.split(".")[1]
            for mod in modules:
                assert getattr(mod, name).__wrapped__ is original, (mod.__name__, name)
        for original in t.originals.values():
            for mod in trace.urlab_modules():
                assert all(v is not original for v in vars(mod).values())
    finally:
        t.uninstall()
    assert moments.moment_set is t.originals["moments.moment_set"]
    assert catalog.moment_set is t.originals["moments.moment_set"]
    assert model.PureState.__post_init__ is t.originals["model.PureState.__post_init__"]


def test_scan_span_counts(tracer):
    n = 12
    rng = ensembles.stream_rng(3, "coverage")
    for _ in range(n):
        ensembles.scan_report("heisenberg", rng, [3])
    assert tracer.calls["ensembles.generate"] == n
    assert tracer.fn_calls["ensembles.scan_report"] == n
    assert tracer.calls["catalog.evaluate"] == n
    assert tracer.fn_calls["catalog.heisenberg"] == n
    assert tracer.calls["moments.moment_set"] == n
    validations = (tracer.fn_calls["model.Observable.__post_init__"],
                   tracer.fn_calls["model.PureState.__post_init__"]
                   + tracer.fn_calls["model.DensityMatrix.__post_init__"])
    assert validations == (2 * n, n)


def test_analysis_bindings_are_counted(tracer):
    q, p, pairs = analysis.gaussian_pair_ensemble(6, dim=64, seed=1, pool_size=4)
    assert tracer.fn_calls["model.squeezed_state"] == 4
    analysis.saturation_transfer_audit(q, p, pairs)
    distinct = len({id(s) for pair in pairs for s in pair})
    assert tracer.fn_calls["moments.moment_set"] == distinct


def test_minimize_span_counts(tracer):
    n = 3
    for seed in range(n):
        analysis.minimize_slack("coherent_fixed", model.fock_operators(32), 32,
                                init=[0.2, 0.1, 0.3, 0.0], budget=30, restarts=2, seed=seed)
    assert tracer.calls["analysis.minimize"] == n
    assert tracer.calls["analysis.nelder_mead"] == 2 * n
    objective = tracer.calls["analysis.objective"]
    # every objective call builds one state; each call builds one more at the end
    assert tracer.fn_calls["model.squeezed_state"] == objective + n
    assert tracer.fn_calls["catalog.evaluate_ur"] == objective + n - tracer.truncation_rejects


def _minimize_period(seed=3):
    wl = workloads.GaussianMinimize(seed, "")
    return [wl.next_op() for _ in range(wl.period)]


def test_minimize_gate_passes_full_descents():
    for op in _minimize_period():
        assert op.verify(op.run()) is None


def test_minimize_gate_fails_a_simplex_capped_at_its_first_vertices(monkeypatch):
    nelder_mead = analysis.nelder_mead

    def capped(f, x0, *args, **kwargs):
        kwargs["budget"] = len(x0) + 1
        return nelder_mead(f, x0, *args, **kwargs)

    monkeypatch.setattr(analysis, "nelder_mead", capped)
    for op in _minimize_period():
        result = op.run()
        assert abs(result.slack) > op.workload.slack_tol, op.case
        assert op.verify(result) is not None


def test_check_span_counts(tracer, tmp_path):
    wl = workloads.CheckLarge(5, str(tmp_path), dim=128)
    loop = Loop(wl, tracer)
    with tracer.root():
        loop.run_count(4)
    assert not loop.failures
    assert tracer.calls["cli.main"] == 4
    same = workloads.RequestStream(5, dim=128)
    reqs = [next(same) for _ in range(4)]
    states = [json.loads(s)["builder"] for r in reqs for s in r.states]
    assert tracer.fn_calls["cli.build_observable"] == sum(len(r.observables) for r in reqs)
    assert tracer.fn_calls["cli.build_state"] == len(states)
    assert tracer.fn_calls["model.squeezed_state"] == states.count("squeezed")
    assert tracer.fn_calls["model.coherent_state"] == states.count("coherent")


def test_self_times_add_up_to_traced_wall(tracer, tmp_path):
    wl = workloads.ScanSmall(2, str(tmp_path))
    loop = Loop(wl, tracer)
    t0 = time.perf_counter()
    with tracer.root():
        loop.run_count(2 * wl.period)
    wall = time.perf_counter() - t0
    assert not loop.failures
    assert tracer.calls["ensembles.generate"] == 2 * wl.period
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.wall_s, rel=1e-9)
    assert total == pytest.approx(wall, rel=0.03)


def test_reference_agrees_and_catches_a_wrong_side():
    rng = np.random.default_rng(4)
    for ur_id, n_obs in (("heisenberg", 2), ("schrodinger", 2), ("robertson", 3)):
        obs = [ensembles.rand_observable(rng, 5, f"H{i}") for i in range(n_obs)]
        for state in (ensembles.rand_pure(rng, 5), ensembles.rand_density(rng, 5)):
            report = catalog.evaluate_ur(ur_id, obs, [state])
            ms = moments.moment_set(obs, state)
            assert reference.mismatch(ur_id, obs, state, ms, report) is None
            off = catalog.URReport(ur_id, report.type_nm, report.lhs * (1 + 1e-6), report.rhs,
                                   report.slack, report.saturated, report.tol,
                                   report.inputs_digest)
            assert reference.mismatch(ur_id, obs, state, ms, off) is not None
