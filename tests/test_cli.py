"""Command-line surface: config parsing, exit codes, report schema, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import urlab
from urlab import model
from urlab.catalog import char_gap_from_states
from urlab.cli import _parse_numbers, main
from urlab.errors import ConfigError, InputError, NumericError, TruncationError
from urlab.model import fock_operators, fock_state, squeezed_state


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, config, *extra):
    cfg = write_config(tmp_path, "config.json", config)
    out = tmp_path / "report.json"
    code = main([command, "--config", cfg, "--out", str(out)] + list(extra))
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


CHECK_VACUUM = {
    "urs": ["schrodinger"],
    "hilbert_dim": 64,
    "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
    "states": [{"builder": "coherent", "alpha": [0.0, 0.0]}],
}


def test_check_schrodinger_vacuum_saturated(tmp_path):
    code, doc = run(tmp_path, "check", CHECK_VACUUM)
    assert code == 0
    row = doc["results"][0]
    assert row["saturated"] is True
    assert row["holds"] is True
    assert doc["summary"]["all_hold"] is True
    assert doc["tool"]["name"] == "urlab"


def test_check_extended_schrodinger_analytic_values(tmp_path):
    config = {
        "urs": ["extended_schrodinger"],
        "hilbert_dim": 64,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "states": [
            {"builder": "coherent", "alpha": [0.0, 0.0]},
            {"builder": "squeezed", "alpha": [0.0, 0.0], "r": 0.5, "phi": 0.0},
        ],
    }
    code, doc = run(tmp_path, "check", config)
    assert code == 0
    row = doc["results"][0]
    assert row["lhs"] == pytest.approx(0.25 * math.cosh(1.0), rel=1e-8)
    assert row["rhs"] == pytest.approx(0.25, abs=1e-9)


def test_check_dimension_mismatch_exit3(tmp_path):
    config = {
        "urs": ["schrodinger"],
        "observables": [
            {"builder": "raw_observable", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
            {"builder": "raw_observable", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
        ],
        "states": [
            {"builder": "raw_vector", "amplitudes": [1, 0, 0, 0]},
        ],
    }
    code, _ = run(tmp_path, "check", config)
    assert code == 3


def test_check_bad_config_exit2(tmp_path):
    code, _ = run(tmp_path, "check", {"urs": ["no_such_ur"], "observables": [], "states": []})
    assert code == 2
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["check", "--config", str(cfg)]) == 2


def test_check_spin_builders(tmp_path):
    config = {
        "urs": ["heisenberg"],
        "hilbert_dim": 2,
        "observables": [{"builder": "spin_jx", "j": 0.5}, {"builder": "spin_jy", "j": 0.5}],
        "states": [{"builder": "raw_vector", "amplitudes": [1, 0]}],
    }
    code, doc = run(tmp_path, "check", config)
    assert code == 0
    assert doc["results"][0]["lhs"] == pytest.approx(1 / 16)


def test_check_raw_density(tmp_path):
    config = {
        "urs": ["robertson"],
        "hilbert_dim": 2,
        "observables": [{"builder": "spin_jx", "j": 0.5}, {"builder": "spin_jz", "j": 0.5}],
        "states": [{"builder": "raw_density", "matrix": [[0.5, 0], [0, 0.5]]}],
    }
    code, doc = run(tmp_path, "check", config)
    assert code == 0


def test_check_hashes_each_input_once(tmp_path, monkeypatch):
    # three rows over the same inputs: each matrix is hashed by the first row
    # that reads it, and the cached builder observables stay hashed for the
    # next request, which hashes only its freshly built state
    config = {
        "urs": ["robertson", {"id": "characteristic", "r": 2}, "type_3_1"],
        "hilbert_dim": 48,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}, {"builder": "quad_plus"}],
        "states": [{"builder": "fock_n", "k": 1}],
    }
    for build in (model.fock_operators, model.quad_plus):
        build.cache_clear()
    hashed = []
    sub_digest = model._sub_digest

    def counting(tag, a):
        hashed.append(tag)
        return sub_digest(tag, a)

    monkeypatch.setattr(model, "_sub_digest", counting)
    code, doc = run(tmp_path, "check", config)
    assert code == 0 and doc["summary"]["n_results"] == 3
    assert sorted(hashed) == [b"Op", b"Op2-q2", b"Oq", b"P"]
    hashed.clear()
    code, again = run(tmp_path, "check", config)
    assert code == 0 and hashed == [b"P"]
    assert again["results"] == doc["results"]


def test_check_gap_rows_match_char_gap_from_states(tmp_path):
    config = {
        "urs": [
            "char_gap_entangled",
            {"id": "char_gap_superadditive", "r": 1},
            {"id": "char_gap_entangled", "r": 2, "h_choice": "centered"},
            {"id": "char_gap_superadditive", "h_choice": "raw"},
        ],
        "hilbert_dim": 32,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "states": [
            {"builder": "fock_n", "k": 1},
            {"builder": "squeezed", "alpha": [0.3, 0.1], "r": 0.4, "phi": 0.2},
        ],
    }
    code, doc = run(tmp_path, "check", config)
    assert code == 0
    observables = fock_operators(32)
    states = (fock_state(1, 32), squeezed_state(complex(0.3, 0.1), 0.4, 0.2, 32))
    expected = [
        char_gap_from_states("char_gap_entangled", observables, states),
        char_gap_from_states("char_gap_superadditive", observables, states, r=1),
        char_gap_from_states("char_gap_entangled", observables, states, r=2, h_choice="centered"),
        char_gap_from_states("char_gap_superadditive", observables, states, h_choice="raw"),
    ]
    for row, rep in zip(doc["results"], expected, strict=True):
        assert row == dict(rep.as_dict(), holds=True)


def _rows_alone_and_together(tmp_path, config):
    """The rows of one multi-row check, and each check requested alone."""
    code, doc = run(tmp_path, "check", config)
    assert code == 0
    alone = []
    for entry in config["urs"]:
        code, single = run(tmp_path, "check", dict(config, urs=[entry]))
        assert code == 0
        alone.append(single["results"][0])
    return doc["results"], alone


def _raw_density_rows(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return rho.view(float).reshape(d, d, 2).tolist()


MULTI_ROW_CHECKS = {
    "one pure state": {
        "urs": ["robertson", {"id": "characteristic", "r": 2},
                {"id": "char_gap_entangled", "h_choice": "centered"}],
        "hilbert_dim": 48,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}, {"builder": "quad_mix"}],
        "states": [{"builder": "squeezed", "alpha": [0.3, -0.2], "r": 0.4, "phi": 0.7}],
    },
    "two pure states": {
        "urs": ["type_2_2a", "extended_schrodinger",
                {"id": "char_gap_superadditive", "r": 1, "h_choice": "raw"}],
        "hilbert_dim": 48,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "states": [{"builder": "coherent", "alpha": [0.5, 0.1]},
                   {"builder": "squeezed", "alpha": [0.1, 0.2], "r": -0.3, "phi": 1.1}],
    },
    "raw density at dim 128": {
        "urs": ["heisenberg", "type_2_1", {"id": "char_gap_entangled", "r": 1}],
        "hilbert_dim": 128,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "states": [{"builder": "raw_density", "matrix": _raw_density_rows(128, 5)}],
    },
}


@pytest.mark.parametrize("case", sorted(MULTI_ROW_CHECKS))
def test_each_row_equals_its_check_requested_alone(tmp_path, case):
    together, alone = _rows_alone_and_together(tmp_path, MULTI_ROW_CHECKS[case])
    assert len(together) == 3
    for row, single in zip(together, alone, strict=True):
        assert json.dumps(row) == json.dumps(single)


def test_shared_parser_keeps_each_call_apart(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("URLAB_SEED", raising=False)
    assert urlab.cli.build_parser() is urlab.cli.build_parser()
    out = tmp_path / "report.json"
    check = write_config(tmp_path, "check.json", CHECK_VACUUM)
    assert main(["check", "--config", check, "--dim", "32", "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["command"], doc["hilbert_dim"], doc["seed"]) == ("check", 32, 5)
    div = write_config(tmp_path, "div.json", {
        "hilbert_dim": 24,
        "observable": {"builder": "fock_q"},
        "state_a": {"builder": "fock_n", "k": 0},
        "state_b": {"builder": "fock_n", "k": 1},
    })
    assert main(["divergence", "--config", div, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # neither --dim nor --seed of the earlier call carries over
    assert (doc["command"], doc["hilbert_dim"], doc["seed"]) == ("divergence", 24, 0)
    for bad in (["check"], ["nosuch", "--config", check], ["scan", "--config", check, "--dim", "x"]):
        assert main(bad) == 2
    capsys.readouterr()
    assert main(["check", "--config", check, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["hilbert_dim"] == 64


SCAN_SMALL = {
    "urs": ["schrodinger", "robertson", "char_gap_superadditive"],
    "ensemble_size": 40,
    "dims": {"min": 2, "max": 6},
    "seed": 42,
}


def test_scan_passes_and_reports_worst(tmp_path):
    code, doc = run(tmp_path, "scan", SCAN_SMALL)
    assert code == 0
    assert doc["summary"]["all_hold"] is True
    assert len(doc["results"]) == 3
    for row in doc["results"]:
        assert row["violations"] == 0
        assert row["instances"] == 40


def test_scan_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "scan.json", SCAN_SMALL)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scan", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_char_gap_superadditive_r1_trace_additivity(tmp_path):
    config = {
        "urs": [{"id": "char_gap_superadditive", "r": 1, "m": 3}],
        "ensemble_size": 50,
        "dims": {"min": 2, "max": 6},
        "seed": 7,
    }
    code, doc = run(tmp_path, "scan", config)
    assert code == 0
    assert abs(doc["results"][0]["worst_relative_slack"]) < 1e-12
    assert abs(doc["results"][0]["worst_slack"]) < 1e-12


def test_scan_all_urs(tmp_path):
    config = {"urs": "all", "ensemble_size": 5, "dims": [2, 3, 4], "seed": 3}
    code, doc = run(tmp_path, "scan", config)
    assert code == 0
    assert len(doc["results"]) == 15


def test_seed_precedence_flag_over_env_over_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "scan2.json", dict(SCAN_SMALL, seed=1))
    out_cfg = tmp_path / "a.json"
    main(["scan", "--config", cfg, "--out", str(out_cfg)])
    monkeypatch.setenv("URLAB_SEED", "2")
    out_env = tmp_path / "b.json"
    main(["scan", "--config", cfg, "--out", str(out_env)])
    out_flag = tmp_path / "c.json"
    main(["scan", "--config", cfg, "--seed", "3", "--out", str(out_flag)])
    seeds = [json.loads(p.read_text())["seed"] for p in (out_cfg, out_env, out_flag)]
    assert seeds == [1, 2, 3]


def test_minimize_command(tmp_path):
    config = {
        "ur": "schrodinger",
        "hilbert_dim": 64,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "budget": 150,
        "restarts": 2,
    }
    code, doc = run(tmp_path, "minimize", config)
    assert code == 0
    assert doc["results"][0]["slack"] < 1e-6


def test_minimize_row_counts_every_start(tmp_path):
    config = dict(MINIMIZE_TINY, hilbert_dim=8, free_slots=[1], budget=5, restarts=3)
    code, doc = run(tmp_path, "minimize", config)
    assert code == 0
    row = doc["results"][0]
    # 4 parameters: a budget of 5 leaves no room for a gradient (charged 8), so
    # each start is evaluated once and none is certified; at dim 8 the alpha
    # disc shrinks to what the truncation audit admits, so neither seeded
    # random start is rejected
    counts = (row["evaluations"], row["gradients"], row["truncation_rejects"], row["converged"])
    assert counts == (3, 0, 0, False)
    assert list(row)[list(row).index("evaluations") + 1] == "gradients"


@pytest.mark.parametrize("bad", [{"budget": 0}, {"budget": -1}, {"restarts": 0}, {"restarts": -3}])
def test_minimize_budget_and_restarts_below_one_exit2(tmp_path, bad):
    assert run(tmp_path, "minimize", dict(MINIMIZE_TINY, **bad))[0] == 2


def test_help_and_malformed_argument_lists_return_their_code(capsys):
    assert main(["--help"]) == 0
    assert "usage: urlab" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["bogus"]) == 2


def test_compare_command_coherent_grid(tmp_path):
    config = {
        "ur_a": "type_1_2a",
        "ur_b": "type_1_2b",
        "instances": {"kind": "coherent_grid", "extent": 2.0, "points": 4, "hilbert_dim": 64},
    }
    code, doc = run(tmp_path, "compare", config)
    assert code == 0
    row = doc["results"][0]
    assert row["example_a_tighter"] is not None
    assert row["example_b_tighter"] is not None


def test_compare_verdict_is_relative_like_check(tmp_path, monkeypatch):
    # heisenberg on coherent states with q and p scaled by 1e3: sides of order
    # 2.5e11 whose rounding leaves a slack of about -1e-3, far inside the
    # relative tolerance; `check` holds every row, so `compare` must too
    q, p = fock_operators(64)
    big = (model.Observable("Q", 1e3 * q.matrix), model.Observable("P", 1e3 * p.matrix))
    axis = np.linspace(-2.0, 2.0, 5)
    states = [model.coherent_state(complex(a, b), 64) for a in axis for b in axis]
    instances = [(str(k), big, (st,)) for k, st in enumerate(states)]
    assert all(urlab.heisenberg(*big, st).holds() for st in states)
    monkeypatch.setattr("urlab.cli._compare_instances", lambda config, seed, dim: instances)
    code, doc = run(tmp_path, "compare", dict(COMPARE_GRID, ur_a="heisenberg", ur_b="schrodinger"))
    row = doc["results"][0]
    assert row["min_slack_a"] < -1e-8 and row["min_slack_b"] < -1e-8
    assert -1e-8 <= row["min_relative_slack_a"] < 0 and -1e-8 <= row["min_relative_slack_b"] < 0
    assert (code, doc["summary"]["all_hold"]) == (0, True)


def test_divergence_command_symmetry(tmp_path):
    config = {
        "observable": {"builder": "fock_q"},
        "state_a": {"builder": "coherent", "alpha": [0.0, 0.0]},
        "state_b": {"builder": "coherent", "alpha": [1.0, 0.0]},
        "variant": "a",
        "hilbert_dim": 64,
    }
    code, doc = run(tmp_path, "divergence", config)
    assert code == 0
    row = doc["results"][0]
    assert row["d_ab"] > 0
    assert row["d_ab"] == pytest.approx(row["d_ba"], abs=1e-12)


def test_divergence_variant_is_a_config_value(tmp_path):
    config = {
        "observable": {"builder": "fock_q"},
        "state_a": {"builder": "fock_n", "k": 0},
        "state_b": {"builder": "coherent", "alpha": [0.5, 0.0]},
        "hilbert_dim": 16,
    }
    for variant in ("a", "b"):
        assert run(tmp_path, "divergence", dict(config, variant=variant))[0] == 0
    for bad in ("c", ["a"], None, 1, True):
        assert run(tmp_path, "divergence", dict(config, variant=bad))[0] == 2, bad


def test_report_echoes_config_and_version(tmp_path):
    code, doc = run(tmp_path, "check", CHECK_VACUUM)
    assert doc["config"] == CHECK_VACUUM
    assert doc["command"] == "check"
    assert "version" in doc["tool"]


def test_truncation_error_maps_to_exit3(tmp_path):
    config = {
        "urs": ["schrodinger"],
        "hilbert_dim": 8,
        "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
        "states": [{"builder": "coherent", "alpha": [4.0, 0.0]}],
    }
    code, _ = run(tmp_path, "check", config)
    assert code == 3


@pytest.mark.parametrize("alpha", [[1e200, 0.0], [0.0, 1e160], [1.3e154, 0.0]])
def test_huge_coherent_amplitude_maps_to_exit3(tmp_path, capsys, alpha):
    config = dict(CHECK_VACUUM, states=[{"builder": "coherent", "alpha": alpha}])
    code, doc = run(tmp_path, "check", config)
    assert code == 3 and doc is None
    assert "Poisson tail" in capsys.readouterr().err


SQUEEZED_CHECK = {
    "urs": ["heisenberg"],
    "hilbert_dim": 64,
    "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
    "states": [{"builder": "squeezed", "alpha": [0.1, 0.0], "r": 0.3, "phi": 0.0}],
}


def with_field(field, value):
    config = json.loads(json.dumps(SQUEEZED_CHECK))
    if field in ("r", "phi"):
        config["states"][0][field] = value
    elif field == "k":
        config["states"] = [{"builder": "fock_n", "k": value}]
    elif field == "j":
        config["hilbert_dim"] = 2
        config["observables"] = [{"builder": "spin_jx", "j": value}, {"builder": "spin_jy", "j": 0.5}]
        config["states"] = [{"builder": "raw_vector", "amplitudes": [1, 0]}]
    else:
        config[field] = value
    return config


@pytest.mark.parametrize("field", ["r", "phi", "k", "j", "hilbert_dim"])
def test_non_numeric_builder_scalar_exit2(tmp_path, field):
    valid = {"r": 0.2, "phi": 1.0, "k": 1, "j": 0.5, "hilbert_dim": 64}[field]
    assert run(tmp_path, "check", with_field(field, valid))[0] == 0
    for bad in ("abc", [1, 2], None, True, float("nan"), 10**400):
        code, _ = run(tmp_path, "check", with_field(field, bad))
        assert code == 2, (field, bad)


@pytest.mark.parametrize("field", ["k", "hilbert_dim"])
def test_fractional_integer_field_exit2(tmp_path, field):
    code, _ = run(tmp_path, "check", with_field(field, 1.5 if field == "k" else 64.5))
    assert code == 2


RAW_CHECK = {
    "urs": ["robertson"],
    "hilbert_dim": 2,
    "observables": [
        {"builder": "raw_observable", "matrix": [[1, 0], [0, -1]]},
        {"builder": "spin_jx", "j": 0.5},
    ],
    "states": [{"builder": "raw_density", "matrix": [[0.5, 0], [0, 0.5]]}],
}

BAD_MATRICES = {
    "ragged": [[1, 0], [0]],
    "ragged_pairs": [[[1, 0], [0, 0]], [[0, 0]]],
    "mixed_forms": [[1, [0, 0]], [[0, 0], 1]],
    "boolean": [[True, 0], [0, 1]],
    "boolean_in_pair": [[[1, False], [0, 0]], [[0, 0], [1, 0]]],
    "string": [["1", 0], [0, 1]],
    "non_finite": [[float("nan"), 0], [0, 1]],
    "infinite_pair": [[[1, 0], [0, float("inf")]], [[0, 0], [1, 0]]],
    "overflowing_integer": [[10**400, 0], [0, 1]],
    "flat_list": [1, 0, 0, 1],
}


def with_raw_matrix(slot, matrix):
    config = json.loads(json.dumps(RAW_CHECK))
    spec = config["observables"][0] if slot == "raw_observable" else config["states"][0]
    spec["matrix"] = matrix
    return config


@pytest.mark.parametrize("slot", ["raw_observable", "raw_density"])
@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
def test_malformed_raw_matrix_exit2(tmp_path, case, slot):
    code, _ = run(tmp_path, "check", with_raw_matrix(slot, BAD_MATRICES[case]))
    assert code == 2


def test_raw_matrix_forms_parse_exactly(tmp_path):
    # both forms give the bits that complex(re, im) per entry gives
    pairs = [[[0.5, -0.0], [0.1, -0.2]], [[0.1, 0.2], [0.5, 0.0]]]
    exact = np.array([[complex(*x) for x in row] for row in pairs])
    assert _parse_numbers(pairs, "m", 2).tobytes() == exact.tobytes()
    reals = [[1, 0.25], [0.25, -3]]
    exact = np.array([[complex(x) for x in row] for row in reals])
    assert _parse_numbers(reals, "m", 2).tobytes() == exact.tobytes()
    code, doc = run(
        tmp_path, "check", with_raw_matrix("raw_observable", [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])
    )
    assert code == 0
    assert doc["results"] == run(tmp_path, "check", RAW_CHECK)[1]["results"]


SCAN_TINY = {"urs": ["heisenberg"], "ensemble_size": 3, "dims": [2, 3], "seed": 1}
MINIMIZE_TINY = {
    "ur": "extended_schrodinger",
    "hilbert_dim": 16,
    "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
    "fixed_states": {"0": {"builder": "fock_n", "k": 0}},
    "budget": 20,
    "restarts": 1,
}
COMPARE_GRID = {
    "ur_a": "type_1_2a",
    "ur_b": "type_1_2b",
    "instances": {"kind": "coherent_grid", "extent": 1.0, "points": 2, "hilbert_dim": 32},
}
COMPARE_RANDOM = {
    "ur_a": "type_1_2a",
    "ur_b": "type_1_2b",
    "instances": {"kind": "random", "size": 3, "dims": [2, 3], "seed": 1},
}

# field -> (command, valid config, path to the field, integer field?)
NUMERIC_FIELDS = {
    "ensemble_size": ("scan", SCAN_TINY, ("ensemble_size",), True),
    "dims_list": ("scan", SCAN_TINY, ("dims", 1), True),
    "dims_min": ("scan", dict(SCAN_TINY, dims={"min": 2, "max": 3}), ("dims", "min"), True),
    "dims_max": ("scan", dict(SCAN_TINY, dims={"min": 2, "max": 3}), ("dims", "max"), True),
    "seed": ("scan", SCAN_TINY, ("seed",), True),
    "slack_rtol": (
        "scan", dict(SCAN_TINY, tolerances={"slack_rtol": 1e-8}), ("tolerances", "slack_rtol"), False
    ),
    "budget": ("minimize", MINIMIZE_TINY, ("budget",), True),
    "restarts": ("minimize", MINIMIZE_TINY, ("restarts",), True),
    "points": ("compare", COMPARE_GRID, ("instances", "points"), True),
    "instances_hilbert_dim": ("compare", COMPARE_GRID, ("instances", "hilbert_dim"), True),
    "extent": ("compare", COMPARE_GRID, ("instances", "extent"), False),
    "size": ("compare", COMPARE_RANDOM, ("instances", "size"), True),
    "instances_dims": ("compare", COMPARE_RANDOM, ("instances", "dims", 0), True),
    "instances_seed": ("compare", COMPARE_RANDOM, ("instances", "seed"), True),
}


def with_path(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
def test_non_numeric_config_field_exit2(tmp_path, field):
    command, config, path, integer = NUMERIC_FIELDS[field]
    assert run(tmp_path, command, config)[0] == 0
    bad_values = ["x", True, None, [1], float("nan")] + ([2.5] if integer else [])
    # a seed is any integer, read mod 2^64 as `linalg.as_seed` reads it; no
    # other field takes a number beyond the float range
    seed = path[-1] == "seed"
    assert run(tmp_path, command, with_path(config, path, 10**400))[0] == (0 if seed else 2)
    for bad in bad_values:
        code, _ = run(tmp_path, command, with_path(config, path, bad))
        assert code == 2, (field, bad)


@pytest.mark.parametrize("dims", ["23", 3, {"min": "2", "max": 3}])
def test_malformed_scan_dims_exit2(tmp_path, dims):
    assert run(tmp_path, "scan", dict(SCAN_TINY, dims=dims))[0] == 2


@pytest.mark.parametrize("key", ["x", "-1", "1.0", " 0", "0x1", "١"])
def test_non_integer_fixed_state_slot_exit2(tmp_path, key):
    config = dict(MINIMIZE_TINY, fixed_states={key: {"builder": "fock_n", "k": 0}})
    assert run(tmp_path, "minimize", config)[0] == 2


def test_fixed_states_must_be_an_object(tmp_path):
    config = dict(MINIMIZE_TINY, fixed_states=[{"builder": "fock_n", "k": 0}])
    assert run(tmp_path, "minimize", config)[0] == 2


def test_non_utf8_config_exit2(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# field -> (command, valid config, path to the field)
EXTRA_FIELDS = {
    "check_r": (
        "check", dict(CHECK_VACUUM, urs=[{"id": "characteristic", "r": 2}]), ("urs", 0, "r")
    ),
    "check_h_choice": (
        "check",
        dict(CHECK_VACUUM, urs=[{"id": "char_gap_entangled", "h_choice": "centered"}]),
        ("urs", 0, "h_choice"),
    ),
    "pinned_dim": ("scan", dict(SCAN_TINY, pinned={"dim": 3}), ("pinned", "dim")),
    "scan_entry_dim": (
        "scan", dict(SCAN_TINY, urs=[{"id": "robertson", "dim": 3}]), ("urs", 0, "dim")
    ),
    "pinned_n": ("scan", dict(SCAN_TINY, urs=["robertson"], pinned={"n": 3}), ("pinned", "n")),
    "pinned_n_characteristic": (
        "scan", dict(SCAN_TINY, urs=["characteristic"], pinned={"n": 3}), ("pinned", "n")
    ),
    "pinned_n_char_gap": (
        "scan", dict(SCAN_TINY, urs=["char_gap_entangled"], pinned={"n": 3}), ("pinned", "n")
    ),
    "pinned_m": ("scan", dict(SCAN_TINY, urs=["type_2_m"], pinned={"m": 3}), ("pinned", "m")),
    "pinned_r": ("scan", dict(SCAN_TINY, urs=["characteristic"], pinned={"r": 1}), ("pinned", "r")),
    "pinned_h_choice": (
        "scan",
        dict(SCAN_TINY, urs=["char_gap_superadditive"], pinned={"h_choice": "raw"}),
        ("pinned", "h_choice"),
    ),
    # a scan entry's extras pin its own instances
    "scan_entry_n": ("scan", dict(SCAN_TINY, urs=[{"id": "robertson", "n": 3}]), ("urs", 0, "n")),
    "scan_entry_h_choice": (
        "scan",
        dict(SCAN_TINY, urs=[{"id": "char_gap_entangled", "h_choice": "centered"}]),
        ("urs", 0, "h_choice"),
    ),
    "minimize_r": (
        "minimize", dict(MINIMIZE_TINY, ur="characteristic", fixed_states={}, extras={"r": 1}),
        ("extras", "r"),
    ),
    "compare_r": (
        "compare", dict(COMPARE_RANDOM, ur_a="characteristic", ur_b="robertson", extras_a={"r": 1}),
        ("extras_a", "r"),
    ),
}


# key -> (command, valid config, path to the object that gets the key, which
# the check or scan does not take)
UNKNOWN_EXTRA_KEYS = {
    "R": ("check", dict(CHECK_VACUUM, hilbert_dim=16, urs=[{"id": "characteristic"}]), ("urs", 0)),
    "r": ("check", dict(CHECK_VACUUM, urs=[{"id": "heisenberg"}]), ("urs", 0)),
    "m": ("check", dict(CHECK_VACUUM, urs=[{"id": "char_gap_entangled"}]), ("urs", 0)),
    "dim": ("check", dict(CHECK_VACUUM, urs=[{"id": "schrodinger"}]), ("urs", 0)),
    "hchoice": ("scan", dict(SCAN_TINY, urs=[{"id": "char_gap_entangled"}]), ("urs", 0)),
    "dims": ("scan", dict(SCAN_TINY, pinned={}), ("pinned",)),
    "rr": ("minimize", dict(MINIMIZE_TINY, ur="characteristic", fixed_states={}, extras={}),
           ("extras",)),
    "h_choice": ("minimize", dict(MINIMIZE_TINY, extras={}), ("extras",)),
    "order": ("compare", dict(COMPARE_RANDOM, extras_a={}), ("extras_a",)),
    "n": ("compare", dict(COMPARE_RANDOM, ur_a="robertson", ur_b="characteristic", extras_b={}),
          ("extras_b",)),
}


@pytest.mark.parametrize("key", sorted(UNKNOWN_EXTRA_KEYS))
def test_unknown_extra_or_pin_exit2(tmp_path, capsys, key):
    command, config, path = UNKNOWN_EXTRA_KEYS[key]
    assert run(tmp_path, command, config)[0] == 0
    assert run(tmp_path, command, with_path(config, path + (key,), 1))[0] == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


# command -> (valid config, path to a check id in it)
CHECK_ID_PATHS = {
    "check": (CHECK_VACUUM, ("urs", 0)),
    "scan": (SCAN_TINY, ("urs", 0)),
    "minimize": (MINIMIZE_TINY, ("ur",)),
    "compare": (COMPARE_RANDOM, ("ur_b",)),
}


@pytest.mark.parametrize("command", sorted(CHECK_ID_PATHS))
def test_unknown_check_id_exit2(tmp_path, capsys, command):
    config, path = CHECK_ID_PATHS[command]
    assert run(tmp_path, command, config)[0] == 0
    # a `urs` entry names its check as a string or as an object's "id"
    for spelling in ["heisenbrg"] + ([{"id": "heisenbrg"}] if path[0] == "urs" else []):
        assert run(tmp_path, command, with_path(config, path, spelling))[0] == 2, spelling
        assert "unknown UR id 'heisenbrg'" in capsys.readouterr().err


DIVERGENCE_TINY = {
    "observable": {"builder": "fock_q"},
    "state_a": {"builder": "fock_n", "k": 0},
    "state_b": {"builder": "coherent", "alpha": [0.5, 0.0]},
    "hilbert_dim": 16,
}

# enumerated value -> (command, valid config, path to the value, its name)
CHOICE_FIELDS = {
    "id": ("compare", COMPARE_RANDOM, ("ur_a",), "UR id"),
    "instances_ur": (
        "compare",
        dict(COMPARE_RANDOM, instances=dict(COMPARE_RANDOM["instances"], ur="type_1_2a")),
        ("instances", "ur"),
        "UR id",
    ),
    "h_choice": (
        "check",
        dict(CHECK_VACUUM, urs=[{"id": "char_gap_entangled", "h_choice": "raw"}]),
        ("urs", 0, "h_choice"),
        "'char_gap_entangled' entry 'h_choice'",
    ),
    "variant": ("divergence", dict(DIVERGENCE_TINY, variant="b"), ("variant",),
                "divergence variant"),
}


@pytest.mark.parametrize("field", sorted(CHOICE_FIELDS))
@pytest.mark.parametrize("bad", [["x"], {"a": 1}, None, "", "bogus"], ids=repr)
def test_malformed_enumerated_value_exit2(tmp_path, capsys, field, bad):
    command, config, path, name = CHOICE_FIELDS[field]
    assert run(tmp_path, command, config)[0] == 0
    assert run(tmp_path, command, with_path(config, path, bad))[0] == 2
    assert capsys.readouterr().err.startswith(f"config error: unknown {name} {bad!r}; expected")


def test_a_gap_id_where_no_gap_is_taken_exit3(tmp_path):
    # a gap id is a real id: minimize and compare's random instances refuse it
    # as an input, not as a config error
    assert run(tmp_path, "minimize", dict(MINIMIZE_TINY, ur="char_gap_entangled"))[0] == 3
    instances = dict(COMPARE_RANDOM["instances"], ur="char_gap_entangled")
    assert run(tmp_path, "compare", dict(COMPARE_RANDOM, instances=instances))[0] == 3


@pytest.mark.parametrize("field", sorted(EXTRA_FIELDS))
def test_malformed_extra_or_pin_exit2(tmp_path, field):
    command, config, path = EXTRA_FIELDS[field]
    assert run(tmp_path, command, config)[0] == 0
    if field.endswith("h_choice"):
        bad_values = ["bogus", "Raw", 0, True, None, ["raw"]]
    else:
        bad_values = ["x", True, None, [1], float("nan"), 10**400, 2.5, 0, -3]
    for bad in bad_values:
        code, _ = run(tmp_path, command, with_path(config, path, bad))
        assert code == 2, (field, bad)


# the dimension fields and the count fields of NUMERIC_FIELDS and
# EXTRA_FIELDS, `hilbert_dim` of with_field, and the --dim flag
DIM_FIELDS = (
    "hilbert_dim", "--dim", "dims_list", "dims_min", "dims_max", "instances_hilbert_dim",
    "instances_dims", "pinned_dim", "scan_entry_dim",
)
COUNT_FIELDS = (
    "ensemble_size", "budget", "restarts", "points", "size", "pinned_n", "pinned_m", "pinned_r",
    "scan_entry_n", "check_r", "minimize_r", "compare_r",
)


def with_range_field(field, value):
    """(command, config, extra arguments) with the dimension or count ``field`` set to value."""
    if field == "--dim":
        return "check", SQUEEZED_CHECK, ("--dim", str(value))
    if field == "hilbert_dim":
        return "check", with_field(field, value), ()
    command, config, path = (NUMERIC_FIELDS.get(field) or EXTRA_FIELDS[field])[:3]
    return command, with_path(config, path, value), ()


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in DIM_FIELDS for v in (1, 513, 1000)] + [(f, 0) for f in COUNT_FIELDS],
)
def test_a_value_outside_its_readers_range_exits_2(tmp_path, capsys, field, value):
    # the library's reader (model._check_dim, linalg.as_integer) states the
    # range, and the command line refuses what it refuses as a config error
    command, config, argv = with_range_field(field, value)
    assert run(tmp_path, command, config, *argv)[0] == 2
    low, high = (2, 512) if field in DIM_FIELDS else (1, sys.maxsize)
    assert f"must be an integer in {low}..{high}, got {value}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("check", with_field("k", SQUEEZED_CHECK["hilbert_dim"])),  # a Fock level = the dim
        ("check", dict(CHECK_VACUUM, urs=[{"id": "characteristic", "r": 3}])),  # r > n = 2
        ("minimize", dict(MINIMIZE_TINY, fixed_states={"2": {"builder": "fock_n", "k": 0}})),
    ],
)
def test_a_value_refused_against_another_input_exits_3(tmp_path, command, config):
    assert run(tmp_path, command, config)[0] == 3


def test_pinned_must_be_an_object(tmp_path):
    for pinned in ([3], "dim", 3):
        assert run(tmp_path, "scan", dict(SCAN_TINY, pinned=pinned))[0] == 2, pinned


# A raw matrix, irregular whitespace (tabs, CRLF, none around ':'), a \u
# escape in a name and a non-ASCII name, with blank lines around it.
RAW_CHECK_TEXT = (
    '\r\n\t { "urs" :["robertson"],"hilbert_dim":2,\r\n'
    '  "observables": [ {"builder": "raw_observable", "name": "\\u03c3z é",\n'
    '\t\t"matrix": [[1, 0],\n [0,-1.0]]},{"builder":"spin_jx","j":0.5}],\n'
    '"states":[{"builder":"raw_density","matrix":[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]}]}\n\n'
)
REPORT_CONFIGS = {
    "check": json.dumps(CHECK_VACUUM),
    "check_raw": RAW_CHECK_TEXT,
    "scan": json.dumps(SCAN_TINY, indent=4),
    "minimize": json.dumps(MINIMIZE_TINY),
    "compare": json.dumps(COMPARE_GRID),
    "divergence": json.dumps(
        {
            "observable": {"builder": "fock_q"},
            "state_a": {"builder": "fock_n", "k": 0},
            "state_b": {"builder": "coherent", "alpha": [0.5, 0.0]},
            "hilbert_dim": 32,
        }
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_CONFIGS))
def test_report_echoes_config_text_in_indented_report(tmp_path, case):
    command = case.split("_")[0]
    config_text = REPORT_CONFIGS[case]
    cfg = tmp_path / "config.json"
    cfg.write_bytes(config_text.encode("utf-8"))
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for out in outs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    text = outs[0].read_bytes()
    assert text == outs[1].read_bytes()
    text = text.decode("utf-8")
    doc = json.loads(text)
    keys = ["tool", "command", "seed", "hilbert_dim", "config", "results", "summary"]
    assert list(doc) == keys
    assert doc["config"] == json.loads(config_text)
    # everything but the echo keeps json.dumps' 2-space layout; the echo is
    # the config text without its surrounding whitespace
    echo = config_text.strip(" \t\r\n")
    layout = json.dumps(dict(doc, config="<echo>"), indent=2)
    assert text == layout.replace('"<echo>"', echo) + "\n"


def test_stdout_report_is_utf8_whatever_the_stdout_encoding(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(CHECK_VACUUM, note="é"), ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "report.json"
    src = str(Path(urlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=src)
    command = [sys.executable, "-m", "urlab", "check", "--config", str(cfg)]
    proc = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    assert proc.stdout == out.read_bytes()
    assert "é".encode("utf-8") in proc.stdout


@pytest.mark.parametrize(
    "command, config",
    [
        ("check", dict(CHECK_VACUUM, urs=[{"id": ["heisenberg"]}])),
        ("check", dict(CHECK_VACUUM, urs=[{"id": 3}])),
        ("compare", dict(COMPARE_RANDOM, ur_a=["type_1_2a"])),
        ("compare", dict(COMPARE_RANDOM, ur_b={"id": "type_1_2b"})),
        ("compare", dict(COMPARE_RANDOM, instances=dict(COMPARE_RANDOM["instances"], ur=["x"]))),
    ],
)
def test_check_ids_must_be_strings_exit2(tmp_path, command, config):
    assert run(tmp_path, command, config)[0] == 2


def test_negative_slack_rtol_exit2(tmp_path):
    for rtol in (-1, -1e-12):
        config = dict(CHECK_VACUUM, urs=["heisenberg"], tolerances={"slack_rtol": rtol})
        assert run(tmp_path, "check", config)[0] == 2, rtol
    config = dict(CHECK_VACUUM, urs=["heisenberg"], tolerances={"slack_rtol": 0})
    assert run(tmp_path, "check", config)[0] in (0, 1)


def test_free_slots_parsed_at_the_boundary(tmp_path):
    assert run(tmp_path, "minimize", dict(MINIMIZE_TINY, free_slots=[1]))[0] == 0
    for bad in (5, "1", {"1": 1}, [1.5], [True], [None], [-1], [[1]], ["x"]):
        assert run(tmp_path, "minimize", dict(MINIMIZE_TINY, free_slots=bad))[0] == 2, bad
    # a slot number that does not name a slot of the check is an input error
    for bad in ([1, 1], [2], [0, 1]):
        assert run(tmp_path, "minimize", dict(MINIMIZE_TINY, free_slots=bad))[0] == 3, bad


# field -> (command, valid config, path to the field, an integer it takes)
INTEGER_FIELDS = {
    "budget": ("minimize", MINIMIZE_TINY, ("budget",), 20),
    "hilbert_dim": ("check", CHECK_VACUUM, ("hilbert_dim",), 16),
    "check_r": ("check", EXTRA_FIELDS["check_r"][1], ("urs", 0, "r"), 1),
    "fock_n_k": ("check", with_field("k", 0), ("states", 0, "k"), 1),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_an_integral_float_is_read_as_its_integer(tmp_path, field):
    command, config, path, n = INTEGER_FIELDS[field]
    (code, doc), (float_code, float_doc) = (
        run(tmp_path, command, with_path(config, path, value)) for value in (n, float(n))
    )
    assert code == float_code == 0 and float_doc["results"] == doc["results"]


def test_scan_dims_min_above_max_exit2(tmp_path, capsys):
    assert run(tmp_path, "scan", dict(SCAN_TINY, dims={"min": 4, "max": 3}))[0] == 2
    assert capsys.readouterr().err.startswith("config error: dims.min exceeds dims.max")


@pytest.mark.parametrize("env", ["x", "1.5", ""])
def test_malformed_seed_variable_exit2(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("URLAB_SEED", env)
    assert run(tmp_path, "scan", SCAN_TINY) == (2, None)
    assert capsys.readouterr().err == f"config error: URLAB_SEED must be an integer, got {env!r}\n"


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ConfigError("c"), 2, "config error: c"),
        (InputError("i"), 3, "input error: i"),
        (TruncationError("t", 9), 3, "input error: t"),
        (NumericError("n"), 4, "numeric error: n"),
    ],
    ids=repr,
)
def test_each_refusal_exits_with_its_code_and_prefix(tmp_path, capsys, monkeypatch, error, code,
                                                     message):
    def refuse(config, seed, dim):
        raise error

    monkeypatch.setitem(urlab.cli._COMMANDS, "check", refuse)
    assert run(tmp_path, "check", CHECK_VACUUM) == (code, None)
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config error: [Errno 2] No such file or directory"),
        ("{not json", "config error: Expecting property name"),
        ("[1, 2]", "config error: top level must be a JSON object"),
        ("[" * 100_000, "config error: maximum recursion depth exceeded"),
    ],
    ids=["missing", "not-json", "list", "too-deep"],
)
def test_a_config_file_without_an_object_exit2(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(message)


# Seeded config fuzz: every node of a small valid config of each command is
# replaced in turn by each of FUZZ_VALUES, or deleted, and then random pairs
# of such edits are applied together. Whatever the config, the command exits
# 0, 2, 3 or 4, or 1 with a violated row, and never raises.
FUZZ_VALUES = (
    "x", "", -1, 0, 2, 2.5, True, False, None, float("nan"), [], [1], ["heisenberg"], {},
    {"builder": "fock_q"}, [[1, 0], [0]],
)
FUZZ_CONFIGS = {
    "check": dict(
        CHECK_VACUUM, hilbert_dim=8, urs=["heisenberg", {"id": "characteristic", "r": 1}],
        tolerances={"slack_rtol": 1e-8},
    ),
    "scan": dict(SCAN_TINY, pinned={"dim": 3}, tolerances={"slack_rtol": 1e-8}),
    "minimize": dict(MINIMIZE_TINY, free_slots=[1], budget=10, extras={}),
    "compare": dict(
        COMPARE_RANDOM, instances=dict(COMPARE_RANDOM["instances"], ur="type_1_2a"), extras_a={}
    ),
    "divergence": {
        "observable": {"builder": "fock_q"},
        "state_a": {"builder": "fock_n", "k": 0},
        "state_b": {"builder": "coherent", "alpha": [0.5, 0.0]},
        "variant": "a",
        "hilbert_dim": 16,
    },
}
_DELETE = object()
# the config keys that take a JSON object or a list: a value of any other JSON
# type there, null included, exits 2
SHAPED_KEYS = {
    **dict.fromkeys(
        ("extras", "extras_a", "fixed_states", "pinned", "tolerances", "instances", "observable",
         "state_a", "state_b"),
        dict,
    ),
    **dict.fromkeys(("free_slots", "observables", "states"), list),
}


def _fuzz_paths(node, path=()):
    """Paths to every node below the top level of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _fuzz_paths(child, path + (key,))


def _fuzz_edit(config, edits):
    config = json.loads(json.dumps(config))
    for path, value in edits:
        try:
            node = config
            for key in path[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = json.loads(json.dumps(value))
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this node
    return config


def _fuzz_verdict(tmp_path, command, config):
    """(exit code, violated row) for one run, or a description of what broke
    the exit-code contract."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    cfg = write_config(tmp_path, "config.json", config)
    try:
        code = main([command, "--config", cfg, "--out", str(out)])
    except Exception as exc:  # a traceback: the contract is broken
        return f"raised {type(exc).__name__}: {exc}"
    if code not in (0, 1, 2, 3, 4):
        return f"exit {code}"
    if code != 1:
        return code
    doc = json.loads(out.read_text())
    summary = doc["summary"]
    if "all_hold" in summary:
        violated = summary["all_hold"] is False
    else:
        row = doc["results"][0]
        violated = row["slack"] < -row["tol"]
    return 1 if violated else "exit 1 without a violated row"


def test_config_fuzz_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(20260)
    failures = []
    reached = set()
    shaped = set()
    for command, base in FUZZ_CONFIGS.items():
        assert _fuzz_verdict(tmp_path, command, base) == 0, command
        single = [
            (path, value) for path in _fuzz_paths(base) for value in FUZZ_VALUES + (_DELETE,)
        ]
        pairs = [
            [single[i] for i in rng.choice(len(single), size=2, replace=False)]
            for _ in range(40)
        ]
        for edits in [[e] for e in single] + pairs:
            verdict = _fuzz_verdict(tmp_path, command, _fuzz_edit(base, edits))
            if not isinstance(verdict, int):
                failures.append((command, edits, verdict))
            elif verdict == 2 and len(edits) == 1:
                reached.add((command, edits[0][0], type(edits[0][1]).__name__))
            (path, value), *more = edits
            if not more and path[1:] == () and path[0] in SHAPED_KEYS and value is not _DELETE:
                shaped.add(path[0])
                if not isinstance(value, SHAPED_KEYS[path[0]]) and verdict != 2:
                    failures.append((command, edits, f"exit {verdict} for a misshapen value"))
    assert not failures, failures[:5]
    assert shaped == set(SHAPED_KEYS)
    assert "Traceback" not in capsys.readouterr().err
    # the fuzz reaches the fields that once escaped as exit 1
    assert {
        ("check", ("urs", 1, "id"), "list"),
        ("check", ("tolerances", "slack_rtol"), "int"),
        ("compare", ("ur_a",), "list"),
        ("compare", ("instances", "ur"), "list"),
        ("minimize", ("free_slots",), "int"),
        ("minimize", ("free_slots", 0), "float"),
        # a falsy value that is not an object was once read as an empty one
        ("minimize", ("extras",), "list"),
        ("minimize", ("fixed_states",), "list"),
        ("compare", ("extras_a",), "bool"),
    } <= reached


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**63 + 1, pytest.param(10**400, id="10**400")])
def test_minimize_takes_any_integer_seed(tmp_path, seed):
    # the library reads a seed mod 2^64, as scan and compare do; the report
    # echoes the seed as given, with no rounding through a float
    config = dict(MINIMIZE_TINY, restarts=3, seed=seed)
    code, doc = run(tmp_path, "minimize", config)
    assert code == 0 and doc["seed"] == seed
    twin = run(tmp_path, "minimize", dict(config, seed=seed % 2**64))[1]
    assert doc["results"] == twin["results"]
