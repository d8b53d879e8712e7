"""Command-line surface: config parsing, exit codes, report schema, determinism."""

import json
import math

import pytest

from urlab.cli import main


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
