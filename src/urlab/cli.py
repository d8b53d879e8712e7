"""Command-line surface: declarative checks, seeded property scans, slack
minimization, precision comparison, and divergence evaluation.

Configs and reports are UTF-8 JSON. Complex numbers are [re, im] pairs (bare
reals are accepted on input); matrices are row-major lists of such entries.
Exit codes: 0 success, 1 an inequality was violated, 2 config error, 3 input
validity error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import chain

import numpy as np

from . import __version__
from .analysis import compare_precision, minimize_slack, divergence
from .catalog import CHAR_GAP_IDS, H_CHOICES, UR_SPECS, URReport, evaluate_ur
from .ensembles import (
    DEFAULT_SCAN_URS,
    coherent_pair_grid,
    random_instances,
    scan_report,
    stream_rng,
)
from .errors import ConfigError, InputError, NumericError
from .linalg import SLACK_RTOL, slack_scale
from .model import (
    MAX_DIM,
    MIN_DIM,
    Observable,
    fock_operators,
    fock_state,
    coherent_state,
    quad_mix,
    quad_plus,
    raw_density_state,
    raw_vector_state,
    spin_operators,
    squeezed_state,
)

SEED_ENV = "URLAB_SEED"
DEFAULT_DIM = 64

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_JSON_WHITESPACE = " \t\n\r"
# check extras and scan pins that hold integers
_INT_EXTRAS = ("dim", "n", "m", "r")


def _parse_real(value, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _parse_int(value, what: str, least: int | None = None) -> int:
    x = _parse_real(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if least is not None and x < least:
        raise ConfigError(f"{what} must be at least {least}, got {value!r}")
    return int(x)


def _parse_complex(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_parse_real(value, what))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_parse_real(value[0], what), _parse_real(value[1], what))
    raise ConfigError(f"{what} must be a number or [re, im] pair, got {value!r}")


def _parse_matrix(rows, what: str) -> np.ndarray:
    """Parse rows of numbers, or rows of [re, im] pairs, as one complex array."""
    shape = (
        f"{what} must be a non-empty row-major list of rows of equal length, "
        "all entries numbers or all [re, im] pairs"
    )
    if not isinstance(rows, list) or not rows:
        raise ConfigError(shape)
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry that is no number
        raise ConfigError(shape) from None
    if a.ndim == 3 and a.shape[2] == 2:
        entries = chain.from_iterable(chain.from_iterable(rows))
    elif a.ndim == 2:
        entries = chain.from_iterable(rows)
    else:
        raise ConfigError(shape)
    # float() above also takes booleans and numeric strings; _parse_real does not
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, entries))):
        raise ConfigError(f"{what} entries must be numbers or [re, im] pairs of numbers")
    if not np.isfinite(a).all():
        raise ConfigError(f"{what} entries must be finite")
    return a.view(complex).reshape(a.shape[:2]) if a.ndim == 3 else a.astype(complex)


def _parse_dims(value) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"dims must be a list of integers or a {{min, max}} object, got {value!r}")
    dims = [_parse_int(d, "dims") for d in value]
    if not dims or not all(MIN_DIM <= d <= MAX_DIM for d in dims):
        raise ConfigError(
            f"dims must be one or more dimensions in [{MIN_DIM}, {MAX_DIM}], got {value!r}"
        )
    return dims


def _parse_list(config: dict, key: str) -> list:
    value = config.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def _parse_slot(slot, what: str) -> int:
    """A state slot number: a non-negative integer or its decimal digits (JSON
    object keys are strings, so the fixed_states key "0" names slot 0)."""
    if isinstance(slot, str) and slot.isascii() and slot.isdigit():
        return int(slot)
    if isinstance(slot, int) and not isinstance(slot, bool) and slot >= 0:
        return slot
    raise ConfigError(f"{what} must be slot numbers, got {slot!r}")


def _parse_ur_id(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a check id string, got {value!r}")
    return value


def _parse_extras(extras, what: str) -> dict:
    """Check extras or scan pins: integer fields parsed, `h_choice` one of
    H_CHOICES.

    Every command that forwards extras to a check parses them here.
    """
    if not isinstance(extras, dict):
        raise ConfigError(f"{what} must be an object, got {extras!r}")
    out = dict(extras)
    for key in _INT_EXTRAS:
        if key in out:
            out[key] = _parse_int(out[key], f"{what} {key!r}", least=None if key == "dim" else 1)
    if "dim" in out and not MIN_DIM <= out["dim"] <= MAX_DIM:
        raise ConfigError(f"{what} 'dim' must lie in [{MIN_DIM}, {MAX_DIM}], got {out['dim']!r}")
    h_choice = out.get("h_choice", H_CHOICES[0])
    if h_choice not in H_CHOICES:
        raise ConfigError(f"{what} 'h_choice' must be one of {H_CHOICES}, got {h_choice!r}")
    return out


def build_observable(spec: dict, dim: int) -> Observable:
    if not isinstance(spec, dict) or "builder" not in spec:
        raise ConfigError(f"observable spec needs a 'builder' key: {spec!r}")
    builder = spec["builder"]
    if builder == "fock_q":
        return fock_operators(dim)[0]
    if builder == "fock_p":
        return fock_operators(dim)[1]
    if builder == "quad_plus":
        return quad_plus(dim)
    if builder == "quad_mix":
        return quad_mix(dim)
    if builder in ("spin_jx", "spin_jy", "spin_jz"):
        j = spec.get("j")
        if j is None:
            raise ConfigError(f"{builder} needs a 'j' parameter")
        ops = spin_operators(_parse_real(j, "j"))
        return ops[("spin_jx", "spin_jy", "spin_jz").index(builder)]
    if builder == "raw_observable":
        return Observable(spec.get("name", "raw"), _parse_matrix(spec.get("matrix"), "matrix"))
    raise ConfigError(f"unknown observable builder {builder!r}")


def build_state(spec: dict, dim: int):
    if not isinstance(spec, dict) or "builder" not in spec:
        raise ConfigError(f"state spec needs a 'builder' key: {spec!r}")
    builder = spec["builder"]
    if builder == "coherent":
        return coherent_state(_parse_complex(spec.get("alpha", 0.0), "alpha"), dim)
    if builder == "squeezed":
        return squeezed_state(
            _parse_complex(spec.get("alpha", 0.0), "alpha"),
            _parse_real(spec.get("r", 0.0), "r"),
            _parse_real(spec.get("phi", 0.0), "phi"),
            dim,
        )
    if builder == "fock_n":
        return fock_state(_parse_int(spec.get("k", 0), "k"), dim)
    if builder == "raw_vector":
        amps = spec.get("amplitudes")
        if not isinstance(amps, list):
            raise ConfigError("raw_vector needs an 'amplitudes' list")
        return raw_vector_state([_parse_complex(x, "amplitude") for x in amps])
    if builder == "raw_density":
        return raw_density_state(_parse_matrix(spec.get("matrix"), "density matrix"))
    raise ConfigError(f"unknown state builder {builder!r}")


def _ur_entries(config) -> list[tuple[str, dict]]:
    urs = config.get("urs")
    if urs == "all":
        return [(ur, {}) for ur in DEFAULT_SCAN_URS]
    if not isinstance(urs, list) or not urs:
        raise ConfigError("config needs a non-empty 'urs' list (or \"all\" for scans)")
    out = []
    for entry in urs:
        if isinstance(entry, str):
            out.append((entry, {}))
        elif isinstance(entry, dict) and "id" in entry:
            ur_id = _parse_ur_id(entry["id"], "a UR entry's 'id'")
            extras = {k: v for k, v in entry.items() if k != "id"}
            out.append((ur_id, _parse_extras(extras, f"{ur_id!r} entry")))
        else:
            raise ConfigError(f"bad UR entry {entry!r}")
    for ur_id, _ in out:
        if ur_id not in UR_SPECS and ur_id not in CHAR_GAP_IDS:
            raise ConfigError(f"unknown UR id {ur_id!r}")
    return out


def _resolve_seed(args, config) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return _parse_int(config.get("seed", 0), "seed")


def _resolve_dim(args, config) -> int:
    if args.dim is not None:
        return args.dim
    return _parse_int(config.get("hilbert_dim", DEFAULT_DIM), "hilbert_dim")


def _slack_rtol(config) -> float:
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    rtol = _parse_real(tol.get("slack_rtol", SLACK_RTOL), "slack_rtol")
    if rtol < 0:
        raise ConfigError(f"slack_rtol must be >= 0, got {rtol!r}")
    return rtol


def _violated(report: URReport, rtol: float) -> bool:
    return report.slack < -rtol * slack_scale(report.lhs, report.rhs)


def _report_row(report: URReport, rtol: float) -> dict:
    row = report.as_dict()
    row["holds"] = not _violated(report, rtol)
    return row


# ---------------------------------------------------------------------------
# commands


def run_check(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    rtol = _slack_rtol(config)
    observables = [build_observable(s, dim) for s in _parse_list(config, "observables")]
    states = [build_state(s, dim) for s in _parse_list(config, "states")]
    if not observables or not states:
        raise ConfigError("check needs explicit 'observables' and 'states'")
    rows = []
    for ur_id, extras in _ur_entries(config):
        report = evaluate_ur(ur_id, observables, states, **extras)
        rows.append(_report_row(report, rtol))
    n_viol = sum(not r["holds"] for r in rows)
    summary = {
        "n_results": len(rows),
        "n_violations": n_viol,
        "worst_slack": min(r["slack"] for r in rows),
        "all_hold": n_viol == 0,
    }
    body = {"results": rows, "summary": summary}
    return body, EXIT_VIOLATION if n_viol else EXIT_OK


def run_scan(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    rtol = _slack_rtol(config)
    size = _parse_int(config.get("ensemble_size", 100), "ensemble_size", least=1)
    dims_cfg = config.get("dims", {"min": 2, "max": 8})
    if isinstance(dims_cfg, dict):
        lo = _parse_int(dims_cfg.get("min", 2), "dims.min")
        hi = _parse_int(dims_cfg.get("max", 8), "dims.max")
        if not MIN_DIM <= lo <= hi <= MAX_DIM:
            raise ConfigError(f"bad dims {dims_cfg!r}")
        dims = list(range(lo, hi + 1))
    else:
        dims = _parse_dims(dims_cfg)
    pinned = _parse_extras(config.get("pinned", {}), "pinned")
    rows = []
    n_viol = 0
    worst_overall = float("inf")
    for ur_id, extras in _ur_entries(config):
        rng = stream_rng(seed, f"scan:{ur_id}")
        pins = dict(pinned)
        pins.update(extras)
        worst = float("inf")
        worst_raw = float("inf")
        worst_digest = ""
        violations = 0
        for _ in range(size):
            report = scan_report(ur_id, rng, dims, pins)
            rel = report.slack / slack_scale(report.lhs, report.rhs)
            worst_raw = min(worst_raw, report.slack)
            if rel < worst:
                worst = rel
                worst_digest = report.inputs_digest
            if _violated(report, rtol):
                violations += 1
        n_viol += violations
        worst_overall = min(worst_overall, worst)
        rows.append(
            {
                "ur_id": ur_id,
                "instances": size,
                "worst_slack": worst_raw,
                "worst_relative_slack": worst,
                "worst_digest": worst_digest,
                "violations": violations,
            }
        )
    summary = {
        "n_results": len(rows),
        "n_violations": n_viol,
        "worst_relative_slack": worst_overall,
        "all_hold": n_viol == 0,
    }
    body = {"results": rows, "summary": summary}
    return body, EXIT_VIOLATION if n_viol else EXIT_OK


def run_minimize(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    ur_id = config.get("ur")
    if not isinstance(ur_id, str):
        raise ConfigError("minimize needs a 'ur' id")
    observables = [build_observable(s, dim) for s in _parse_list(config, "observables")]
    if not observables:
        raise ConfigError("minimize needs 'observables'")
    fixed_cfg = config.get("fixed_states") or {}
    if not isinstance(fixed_cfg, dict):
        raise ConfigError("'fixed_states' must be an object mapping slot numbers to states")
    fixed = {
        _parse_slot(slot, "fixed_states keys"): build_state(spec, dim)
        for slot, spec in fixed_cfg.items()
    }
    free = config.get("free_slots")
    if free is not None:
        if not isinstance(free, list):
            raise ConfigError(f"'free_slots' must be a list of slot numbers, got {free!r}")
        free = [_parse_slot(slot, "free_slots entries") for slot in free]
    result = minimize_slack(
        ur_id,
        observables,
        dim=dim,
        free_slots=free,
        fixed_states=fixed,
        budget=_parse_int(config.get("budget", 400), "budget", least=1),
        restarts=_parse_int(config.get("restarts", 8), "restarts", least=1),
        seed=seed,
        extras=_parse_extras(config.get("extras") or {}, "extras"),
    )
    row = {
        "ur_id": result.ur_id,
        "slack": result.slack,
        "tol": result.tol,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "gradients": result.gradients,
        "converged": result.converged,
        "truncation_rejects": result.truncation_rejects,
        "slots": [
            {"alpha": [s.alpha.real, s.alpha.imag], "r": s.r, "phi": s.phi}
            for s in result.slots
        ],
    }
    body = {"results": [row], "summary": {"best_slack": result.slack}}
    code = EXIT_VIOLATION if result.slack < -result.tol else EXIT_OK
    return body, code


def _compare_instances(config: dict, seed: int, dim: int):
    spec = config.get("instances")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("compare needs an 'instances' object with a 'kind'")
    kind = spec["kind"]
    if kind == "coherent_grid":
        return coherent_pair_grid(
            dim=_parse_int(spec.get("hilbert_dim", dim), "hilbert_dim"),
            extent=_parse_real(spec.get("extent", 2.0), "extent"),
            points=_parse_int(spec.get("points", 5), "points"),
        )
    if kind == "random":
        ur = _parse_ur_id(spec.get("ur") or config.get("ur_a"), "instances 'ur'")
        dims = _parse_dims(spec.get("dims", [2, 3, 4, 6, 8]))
        size = _parse_int(spec.get("size", 200), "size")
        return random_instances(ur, size, dims, _parse_int(spec.get("seed", seed), "seed"))
    raise ConfigError(f"unknown instances kind {kind!r}")


def run_compare(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    ur_a, ur_b = config.get("ur_a"), config.get("ur_b")
    if not ur_a or not ur_b:
        raise ConfigError("compare needs 'ur_a' and 'ur_b'")
    ur_a, ur_b = _parse_ur_id(ur_a, "'ur_a'"), _parse_ur_id(ur_b, "'ur_b'")
    stats = compare_precision(
        ur_a,
        ur_b,
        _compare_instances(config, seed, dim),
        extras_a=_parse_extras(config.get("extras_a") or {}, "extras_a"),
        extras_b=_parse_extras(config.get("extras_b") or {}, "extras_b"),
    )

    def ex_dict(ex):
        if ex is None:
            return None
        return {
            "label": ex.label,
            "slack_a": ex.slack_a,
            "slack_b": ex.slack_b,
            "defect_a": ex.defect_a,
            "defect_b": ex.defect_b,
        }

    row = {
        "ur_a": stats.ur_a,
        "ur_b": stats.ur_b,
        "size": stats.size,
        "fraction_a_tighter": stats.fraction_a_tighter,
        "fraction_a_tighter_relative": stats.fraction_a_tighter_relative,
        "ties": stats.ties,
        "min_slack_a": stats.min_slack_a,
        "min_slack_b": stats.min_slack_b,
        "example_a_tighter": ex_dict(stats.example_a_tighter),
        "example_b_tighter": ex_dict(stats.example_b_tighter),
    }
    rtol = _slack_rtol(config)
    violated = stats.min_slack_a < -rtol or stats.min_slack_b < -rtol
    body = {"results": [row], "summary": {"all_hold": not violated}}
    return body, EXIT_VIOLATION if violated else EXIT_OK


def run_divergence(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    obs = config.get("observable")
    sa, sb = config.get("state_a"), config.get("state_b")
    if obs is None or sa is None or sb is None:
        raise ConfigError("divergence needs 'observable', 'state_a' and 'state_b'")
    x = build_observable(obs, dim)
    s1 = build_state(sa, dim)
    s2 = build_state(sb, dim)
    variant = config.get("variant", "a")
    if variant not in ("a", "b"):
        raise ConfigError(f"divergence 'variant' must be 'a' or 'b', got {variant!r}")
    d_ab = divergence(x, s1, s2, variant)
    d_ba = divergence(x, s2, s1, variant)
    row = {"variant": variant, "d_ab": d_ab, "d_ba": d_ba}
    body = {"results": [row], "summary": {"d": d_ab}}
    return body, EXIT_OK


_COMMANDS = {
    "check": run_check,
    "scan": run_scan,
    "minimize": run_minimize,
    "compare": run_compare,
    "divergence": run_divergence,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="urlab",
        description="Construct, evaluate, minimize and property-test uncertainty relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="global seed override")
        cmd.add_argument("--dim", type=int, default=None, help="Hilbert dimension override")
        cmd.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _report_text(head: dict, config_text: str, body: dict) -> str:
    """The JSON report: `head`, then the config echoed as it was read, then
    `body`, all in json.dumps' 2-space layout except the echo itself.

    Only `head` and `body` are encoded: re-encoding a config that carries raw
    matrices would cost more than the check. Each encodes to an object whose
    first line is "{" and last line "}", so the echo replaces the closing brace
    of one and the opening brace of the other.
    """
    head_text = json.dumps(head, indent=2)
    body_text = json.dumps(body, indent=2)
    echo = config_text.strip(_JSON_WHITESPACE)
    return f'{head_text[:-2]},\n  "config": {echo},{body_text[1:]}\n'


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed list, 0 after --help
        return exc.code
    try:
        with open(args.config, "r", encoding="utf-8", newline="") as fh:
            config_text = fh.read()
        config = json.loads(config_text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(config, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    try:
        seed = _resolve_seed(args, config)
        dim = _resolve_dim(args, config)
        body, code = _COMMANDS[args.command](config, seed, dim)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    head = {
        "tool": {"name": "urlab", "version": __version__},
        "command": args.command,
        "seed": seed,
        "hilbert_dim": dim,
    }
    text = _report_text(head, config_text, body)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif hasattr(sys.stdout, "buffer"):
        # the report is UTF-8 whatever encoding stdout was opened with
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
