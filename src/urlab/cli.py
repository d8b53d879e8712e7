"""Command-line surface: declarative checks, seeded property scans, slack
minimization, precision comparison, and divergence evaluation.

Configs and reports are UTF-8 JSON. Complex numbers are [re, im] pairs (bare
reals are accepted on input); matrices are row-major lists of such entries.
Exit codes: 0 success, 1 an inequality was violated, 2 config error, 3 input
validity error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache

import numpy as np

from . import __version__
from .analysis import compare_precision, minimize_slack, divergence
from .catalog import H_CHOICES, SPECS, URReport, evaluate_ur
from .ensembles import (
    DEFAULT_SCAN_URS,
    coherent_pair_grid,
    random_instances,
    scan_report,
    stream_rng,
)
from .errors import ConfigError, InputError, NumericError
from .linalg import SLACK_RTOL, as_complex, as_integer, as_numbers, as_real, as_seed, slack_scale
from .model import (
    Observable,
    _check_dim,
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
# the keys a scan's `pinned` object and `urs` entries take: the shape of the
# instances drawn, and the extras of the checks drawn
_SCAN_PINS = ("dim", "n", "m", "r", "h_choice")
# the reader of each check extra and scan pin that holds an integer, and the
# reader's arguments after the value's name
_INT_EXTRAS = {"dim": (_check_dim,), **dict.fromkeys(("n", "m", "r"), (as_integer, 1))}


def _read(reader, value, *args):
    """``reader(value, *args)``, a library reader, with its refusal as a config
    error: the one place an InputError becomes a ConfigError. So a value outside
    the range its reader admits on its own exits 2, while one the library refuses
    against another input (a Fock level >= the dimension, an order r > n, a slot
    the check lacks) stays an input error, exit 3."""
    try:
        return reader(value, *args)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def _parse_int(reader, value, *args) -> int:
    """A config integer, read by ``reader`` (`as_integer`, `as_seed` or
    `_check_dim`) through `_read`. An integral float such as 2.0 is the int
    it equals: the readers refuse floats, JSON writers do not."""
    if type(value) is float and value.is_integer():
        value = int(value)
    return _read(reader, value, *args)


def _parse_complex(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        return _read(as_complex, value, what)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_read(as_real, value[0], what), _read(as_real, value[1], what))
    raise ConfigError(f"{what} must be a number or [re, im] pair, got {value!r}")


def _parse_matrix(rows, what: str) -> np.ndarray:
    """Rows of numbers, or rows of [re, im] pairs, as one complex array; the
    entries are read by `as_numbers`."""
    a = _read(as_numbers, rows, what)
    if a.ndim == 2:
        return a
    if a.ndim == 3 and a.shape[2] == 2:  # [re, im] pairs of reals, read as complex
        return np.ascontiguousarray(a.real).view(complex).reshape(a.shape[:2])
    raise ConfigError(
        f"{what} must be a row-major list of rows of equal length, "
        "all entries numbers or all [re, im] pairs"
    )


def _parse_dims(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"dims must be a non-empty list or a {{min, max}} object, got {value!r}")
    return [_parse_int(_check_dim, d, "dims entry") for d in value]


def _parse_list(config: dict, key: str) -> list:
    value = config.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def _parse_slot(slot, what: str) -> int:
    """A state slot number, or its decimal digits: JSON object keys are
    strings, so the fixed_states key "0" names slot 0."""
    if isinstance(slot, str) and slot.isascii() and slot.isdigit():
        slot = int(slot)
    return _read(as_integer, slot, what, 0)


def _parse_ur_id(value, what: str) -> str:
    """A check id of SPECS; every command parses its check ids here."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a check id string, got {value!r}")
    if value not in SPECS:
        raise ConfigError(f"unknown UR id {value!r}")
    return value


def _parse_extras(extras, what: str, keys) -> dict:
    """Check extras or scan pins: every key one of ``keys``, integer fields
    parsed, `h_choice` one of H_CHOICES.

    Every command that forwards extras to a check parses them here.
    """
    if not isinstance(extras, dict):
        raise ConfigError(f"{what} must be an object, got {extras!r}")
    for key in extras:
        if key not in keys:
            takes = ", ".join(keys) or "none"
            raise ConfigError(f"{what} has unknown key {key!r} (it takes: {takes})")
    out = dict(extras)
    for key, (reader, *bounds) in _INT_EXTRAS.items():
        if key in out:
            out[key] = _parse_int(reader, out[key], f"{what} {key!r}", *bounds)
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
        ops = spin_operators(_read(as_real, j, "j"))
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
            _read(as_real, spec.get("r", 0.0), "r"),
            _read(as_real, spec.get("phi", 0.0), "phi"),
            dim,
        )
    if builder == "fock_n":
        return fock_state(_parse_int(as_integer, spec.get("k", 0), "k", 0), dim)
    if builder == "raw_vector":
        amps = spec.get("amplitudes")
        if not isinstance(amps, list):
            raise ConfigError("raw_vector needs an 'amplitudes' list")
        return raw_vector_state([_parse_complex(x, "amplitude") for x in amps])
    if builder == "raw_density":
        return raw_density_state(_parse_matrix(spec.get("matrix"), "density matrix"))
    raise ConfigError(f"unknown state builder {builder!r}")


def _ur_entries(config, pins: tuple[str, ...] = ()) -> list[tuple[str, dict]]:
    """The `urs` list as (id, extras) pairs. An entry's keys besides `id` are
    the check's own extras, or for a scan (``pins`` given) its scan pins."""
    urs = config.get("urs")
    if urs == "all":
        return [(ur, {}) for ur in DEFAULT_SCAN_URS]
    if not isinstance(urs, list) or not urs:
        raise ConfigError("config needs a non-empty 'urs' list (or \"all\" for scans)")
    out = []
    for entry in urs:
        if isinstance(entry, str):
            ur_id, extras = _parse_ur_id(entry, "a UR entry"), {}
        elif isinstance(entry, dict) and "id" in entry:
            ur_id = _parse_ur_id(entry["id"], "a UR entry's 'id'")
            extras = {k: v for k, v in entry.items() if k != "id"}
        else:
            raise ConfigError(f"bad UR entry {entry!r}")
        out.append((ur_id, _parse_extras(extras, f"{ur_id!r} entry", pins or SPECS[ur_id].extras)))
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
    seed = config.get("seed", 0)
    _parse_int(as_seed, seed)
    return int(seed)  # as given, not mod 2^64: the report echoes it


def _resolve_dim(args, config) -> int:
    if args.dim is not None:
        return _read(_check_dim, args.dim, "--dim")
    return _parse_int(_check_dim, config.get("hilbert_dim", DEFAULT_DIM), "hilbert_dim")


def _slack_rtol(config) -> float:
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    return _read(as_real, tol.get("slack_rtol", SLACK_RTOL), "slack_rtol", 0.0)


def _report_row(report: URReport, rtol: float) -> dict:
    row = report.as_dict()
    row["holds"] = report.holds(rtol)
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
    size = _parse_int(as_integer, config.get("ensemble_size", 100), "ensemble_size", 1)
    dims_cfg = config.get("dims", {"min": 2, "max": 8})
    if isinstance(dims_cfg, dict):
        lo = _parse_int(_check_dim, dims_cfg.get("min", 2), "dims.min")
        hi = _parse_int(_check_dim, dims_cfg.get("max", 8), "dims.max")
        if lo > hi:
            raise ConfigError(f"dims.min exceeds dims.max in {dims_cfg!r}")
        dims = list(range(lo, hi + 1))
    else:
        dims = _parse_dims(dims_cfg)
    pinned = _parse_extras(config.get("pinned", {}), "pinned", _SCAN_PINS)
    rows = []
    n_viol = 0
    worst_overall = float("inf")
    for ur_id, extras in _ur_entries(config, _SCAN_PINS):
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
            if not report.holds(rtol):
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
    ur_id = _parse_ur_id(config.get("ur"), "minimize's 'ur'")
    observables = [build_observable(s, dim) for s in _parse_list(config, "observables")]
    if not observables:
        raise ConfigError("minimize needs 'observables'")
    fixed_cfg = config.get("fixed_states") or {}
    if not isinstance(fixed_cfg, dict):
        raise ConfigError("'fixed_states' must be an object mapping slot numbers to states")
    fixed = {
        _parse_slot(slot, "fixed_states key"): build_state(spec, dim)
        for slot, spec in fixed_cfg.items()
    }
    free = config.get("free_slots")
    if free is not None:
        if not isinstance(free, list):
            raise ConfigError(f"'free_slots' must be a list of slot numbers, got {free!r}")
        free = [_parse_slot(slot, "free_slots entry") for slot in free]
    result = minimize_slack(
        ur_id,
        observables,
        dim=dim,
        free_slots=free,
        fixed_states=fixed,
        budget=_parse_int(as_integer, config.get("budget", 400), "budget", 1),
        restarts=_parse_int(as_integer, config.get("restarts", 8), "restarts", 1),
        seed=seed,
        extras=_parse_extras(config.get("extras") or {}, "extras", SPECS[ur_id].extras),
    )
    row = dataclasses.asdict(result)
    row["slots"] = [dict(s, alpha=[s["alpha"].real, s["alpha"].imag]) for s in row["slots"]]
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
            dim=_parse_int(_check_dim, spec.get("hilbert_dim", dim), "hilbert_dim"),
            extent=_read(as_real, spec.get("extent", 2.0), "extent"),
            points=_parse_int(as_integer, spec.get("points", 5), "points", 1),
        )
    if kind == "random":
        ur = _parse_ur_id(spec.get("ur") or config.get("ur_a"), "instances 'ur'")
        dims = _parse_dims(spec.get("dims", [2, 3, 4, 6, 8]))
        size = _parse_int(as_integer, spec.get("size", 200), "size", 1)
        return random_instances(ur, size, dims, _parse_int(as_seed, spec.get("seed", seed)))
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
        extras_a=_parse_extras(config.get("extras_a") or {}, "extras_a", SPECS[ur_a].extras),
        extras_b=_parse_extras(config.get("extras_b") or {}, "extras_b", SPECS[ur_b].extras),
    )
    rtol = _slack_rtol(config)
    violated = stats.min_relative_slack_a < -rtol or stats.min_relative_slack_b < -rtol
    body = {"results": [dataclasses.asdict(stats)], "summary": {"all_hold": not violated}}
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
