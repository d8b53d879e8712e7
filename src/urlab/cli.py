"""Command-line surface: declarative checks, seeded property scans, slack
minimization, precision comparison, and divergence evaluation.

Configs and reports are UTF-8 JSON. Complex numbers are [re, im] pairs (bare
reals are accepted on input); amplitude lists and matrices (row-major) are lists
of such entries, in one form throughout.
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
from .catalog import H_CHOICES, SPECS, VARIANTS, evaluate_ur
from .ensembles import (
    DEFAULT_SCAN_URS,
    SCAN_PINS,
    coherent_pair_grid,
    random_instances,
    scan_report,
    stream_rng,
)
from .errors import ConfigError, InputError, NumericError
from .linalg import SLACK_RTOL, as_choice, as_integer, as_numbers, as_real, as_seed, slack_scale
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
# the exit code and the stderr prefix of each refusal
_REFUSALS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    InputError: (EXIT_INPUT, "input error"),
    NumericError: (EXIT_NUMERIC, "numeric error"),
}

_JSON_WHITESPACE = " \t\n\r"
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


def _parse_numbers(value, what: str, rank: int):
    """A number (rank 0, as a complex), a list of numbers (rank 1) or rows of
    numbers (rank 2), as a complex array. Each entry is a bare real or an
    [re, im] pair, one form throughout; `as_numbers` reads the entries, in a
    list, so that a bare integer is read as a list entry is (beyond int64 too)."""
    a = _read(as_numbers, [value], what)[0]
    if a.ndim == rank + 1 and a.shape[-1] == 2:  # [re, im] pairs of reals, read as complex
        a = np.ascontiguousarray(a.real).view(complex)[..., 0]
    elif a.ndim != rank:
        shape = ("a number", "a list of numbers", "a list of rows of equal length")[rank]
        raise ConfigError(f"{what} must be {shape}, all entries reals or all [re, im] pairs")
    return a if rank else a.item()


def _parse_dims(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"dims must be a non-empty list or a {{min, max}} object, got {value!r}")
    return [_parse_int(_check_dim, d, "dims entry") for d in value]


def _field(config: dict, key: str, shape: type, default=None):
    """``config[key]``, a JSON object (``shape`` dict) or list (``shape``
    list), or ``default`` when the key is absent; any other value, null
    included, is a config error."""
    if key not in config:
        return default
    value = config[key]
    if not isinstance(value, shape):
        noun = "an object" if shape is dict else "a list"
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    return value


def _parse_slot(slot, what: str) -> int:
    """A state slot number, or its decimal digits: JSON object keys are
    strings, so the fixed_states key "0" names slot 0."""
    if isinstance(slot, str) and slot.isascii() and slot.isdigit():
        slot = int(slot)
    return _read(as_integer, slot, what, 0)


def _parse_ur_id(value) -> str:
    """A check id of SPECS; every command parses its check ids here."""
    return _read(as_choice, value, "UR id", SPECS)


def _parse_extras(extras, what: str, keys) -> dict:
    """Check extras or scan pins: every key one of ``keys``, integer fields
    parsed, `h_choice` read as one of H_CHOICES.

    Every command that forwards extras to a check parses them here.
    """
    for key in extras:
        if key not in keys:
            takes = ", ".join(keys) or "none"
            raise ConfigError(f"{what} has unknown key {key!r} (it takes: {takes})")
    out = dict(extras)
    for key, (reader, *bounds) in _INT_EXTRAS.items():
        if key in out:
            out[key] = _parse_int(reader, out[key], f"{what} {key!r}", *bounds)
    if "h_choice" in out:
        _read(as_choice, out["h_choice"], f"{what} 'h_choice'", H_CHOICES)
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
        return Observable(spec.get("name", "raw"), _parse_numbers(spec.get("matrix"), "matrix", 2))
    raise ConfigError(f"unknown observable builder {builder!r}")


def build_state(spec: dict, dim: int):
    if not isinstance(spec, dict) or "builder" not in spec:
        raise ConfigError(f"state spec needs a 'builder' key: {spec!r}")
    builder = spec["builder"]
    if builder == "coherent":
        return coherent_state(_parse_numbers(spec.get("alpha", 0.0), "alpha", 0), dim)
    if builder == "squeezed":
        return squeezed_state(
            _parse_numbers(spec.get("alpha", 0.0), "alpha", 0),
            _read(as_real, spec.get("r", 0.0), "r"),
            _read(as_real, spec.get("phi", 0.0), "phi"),
            dim,
        )
    if builder == "fock_n":
        return fock_state(_parse_int(as_integer, spec.get("k", 0), "k", 0), dim)
    if builder == "raw_vector":
        return raw_vector_state(_parse_numbers(spec.get("amplitudes"), "amplitudes", 1))
    if builder == "raw_density":
        return raw_density_state(_parse_numbers(spec.get("matrix"), "density matrix", 2))
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
            ur_id, extras = _parse_ur_id(entry), {}
        elif isinstance(entry, dict) and "id" in entry:
            ur_id = _parse_ur_id(entry["id"])
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
    tol = _field(config, "tolerances", dict, {})
    return _read(as_real, tol.get("slack_rtol", SLACK_RTOL), "slack_rtol", 0.0)


# ---------------------------------------------------------------------------
# commands


def run_check(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    rtol = _slack_rtol(config)
    observables = [build_observable(s, dim) for s in _field(config, "observables", list, [])]
    states = [build_state(s, dim) for s in _field(config, "states", list, [])]
    if not observables or not states:
        raise ConfigError("check needs explicit 'observables' and 'states'")
    rows = []
    for ur_id, extras in _ur_entries(config):
        report = evaluate_ur(ur_id, observables, states, **extras)
        rows.append(dict(report.as_dict(), holds=report.holds(rtol)))
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
    pinned = _parse_extras(_field(config, "pinned", dict, {}), "pinned", SCAN_PINS)
    rows = []
    n_viol = 0
    worst_overall = float("inf")
    for ur_id, extras in _ur_entries(config, SCAN_PINS):
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
    ur_id = _parse_ur_id(config.get("ur"))
    observables = [build_observable(s, dim) for s in _field(config, "observables", list, [])]
    if not observables:
        raise ConfigError("minimize needs 'observables'")
    fixed = {
        _parse_slot(slot, "fixed_states key"): build_state(spec, dim)
        for slot, spec in _field(config, "fixed_states", dict, {}).items()
    }
    free = _field(config, "free_slots", list)
    if free is not None:
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
        extras=_parse_extras(_field(config, "extras", dict, {}), "extras", SPECS[ur_id].extras),
    )
    row = dataclasses.asdict(result)
    row["slots"] = [dict(s, alpha=[s["alpha"].real, s["alpha"].imag]) for s in row["slots"]]
    body = {"results": [row], "summary": {"best_slack": result.slack}}
    code = EXIT_VIOLATION if result.slack < -result.tol else EXIT_OK
    return body, code


def _compare_instances(config: dict, seed: int, dim: int):
    spec = _field(config, "instances", dict, {})
    if "kind" not in spec:
        raise ConfigError("compare needs an 'instances' object with a 'kind'")
    kind = spec["kind"]
    if kind == "coherent_grid":
        return coherent_pair_grid(
            dim=_parse_int(_check_dim, spec.get("hilbert_dim", dim), "hilbert_dim"),
            extent=_read(as_real, spec.get("extent", 2.0), "extent"),
            points=_parse_int(as_integer, spec.get("points", 5), "points", 1),
        )
    if kind == "random":
        ur = _parse_ur_id(spec.get("ur", config.get("ur_a")))
        dims = _parse_dims(spec.get("dims", [2, 3, 4, 6, 8]))
        size = _parse_int(as_integer, spec.get("size", 200), "size", 1)
        return random_instances(ur, size, dims, _parse_int(as_seed, spec.get("seed", seed)))
    raise ConfigError(f"unknown instances kind {kind!r}")


def run_compare(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    ur_a, ur_b = _parse_ur_id(config.get("ur_a")), _parse_ur_id(config.get("ur_b"))
    instances = _compare_instances(config, seed, dim)
    extras_a, extras_b = (
        _parse_extras(_field(config, key, dict, {}), key, SPECS[ur].extras)
        for key, ur in (("extras_a", ur_a), ("extras_b", ur_b))
    )
    stats = compare_precision(ur_a, ur_b, instances, extras_a, extras_b)
    rtol = _slack_rtol(config)
    violated = stats.min_relative_slack_a < -rtol or stats.min_relative_slack_b < -rtol
    body = {"results": [dataclasses.asdict(stats)], "summary": {"all_hold": not violated}}
    return body, EXIT_VIOLATION if violated else EXIT_OK


def run_divergence(config: dict, seed: int, dim: int) -> tuple[dict, int]:
    obs, sa, sb = (_field(config, key, dict) for key in ("observable", "state_a", "state_b"))
    if obs is None or sa is None or sb is None:
        raise ConfigError("divergence needs 'observable', 'state_a' and 'state_b'")
    x = build_observable(obs, dim)
    s1 = build_state(sa, dim)
    s2 = build_state(sb, dim)
    variant = _read(as_choice, config.get("variant", "a"), "divergence variant", VARIANTS)
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


def _load(path: str) -> tuple[str, dict]:
    """The config file's text and the JSON object it holds; a file that cannot
    be read or parsed, or that holds no object, is a config error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        config = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(config, dict):
        raise ConfigError("top level must be a JSON object")
    return text, config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed list, 0 after --help
        return exc.code
    try:
        config_text, config = _load(args.config)
        seed = _resolve_seed(args, config)
        dim = _resolve_dim(args, config)
        body, code = _COMMANDS[args.command](config, seed, dim)
    except tuple(_REFUSALS) as exc:  # the one place a refusal becomes an exit code
        code, prefix = next(_REFUSALS[cls] for cls in type(exc).__mro__ if cls in _REFUSALS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
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
