"""Seeded random instance generators for property scans and comparisons.

Everything here is a pure function of the seed: the same (seed, parameters)
reproduce the same draws, reports, and therefore byte-identical scan output.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from .catalog import CHAR_GAP_IDS, H_CHOICES, UR_SPECS, URReport, evaluate_ur
from .errors import InputError
from .linalg import as_integer, as_real, as_seed
from .model import _check_dim, coherent_state, fock_operators, rand_density, rand_observable
from .model import rand_pure

# Checks scanned by default: every displayed inequality plus the two
# characteristic-gap flavors. coherent_fixed is excluded because its premise
# (a canonical commutator) is not meaningful for arbitrary random observables.
DEFAULT_SCAN_URS = (
    "heisenberg",
    "schrodinger",
    "robertson",
    "characteristic",
    "type_1_2a",
    "type_1_2b",
    "type_2_1",
    "type_2_2a",
    "type_2_2b",
    "extended_schrodinger",
    "entangled_heisenberg",
    "type_3_1",
    "type_2_m",
    "char_gap_entangled",
    "char_gap_superadditive",
)


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent deterministic substream for a named scan lane; the seed is
    any integer, read mod 2^64."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([as_seed(seed), tag])


def rand_state(rng: np.random.Generator, dim: int, allow_mixed: bool):
    if allow_mixed and rng.random() < 0.5:
        return rand_density(rng, dim)
    return rand_pure(rng, dim)


def _count(pinned: dict, key: str, drawn, hi: int = sys.maxsize) -> int:
    """The pinned value of a count or order, else the drawn one, read as an
    integer in 1..hi."""
    return as_integer(pinned.get(key, drawn), f"pinned {key!r}", 1, hi)


def _draw(ur_id: str, rng: np.random.Generator, dims: list, pinned: dict):
    """One random admissible instance of the named check, as (dim, observables,
    states, extras). A pinned dim, n, m or r still consumes its draw (a pinned
    h_choice does not): seeded reports and digests depend on this order."""
    if not dims:
        raise InputError("dims must hold at least one Hilbert dimension")
    dim = _check_dim(pinned.get("dim", dims[rng.integers(len(dims))]))
    extras = {}
    if ur_id in CHAR_GAP_IDS:
        n_obs = _count(pinned, "n", rng.integers(2, 4))
        n_states = _count(pinned, "m", rng.integers(1, 4))
        extras["r"] = _count(pinned, "r", rng.integers(1, n_obs + 1), n_obs)
        extras["h_choice"] = pinned.get("h_choice") or H_CHOICES[rng.integers(3)]
        allow_mixed = extras["h_choice"] == "robertson"
    else:
        spec = UR_SPECS.get(ur_id)
        if spec is None:
            raise InputError(f"unknown UR id {ur_id!r}")
        n_obs, n_states = spec.n_observables, spec.n_states
        if n_obs < 0:
            n_obs = _count(pinned, "n", rng.integers(2, 5))
        if n_states < 0:
            n_states = _count(pinned, "m", rng.integers(2, 5))
        allow_mixed = not spec.pure_only
    observables = tuple(rand_observable(rng, dim, f"H{i}") for i in range(n_obs))
    states = tuple(rand_state(rng, dim, allow_mixed) for _ in range(n_states))
    return dim, observables, states, extras


def scan_report(ur_id: str, rng: np.random.Generator, dims, pinned=None) -> URReport:
    """Draw one random admissible instance of the named check and evaluate it."""
    pinned = pinned or {}
    _, observables, states, extras = _draw(ur_id, rng, list(dims), pinned)
    if ur_id == "characteristic":
        extras["r"] = _count(pinned, "r", rng.integers(1, len(observables) + 1), len(observables))
    return evaluate_ur(ur_id, observables, states, **extras)


def random_instances(ur_id: str, size: int, dims, seed: int):
    """Labeled (observables, states) draws shaped for the named check,
    reusable across checks with the same signature."""
    if ur_id not in UR_SPECS:
        raise InputError(f"no generic instance generator for {ur_id!r}")
    size = as_integer(size, "size", 1)
    rng = stream_rng(seed, f"instances:{ur_id}")
    dims = list(dims)
    out = []
    for k in range(size):
        dim, observables, states, _ = _draw(ur_id, rng, dims, {})
        out.append((f"{ur_id}[{k}] dim={dim}", observables, states))
    return out


def coherent_pair_grid(dim: int = 64, extent: float = 2.0, points: int = 5):
    """All unordered pairs of coherent states on a complex grid, with X = p.

    The grid covers Re(alpha), Im(alpha) in [-extent, extent] with `points`
    samples per axis; this family separates the two one-observable two-state
    checks in both directions of the relative-defect ordering.
    """
    _, p = fock_operators(dim)
    extent, points = as_real(extent, "extent"), as_integer(points, "points", 1)
    axis = np.linspace(-extent, extent, points)
    alphas = [complex(x, y) for x in axis for y in axis]
    states = [coherent_state(a, dim) for a in alphas]
    out = []
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            label = f"alpha1={alphas[i]:.2f} alpha2={alphas[j]:.2f}"
            out.append((label, (p,), (states[i], states[j])))
    return out
