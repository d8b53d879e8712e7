"""The three benchmark workloads.

Each workload is a closed loop driven by one caller: ``next_op`` draws the
next operation's inputs from the seed (outside the timed region), the runner
times ``op.run()``, and ``op.verify`` checks the result. ``period`` is the
length of the repeating mix; a run always ends on a whole period so every
run carries the same mix.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from urlab import analysis, catalog, cli, ensembles, model, moments

from . import reference


class ScanSmall:
    """Criterion-3 validity scan: all default checks in turn, dims 2-12.

    ``scan_report`` draws each instance itself (half of the slots that accept
    mixed states get one), so instance generation is part of the timed work.
    """

    name = "scan-small"
    dims = tuple(range(2, 13))
    reference_rate = 0.1
    period = len(ensembles.DEFAULT_SCAN_URS)
    min_ops = 100

    def __init__(self, seed: int, workdir: str):
        self.lanes = [(ur, ensembles.stream_rng(seed, f"scan:{ur}"))
                      for ur in ensembles.DEFAULT_SCAN_URS]
        self.sampler = np.random.default_rng([seed, 101])
        self.count = 0
        self.mix: Counter = Counter()
        self.reference_checked = 0

    def next_op(self) -> "ScanOp":
        ur_id, rng = self.lanes[self.count % self.period]
        self.count += 1
        self.mix[ur_id] += 1
        replay = None
        if ur_id in reference.REFERENCE_IDS and self.sampler.random() < self.reference_rate:
            replay = rng.bit_generator.state
        return ScanOp(self, ur_id, rng, replay)

    @staticmethod
    def warmup(workdir: str) -> None:
        ensembles.scan_report("robertson", ensembles.stream_rng(0, "warmup"), [4])

    def properties(self, tracer=None) -> dict:
        props = {"check_mix": dict(self.mix), "reference_checked": self.reference_checked}
        if tracer is not None:
            dens = tracer.fn_calls["ensembles.rand_density"]
            pure = tracer.fn_calls["ensembles.rand_pure"]
            props["mixed_state_share"] = dens / (dens + pure) if dens + pure else 0.0
        return props

    def close(self) -> None:
        pass


@dataclass
class ScanOp:
    workload: ScanSmall
    ur_id: str
    rng: np.random.Generator
    replay: dict | None

    def run(self):
        return ensembles.scan_report(self.ur_id, self.rng, self.workload.dims)

    def verify(self, report) -> str | None:
        if not report.holds():
            return f"{self.ur_id}: slack {report.slack!r} violates the check"
        if self.replay is None:
            return None
        self.workload.reference_checked += 1
        return self._reference_mismatch(report)

    def _reference_mismatch(self, report) -> str | None:
        """Redraw the instance from the saved generator state, capture the
        observables and state handed to evaluate_ur, and compare against
        the plain-numpy reference."""
        rng = np.random.Generator(type(self.rng.bit_generator)())
        rng.bit_generator.state = self.replay
        captured = []
        evaluate = ensembles.evaluate_ur

        def capture(ur_id, observables, states, **extras):
            captured.append((tuple(observables), tuple(states)))
            return evaluate(ur_id, observables, states, **extras)

        ensembles.evaluate_ur = capture
        try:
            again = ensembles.scan_report(self.ur_id, rng, self.workload.dims)
        finally:
            ensembles.evaluate_ur = evaluate
        if again.slack != report.slack or len(captured) != 1:
            return f"{self.ur_id}: replayed instance differs from the timed one"
        observables, states = captured[0]
        ms = moments.moment_set(observables, states[0])
        return reference.mismatch(self.ur_id, observables, states[0], ms, report)


class GaussianMinimize:
    """Seeded minimize_slack calls at dim 64 over displaced squeezed states.

    Every case has a known minimum of 0, reached at coherent states. Each
    free slot starts at a seeded displacement with a small squeezing
    (0.05 <= |r| <= 0.3), so the start's slack is well above the gate's
    tolerance and the simplex has to descend to reach it. An operation runs
    descents with ``restarts=1`` (minimize_slack's vacuum start would already
    sit at slack 0): the first from the seeded start, each further one from
    the point where the previous one stopped, until one converges within the
    tolerance, at most ``max_descents`` in all. The library's simplex declares
    convergence early on about one in five of the 8-parameter
    ``entangled_heisenberg`` starts, and a restart from the claimed minimum
    can stall once more; restarting there is the usual remedy.
    """

    name = "gaussian-minimize"
    dim = 64
    cases = ("coherent_fixed", "extended_schrodinger", "entangled_heisenberg")
    budget = 800
    max_descents = 4
    slack_tol = 1e-6
    r_range = (0.05, 0.3)
    period = len(cases)
    # an operation takes about 0.3-1.5 s; p90 of a run still has several
    # samples above it
    min_ops = 30

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 102])
        self.observables = model.fock_operators(self.dim)
        self.count = 0
        self.descents = 0
        self.mix: Counter = Counter()

    def _alpha(self) -> complex:
        amag = math.sqrt(self.rng.uniform())
        aph = self.rng.uniform(0, 2 * math.pi)
        return complex(amag * math.cos(aph), amag * math.sin(aph))

    def _start(self, n_free: int) -> list[float]:
        x = []
        for _ in range(n_free):
            alpha = self._alpha()
            r = self.rng.uniform(*self.r_range) * self.rng.choice((-1, 1))
            x += [alpha.real, alpha.imag, r, self.rng.uniform(0, 2 * math.pi)]
        return x

    def next_op(self) -> "MinimizeOp":
        case = self.cases[self.count % self.period]
        self.count += 1
        self.mix[case] += 1
        kwargs = {}
        if case == "extended_schrodinger":
            kwargs["fixed_states"] = {0: model.coherent_state(self._alpha(), self.dim)}
            kwargs["free_slots"] = [1]
        n_free = 2 if case == "entangled_heisenberg" else 1
        return MinimizeOp(self, case, self._start(n_free), kwargs)

    @classmethod
    def warmup(cls, workdir: str) -> None:
        analysis.minimize_slack("coherent_fixed", model.fock_operators(cls.dim), cls.dim,
                                init=[0.3, -0.2, 0.2, 0.5], budget=40, restarts=1)

    def properties(self, tracer=None) -> dict:
        props = {"case_mix": dict(self.mix), "descents": self.descents}
        if tracer is not None:
            props["objective_calls"] = tracer.calls["analysis.objective"]
        return props

    def close(self) -> None:
        pass


@dataclass
class MinimizeOp:
    workload: GaussianMinimize
    case: str
    init: list[float]
    kwargs: dict

    def run(self):
        w = self.workload
        x = self.init
        for _ in range(w.max_descents):
            w.descents += 1
            result = analysis.minimize_slack(self.case, w.observables, w.dim, init=x,
                                             budget=w.budget, restarts=1, **self.kwargs)
            if self._reached(result):
                break
            x = [v for p in result.slots for v in (p.alpha.real, p.alpha.imag, p.r, p.phi)]
        return result

    def _reached(self, result) -> bool:
        return abs(result.slack) <= self.workload.slack_tol and result.converged

    def verify(self, result) -> str | None:
        if not self._reached(result):
            return (f"{self.case}: {self.workload.max_descents} descents ended at slack "
                    f"{result.slack!r} (converged={result.converged})")
        return None


# ---------------------------------------------------------------------------
# check-large


CANONICAL_PAIR = ("fock_q", "fock_p")


@dataclass(frozen=True)
class Template:
    """Shape of one request in the check-large mix: builder observable names
    or "raw" (a raw JSON matrix from the palette) per observable slot, and a
    builder or "raw_density" per state slot."""

    kind: str
    dim: int
    observables: tuple[str, ...]
    states: tuple[str, ...]


# One block of the mix, shuffled per block by the seed, which also picks
# state parameters, palette entries and checks but not the shapes, so every
# run carries the same cost mix. A raw-matrix request costs 5-50 times a
# builder request, so three of the ten carry raw matrices and they still take
# most of the request time. The shapes fall in cost classes (under 60 ms,
# about 115 ms, about 300 ms, about 850 ms at the time of writing); the
# median shape and the costliest shape appear twice, so the median and p90
# fall in the middle of one shape's spread, not on a boundary between shapes
# of different cost.
_FOCK_512 = Template("builder", 512, ("fock_q", "fock_p", "quad_plus"), ("fock_n",))
_RAW_256 = Template("raw", 256, ("fock_q", "fock_p"), ("raw_density",))
TEMPLATES = (
    Template("builder", 128, ("fock_q", "fock_p"), ("coherent", "squeezed")),
    Template("builder", 128, ("fock_q", "fock_p", "quad_mix"), ("squeezed",)),
    Template("builder", 256, ("quad_plus", "quad_mix"), ("squeezed",)),
    Template("builder", 256, ("fock_q",), ("fock_n", "coherent")),
    _FOCK_512,
    _FOCK_512,
    Template("builder", 512, ("fock_p",), ("squeezed", "coherent")),
    Template("raw", 128, ("raw", "raw"), ("coherent",)),
    _RAW_256,
    _RAW_256,
)
CHECKS_PER_REQUEST = 3


def eligible_checks(n_obs: int, n_states: int, pure: bool, canonical: bool) -> list[str]:
    """Check ids whose catalog signature accepts the request shape.

    cli check applies every listed check to the whole observable and state
    lists, so a request may only list checks whose (n_observables, n_states)
    signature accepts its shape."""
    out = []
    for ur_id, spec in catalog.UR_SPECS.items():
        obs_ok = spec.n_observables == n_obs or (spec.n_observables < 0 and n_obs >= 2)
        states_ok = spec.n_states == n_states or (spec.n_states < 0 and n_states >= 2)
        if not (obs_ok and states_ok) or (spec.pure_only and not pure):
            continue
        # coherent_fixed bounds the variance sum of a canonical pair by 1; its
        # premise [X, Y] = i fails for other observables.
        if ur_id == "coherent_fixed" and not canonical:
            continue
        out.append(ur_id)
    return out + list(ensembles.CHAR_GAP_IDS)


@dataclass
class CheckRequest:
    kind: str  # "builder" or "raw"
    dim: int
    urs: list
    observables: list[str]  # JSON fragments
    states: list[str]  # JSON fragments
    state_keys: tuple  # (dim, builder, params) per state

    def config_text(self) -> str:
        return (f'{{"urs": {json.dumps(self.urs)}, "hilbert_dim": {self.dim}, '
                f'"observables": [{", ".join(self.observables)}], '
                f'"states": [{", ".join(self.states)}]}}')


def _complex_json(m: np.ndarray) -> str:
    """A complex matrix as the CLI's JSON rows of [re, im] pairs."""
    return json.dumps(m.view(np.float64).reshape(*m.shape, 2).tolist())


class RequestStream:
    """Seeded, signature-consistent ``urlab check`` requests over TEMPLATES.

    States and raw matrices come from a finite seeded palette per dimension,
    so states repeat across requests while the combinations vary. Raw
    matrices are held as arrays and written as JSON only into the request
    that uses them, so the palette adds little to the process's peak memory.
    ``dim`` replaces every template's dimension (tests use the smallest).
    """

    palette_size = 4

    def __init__(self, seed: int, dim: int | None = None):
        self.rng = np.random.default_rng([seed, 103])
        self.templates = [t if dim is None else Template(t.kind, dim, t.observables, t.states)
                          for t in TEMPLATES]
        self.block: list[int] = []
        self.next_check = [int(self.rng.integers(1000)) for _ in self.templates]
        # (dim, kind) -> [(state key, builder JSON text or raw matrix)]
        self.palette: dict[tuple[int, str], list[tuple[tuple, object]]] = {}
        for t in self.templates:
            for kind in t.states:
                if (t.dim, kind) not in self.palette:
                    self.palette[t.dim, kind] = [self._state(t.dim, kind, i)
                                                 for i in range(self.palette_size)]
            if "raw" in t.observables and (t.dim, "raw_observable") not in self.palette:
                self.palette[t.dim, "raw_observable"] = [
                    ((t.dim, "raw_observable", i), self._raw_observable(t.dim))
                    for i in range(self.palette_size)]

    def _state(self, dim: int, kind: str, i: int) -> tuple[tuple, object]:
        rng = self.rng
        if kind == "raw_density":
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = (m + m.conj().T) / 2
            m /= np.trace(m).real
            return (dim, kind, i), m
        if kind == "fock_n":
            spec = {"builder": kind, "k": i}
        else:
            amag = (1.2 if kind == "coherent" else 0.8) * math.sqrt(rng.uniform())
            aph = rng.uniform(0, 2 * math.pi)
            spec = {"builder": kind,
                    "alpha": [round(amag * math.cos(aph), 6), round(amag * math.sin(aph), 6)]}
            if kind == "squeezed":
                spec["r"] = round(rng.uniform(-0.8, 0.8), 6)
                spec["phi"] = round(rng.uniform(0, 2 * math.pi), 6)
        text = json.dumps(spec)
        return (dim, kind, text), text

    def _raw_observable(self, dim: int) -> np.ndarray:
        g = self.rng.standard_normal((dim, dim)) + 1j * self.rng.standard_normal((dim, dim))
        return (g + g.conj().T) / (2 * math.sqrt(dim))

    @staticmethod
    def _json(key: tuple, entry) -> str:
        if isinstance(entry, str):
            return entry
        dim, kind, i = key
        name = f', "name": "R{i}"' if kind == "raw_observable" else ""
        return f'{{"builder": "{kind}"{name}, "matrix": {_complex_json(entry)}}}'

    def _pick_urs(self, slot: int, n_obs: int, n_states: int, pure: bool,
                  canonical: bool) -> list:
        """The next CHECKS_PER_REQUEST eligible checks for this template slot,
        taken in turn from a seeded starting point: each check then comes up
        equally often in every run, and which checks a run happens to draw
        does not move its figures."""
        ids = eligible_checks(n_obs, n_states, pure, canonical)
        k = min(len(ids), CHECKS_PER_REQUEST)
        start = self.next_check[slot]
        self.next_check[slot] = start + k
        urs = []
        for j in range(start, start + k):
            ur_id = ids[j % len(ids)]
            if ur_id == "characteristic":
                urs.append({"id": ur_id, "r": int(self.rng.integers(1, n_obs + 1))})
            elif ur_id in ensembles.CHAR_GAP_IDS:
                h_choice = ("robertson", "centered", "raw")[int(self.rng.integers(3))] \
                    if pure else "robertson"
                urs.append({"id": ur_id, "r": int(self.rng.integers(1, n_obs + 1)),
                            "h_choice": h_choice})
            else:
                urs.append(ur_id)
        return urs

    def __iter__(self):
        return self

    def __next__(self) -> CheckRequest:
        if not self.block:
            self.block = list(self.rng.permutation(len(self.templates)))
        slot = self.block.pop()
        t = self.templates[slot]
        observables = [json.dumps({"builder": b}) for b in t.observables if b != "raw"]
        n_raw = t.observables.count("raw")
        if n_raw:
            pool = self.palette[t.dim, "raw_observable"]
            observables += [self._json(*pool[i])
                            for i in self.rng.choice(len(pool), n_raw, replace=False)]
        picks = []
        for kind in t.states:
            pool = [p for p in self.palette[t.dim, kind] if all(p[0] != q[0] for q in picks)]
            picks.append(pool[int(self.rng.integers(len(pool)))])
        urs = self._pick_urs(slot, len(t.observables), len(t.states),
                             pure="raw_density" not in t.states,
                             canonical=t.observables == CANONICAL_PAIR)
        return CheckRequest(t.kind, t.dim, urs, observables,
                            [self._json(key, entry) for key, entry in picks],
                            tuple(key for key, _ in picks))


class CheckLarge:
    """In-process ``urlab check`` requests at dims 128-512 over TEMPLATES:
    seven in ten from builder states, three carrying raw JSON matrices."""

    name = "check-large"
    period = len(TEMPLATES)
    # p90 needs at least ten samples above it
    min_ops = 100

    def __init__(self, seed: int, workdir: str, dim: int | None = None):
        self.stream = RequestStream(seed, dim)
        self.config_path = os.path.join(workdir, "request.json")
        self.out_path = os.path.join(workdir, "report.json")
        self.seen_states: set = set()
        self.requests = 0
        self.repeated = 0
        self.dims: Counter = Counter()
        self.kinds: Counter = Counter()

    def next_op(self) -> "CheckOp":
        req = next(self.stream)
        self.requests += 1
        self.dims[req.dim] += 1
        self.kinds[req.kind] += 1
        if any(k in self.seen_states for k in req.state_keys):
            self.repeated += 1
        self.seen_states.update(req.state_keys)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(req.config_text())
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        # the op keeps no JSON text, so the harness adds little to the
        # request's peak memory
        return CheckOp(self, req.kind, req.dim, req.urs)

    @staticmethod
    def warmup(workdir: str) -> None:
        path = os.path.join(workdir, "warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"urs": ["schrodinger", "robertson"], "hilbert_dim": 128,
                       "observables": [{"builder": "fock_q"}, {"builder": "fock_p"}],
                       "states": [{"builder": "squeezed", "alpha": [0.3, 0.1], "r": 0.4}]}, fh)
        out = os.path.join(workdir, "warmup-report.json")
        code = cli.main(["check", "--config", path, "--out", out])
        if code != 0:
            raise RuntimeError(f"warm-up check exited {code}")

    def properties(self, tracer=None) -> dict:
        n = self.requests
        return {
            "requests": n,
            "state_repeat_share": self.repeated / n if n else 0.0,
            "dim_histogram": {str(d): c for d, c in sorted(self.dims.items())},
            "kind_mix": dict(self.kinds),
        }

    def close(self) -> None:
        for path in (self.config_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)


@dataclass
class CheckOp:
    workload: CheckLarge
    kind: str
    dim: int
    urs: list

    def run(self):
        w = self.workload
        return cli.main(["check", "--config", w.config_path, "--out", w.out_path])

    def verify(self, code) -> str | None:
        if code != 0:
            return f"{self.kind} request at dim {self.dim} {self.urs} exited {code}"
        with open(self.workload.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        summary = doc["summary"]
        if not summary["all_hold"] or summary["n_results"] != len(self.urs):
            return f"{self.kind} request at dim {self.dim}: summary {summary}"
        return None


WORKLOADS = {w.name: w for w in (ScanSmall, GaussianMinimize, CheckLarge)}
