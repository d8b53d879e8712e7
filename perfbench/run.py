"""Run one urlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 30 --trace 0

Run from the root of a urlab checkout; the package is imported from its
``src`` directory. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). The exit code is 0 only when every operation succeeded
and passed its correctness check.
"""

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one
# single-threaded caller, and thread counts must match across machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("scan-small", "gaussian-minimize", "check-large")
# Set-up probes run half before and half after the measured loop, so a slow
# spell of a shared machine at either end moves their median less.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
RATE_CHUNKS = 10


def _import_paths() -> None:
    if not (SRC / "urlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no urlab sources under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy loaded, read from the
    library itself where it exports a query."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if cfg:
        info["blas"] = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }
    env.update(blas_info())
    return env


def setup_probe(workload: str, workdir: str) -> None:
    """Child-process body: import urlab cold and make one warm-up call."""
    t0 = time.perf_counter()
    import urlab  # noqa: F401

    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload].warmup(workdir)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, workdir: str, probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
             "--workdir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Closed loop over a workload's operations: one caller, next operation
    only after the previous one returned and was checked."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.durations: list[float] = []
        self.failures: list[str] = []

    def _harness(self):
        return self.tracer.suspended() if self.tracer else nullcontext()

    def step(self) -> None:
        with self._harness():
            op = self.workload.next_op()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a failed operation is counted, and the loop goes on
            self.durations.append(time.perf_counter() - t0)
            self.failures.append(traceback.format_exc(limit=3))
            return
        self.durations.append(time.perf_counter() - t0)
        with self._harness():
            try:
                problem = op.verify(result)
            except Exception:
                problem = traceback.format_exc(limit=3)
        if problem:
            self.failures.append(problem)

    def run_for(self, seconds: float, min_ops: int = 0) -> None:
        period = self.workload.period
        t_end = time.perf_counter() + seconds
        while (time.perf_counter() < t_end or len(self.durations) < min_ops
               or len(self.durations) % period):
            self.step()

    def run_count(self, count: int) -> None:
        for _ in range(count):
            self.step()


def rate(durations: list[float], period: int) -> float:
    """Median over ten chunks of whole periods of (operations / busy time);
    the median keeps a short stall on a shared machine out of the figure."""
    n_periods = len(durations) // period
    size = max(1, n_periods // RATE_CHUNKS) * period
    rates = [size / sum(durations[i:i + size])
             for i in range(0, n_periods * period - size + 1, size)]
    return statistics.median(rates)


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# Per-workload names of the end-to-end metrics, printed beside the
# workload-neutral names the result line uses.
WORKLOAD_METRIC_NAMES = {
    "scan-small": {"ops_per_s": "scan.instances_per_s"},
    "gaussian-minimize": {"ops_per_s": "minimize.calls_per_s"},
    "check-large": {"ops_per_s": "check.requests_per_s", "latency_p50_ms": "check.latency_p50_ms",
                    "latency_p90_ms": "check.latency_p90_ms"},
}


def untraced_run(wl_cls, seed: int, seconds: float, workdir: str) -> tuple[dict, Loop]:
    setup = measure_setup(wl_cls.name, workdir, SETUP_PROBES // 2)
    wl = wl_cls(seed, workdir)
    wl_cls.warmup(workdir)
    loop = Loop(wl)
    loop.run_for(seconds, wl_cls.min_ops)
    setup += measure_setup(wl_cls.name, workdir, SETUP_PROBES - SETUP_PROBES // 2)
    d = loop.durations
    p50 = statistics.median(d)
    p90, beyond = percentile(d, 0.9)
    metrics = {
        "ops_per_s": (rate(d, wl.period), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"samples: {len(d)} operations, {beyond} above p90; set-up probes (s): "
          + " ".join(f"{t:.4f}" for t in setup))
    if wl_cls.name == "gaussian-minimize":
        print(f"minimize.call_s_p50 = {p50:.6f} s")
    for name, alias in WORKLOAD_METRIC_NAMES[wl_cls.name].items():
        value, unit = metrics[name]
        print(f"{alias} = {value:.6g} {unit}")
    print("properties: " + json.dumps(wl.properties()))
    wl.close()
    return metrics, loop


def traced_run(wl_cls, seed: int, seconds: float, workdir: str) -> tuple[dict, Loop]:
    """Trace half of ``seconds`` of the workload, then replay the same
    operations untraced; the wall-time difference is the tracing overhead."""
    from perfbench.trace import Tracer

    wl_cls.warmup(workdir)
    tracer = Tracer()
    wl = wl_cls(seed, workdir)
    loop = Loop(wl, tracer)
    tracer.install()
    try:
        with tracer.root():
            loop.run_for(seconds / 2)
    finally:
        tracer.uninstall()
    props = wl.properties(tracer)
    wl.close()

    replay_wl = wl_cls(seed, workdir)
    replay = Loop(replay_wl)
    t0 = time.perf_counter()
    replay.run_count(len(loop.durations))
    untraced_wall = time.perf_counter() - t0
    replay_wl.close()
    loop.failures += replay.failures

    metrics = tracer.metrics()
    metrics["trace.ops"] = (len(loop.durations), "count")
    metrics["trace.wall_s"] = (tracer.wall_s, "s")
    metrics["trace.overhead_s"] = (tracer.wall_s - untraced_wall, "s")
    total_self = sum(tracer.self_s.values())
    print(f"traced wall {tracer.wall_s:.4f} s, untraced replay {untraced_wall:.4f} s, "
          f"self times sum to {total_self:.4f} s over {len(loop.durations)} operations")
    print("calls per function: " + json.dumps(dict(sorted(tracer.fn_calls.items()))))
    print("properties: " + json.dumps(props))
    return metrics, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_paths()

    if args.setup_probe:
        setup_probe(args.setup_probe, args.workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import urlab

    if Path(urlab.__file__).resolve().parent != SRC / "urlab":
        raise SystemExit(f"perfbench: imported urlab from {urlab.__file__}, not {SRC}")
    from perfbench.workloads import WORKLOADS

    env = environment(args.seed)
    print(f"workload: {args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, loop = run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(loop.durations) * (2 if args.trace else 1)
    failed = len(loop.failures)
    print(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in loop.failures[:5]:
        print("failure: " + problem.strip().replace("\n", " | "), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
