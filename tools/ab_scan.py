"""In-process A/B of the validity scan: urlab at a git ref against the working tree.

    python3 tools/ab_scan.py --ref HEAD~1 --seeds 11 12 13 --rounds 20 --size 100
    python3 tools/ab_scan.py --ids char_gap_entangled char_gap_superadditive

Run from anywhere inside a urlab checkout. The script exports ``src/urlab``
at ``--ref`` into a temporary directory under the package name ``urlab_ref``
(the package imports itself only relatively), imports it next to the working
tree's ``urlab``, and runs rounds of ``scan_report`` at dims 2-12 over the
checks ``--ids`` names, by default the scan's default checks. A change that
touches only some checks times only those, so their cost is not diluted by
the others'. In each round every check draws ``--size`` instances from the
same generator state under both versions, the version that goes first
alternating per round, so a slow spell of a shared machine falls on both.
It asserts that both versions' reports serialise to the same JSON bytes and
prints, per seed, each version's mean cost per instance and their ratio
(working tree over ref; below 1 is faster).

Scan throughput in separate benchmark processes is bimodal on small shared
machines (runs of one commit cluster near two levels), so interleaving both
versions in one process resolves a difference that pairs of benchmark runs
cannot.
"""

import os

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REF_NAME = "urlab_ref"
DIMS = range(2, 13)


def import_ref(ref: str, dest: Path):
    """Import ``src/urlab`` as it is at git ``ref``, under the name REF_NAME."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src/urlab"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    (dest / "src" / "urlab").rename(dest / REF_NAME)
    sys.path.insert(0, str(dest))
    return importlib.import_module(f"{REF_NAME}.ensembles")


def timed_reports(ensembles, ur_id: str, seed: int, label: str, size: int):
    """(seconds, JSON of each report) for `size` instances of one check."""
    rng = ensembles.stream_rng(seed, label)
    t0 = time.perf_counter()
    reports = [ensembles.scan_report(ur_id, rng, DIMS) for _ in range(size)]
    elapsed = time.perf_counter() - t0
    return elapsed, [json.dumps(r.as_dict()) for r in reports]


def ab_seed(versions: dict, ur_ids, seed: int, rounds: int, size: int) -> dict:
    """Total seconds per version over all rounds of one seed, and the
    instance count; raises AssertionError on the first differing report."""
    seconds = dict.fromkeys(versions, 0.0)
    for k in range(rounds):
        order = list(versions) if k % 2 == 0 else list(reversed(versions))
        for ur_id in ur_ids:
            label = f"ab:{ur_id}:{k}"
            out = {}
            for name in order:
                elapsed, out[name] = timed_reports(versions[name], ur_id, seed, label, size)
                seconds[name] += elapsed
            assert out["ref"] == out["tree"], f"seed {seed}, round {k}: {ur_id} reports differ"
    return {"seconds": seconds, "instances": rounds * len(ur_ids) * size}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", default="HEAD", help="git ref to compare against (default HEAD)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--rounds", type=int, default=10, help="alternating rounds per seed")
    ap.add_argument("--size", type=int, default=100, help="instances per check per round")
    ap.add_argument("--ids", nargs="+", help="check ids to time (default: DEFAULT_SCAN_URS)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        ref = import_ref(args.ref, Path(tmp))
        sys.path.insert(0, str(ROOT / "src"))
        tree = importlib.import_module("urlab.ensembles")
        versions = {"ref": ref, "tree": tree}
        ur_ids = args.ids or ref.DEFAULT_SCAN_URS
        ratios = []
        print(f"{'seed':>6} {'ref us/inst':>12} {'tree us/inst':>13} {'ratio':>7}")
        for seed in args.seeds:
            res = ab_seed(versions, ur_ids, seed, args.rounds, args.size)
            per = {k: 1e6 * s / res["instances"] for k, s in res["seconds"].items()}
            ratios.append(per["tree"] / per["ref"])
            print(f"{seed:>6} {per['ref']:>12.1f} {per['tree']:>13.1f} {ratios[-1]:>7.3f}")
        print(f"reports identical; cost ratio tree/ref median {statistics.median(ratios):.3f}, "
              f"range {min(ratios):.3f}-{max(ratios):.3f} over {len(ratios)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
