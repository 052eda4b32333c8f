"""Alternating parent/change benchmark pairs, and the band-storage probe.

Pairs: runs ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0``
in two source checkouts, one pair per seed, the change first in even pairs
and the parent first in odd ones, deleting every ``__pycache__`` before each
run so that each starts as a fresh checkout does. It keeps each run's
metrics and in-process slot medians (from ``.perfbench/``) and prints, per
metric, each side's median and quartiles and the pairs the change won:

    python3 tools/bench_pairs.py pairs PARENT CHANGE stream 24001 24002 ... > stream.json

Probe: in each checkout, the stream workload's four K=33, N=2^16 banks (set
up as its ``setup`` does, boundaries from ``numpy.random.default_rng(seed)``):
each sampled bank's band-storage bytes, and the median and minimum over
REPEATS passes over its dual's ``_layout()``, in ms. It runs ROUNDS fresh
processes per checkout, alternating which goes first, and reports each
round, the median over rounds and the fastest pass of all:

    python3 tools/bench_pairs.py probe PARENT CHANGE --seed 24000 > probe.json

Checkouts are processed one at a time and nothing runs in parallel.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("ops_per_s", "op_s_p50", "op_s_p90", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"ops_per_s"}
REPEATS, ROUNDS = 15, 6

PROBE = r"""
import json, statistics, sys, time
import numpy as np
sys.path[:0] = ["src", "perfbench"]
import workloads

seed, repeats = int(sys.argv[1]), int(sys.argv[2])
stream = workloads.Stream(False)
banks = stream.setup(stream.inputs(np.random.default_rng(seed), None))
out = {}
for family, (bank, dual) in zip(stream.families, banks):
    values = next(bank._layout())[1][0]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _band, parts, _zero in dual._layout():
            pass
        times.append(time.perf_counter() - t0)
    out[family] = {
        "band_storage_mb": (values.base if values.base is not None else values).nbytes / 1e6,
        "band_dtype": str(values.dtype),
        "dual_layout_ms_median": 1e3 * statistics.median(times),
        "dual_layout_ms_min": 1e3 * min(times),
    }
print(json.dumps(out))
"""


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def run_benchmark(checkout: Path, workload: str, seed: int) -> dict:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "25", "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
        "slot_median_s": record["slot_median_s"],
    }


def pairs(parent: Path, change: Path, workload: str, seeds) -> dict:
    runs = {"parent": [], "change": []}
    order = []
    for i, seed in enumerate(seeds):
        sides = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        order.append(sides[0])
        for side in sides:
            runs[side].append(run_benchmark(parent if side == "parent" else change, workload, seed))
            print(workload, seed, side, runs[side][-1]["metrics"], file=sys.stderr)
    summary = {}
    for name in METRICS:
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        better = (lambda x, y: x > y) if name in HIGHER_IS_BETTER else (lambda x, y: x < y)
        summary[name] = {
            "parent": quartiles(a),
            "change": quartiles(b),
            "change_vs_parent": statistics.median(b) / statistics.median(a) - 1.0,
            "change_wins": sum(better(y, x) for x, y in zip(a, b)),
            "parent_runs": a,
            "change_runs": b,
        }
    slots = sorted(runs["parent"][0]["slot_median_s"], key=lambda s: (len(s), s))
    return {
        "workload": workload,
        "seeds": list(seeds),
        "first": order,
        "all_correct": all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side),
        "metrics": summary,
        "slot_median_s": {
            side: {slot: statistics.median(r["slot_median_s"][slot] for r in side_runs) for slot in slots}
            for side, side_runs in runs.items()
        },
    }


def probe(parent: Path, change: Path, seed: int) -> dict:
    rows = {"parent": [], "change": []}
    for i in range(ROUNDS):
        sides = (("change", change), ("parent", parent))
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            done = subprocess.run([sys.executable, "-c", PROBE, str(seed), str(REPEATS)],
                                  cwd=checkout, capture_output=True, text=True, check=True)
            rows[side].append(json.loads(done.stdout))
    out = {"seed": seed, "repeats": REPEATS, "rounds": ROUNDS}
    for side, runs in rows.items():
        out[side] = {
            family: {
                "band_storage_mb": runs[0][family]["band_storage_mb"],
                "band_dtype": runs[0][family]["band_dtype"],
                "dual_layout_ms_median": statistics.median(r[family]["dual_layout_ms_median"] for r in runs),
                "dual_layout_ms_min": min(r[family]["dual_layout_ms_min"] for r in runs),
                "dual_layout_ms_median_by_round": [r[family]["dual_layout_ms_median"] for r in runs],
            }
            for family in runs[0]
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("workload", choices=("stream", "design", "cli"))
    p.add_argument("seeds", type=int, nargs="+")
    q = sub.add_parser("probe")
    q.add_argument("parent", type=Path)
    q.add_argument("change", type=Path)
    q.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.command == "pairs":
        result = pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.seeds)
    else:
        result = probe(args.parent.resolve(), args.change.resolve(), args.seed)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
