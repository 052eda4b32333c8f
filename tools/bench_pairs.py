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

Large-N CLI probe: ``forward --raw``, ``inverse`` (CSV out) and ``roundtrip
--raw`` at N=2^20, and ``filters`` and ``roundtrip`` (a ``re,im`` CSV signal)
at N=2^18, on Littlewood-Paley Vstar partitions with K=33 and K=17
supports. Every job is one fresh process, the change first in even rounds
and the parent first in odd ones. A wrapper calls ``cews.cli.main`` and at
exit writes the job's own ``VmHWM`` from ``/proc/self/status``
(``RUSAGE_CHILDREN`` would report this process's peak instead); wall time
is measured around the process. Inputs and outputs live
in a temporary directory, and jobs write no bytecode. It prints, per
command, each side's quartiles, the change's median over the parent's, and
whether every job wrote the same bytes. ``--tiny`` runs N=2^10 and 2^8, a
smoke test of the probe:

    python3 tools/bench_pairs.py cli-large PARENT CHANGE --rounds 3 > cli_large.json

Checkouts are processed one at a time and nothing runs in parallel.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

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


JOB = r"""
import sys
sys.path.insert(0, "src")
from cews.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w") as side:
        side.write(str(peak_kb))
sys.exit(code)
"""


def lp_vstar(n_supports: int, n_samples: int) -> dict:
    """A Littlewood-Paley Vstar config: K - 1 evenly spaced finite boundaries
    in [-3, 3], an even count, so none is 0."""
    step = 6.0 / (n_supports - 2)
    inner = [-3.0 + i * step for i in range(n_supports - 1)]
    return {"mode": "Vstar", "boundaries": ["-inf", *inner, "+inf"],
            "family": "littlewood-paley", "n_samples": n_samples}


def cli_jobs(work: Path, large: int, filters_n: int) -> dict:
    """Write the probe's configs, raw signal and CSV signal into ``work``;
    the command lines of its five jobs, each writing to ``{out}``."""
    (work / "k33.json").write_text(json.dumps(lp_vstar(33, large)))
    (work / "k17.json").write_text(json.dumps(lp_vstar(17, filters_n)))
    rng = np.random.default_rng(28)
    rng.standard_normal(2 * large).astype("<f8").tofile(work / "x.raw")
    samples = rng.standard_normal((filters_n, 2)).tolist()
    (work / "x.csv").write_text("re,im\n" + "".join(f"{re!r},{im!r}\n" for re, im in samples))
    k33, k17, raw, csv = (str(work / name) for name in ("k33.json", "k17.json", "x.raw", "x.csv"))
    return {
        "forward --raw": ["forward", "--config", k33, "--signal", raw, "--raw", "--out", "{out}"],
        "inverse": ["inverse", "--config", k33, "--coef", str(work / "x.ewtc"), "--out", "{out}"],
        "roundtrip --raw": ["roundtrip", "--config", k33, "--signal", raw, "--raw"],
        "filters": ["filters", "--config", k17, "--out", "{out}"],
        "roundtrip": ["roundtrip", "--config", k17, "--signal", csv],
    }


def run_job(checkout: Path, argv, out: Path) -> dict:
    """One job in a fresh process: its wall time, its own peak RSS, and the
    SHA-256 of what it wrote (its output file, else its stdout)."""
    side, writes = out.with_suffix(".vmhwm"), "{out}" in argv
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [str(out) if a == "{out}" else a for a in argv]
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", JOB, str(side), *argv], cwd=checkout,
                          env=env, capture_output=True, check=True)
    wall = time.perf_counter() - t0
    written = out.read_bytes() if writes else done.stdout
    return {"wall_s": wall, "vmhwm_mb": int(side.read_text()) / 1024.0,
            "sha256": hashlib.sha256(written).hexdigest()}


def cli_large(parent: Path, change: Path, rounds: int, tiny: bool) -> dict:
    large, filters_n = (2**10, 2**8) if tiny else (2**20, 2**18)
    with tempfile.TemporaryDirectory(prefix="cli-large-") as tmp:
        work = Path(tmp)
        jobs = cli_jobs(work, large, filters_n)
        # the coefficients that ``inverse`` reads, written once by the change
        run_job(change, jobs["forward --raw"], work / "x.ewtc")
        runs = {name: {"parent": [], "change": []} for name in jobs}
        for i in range(rounds):
            sides = (("change", change), ("parent", parent))
            for name, argv in jobs.items():
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    out = work / f"{side}.out"
                    out.unlink(missing_ok=True)
                    runs[name][side].append(run_job(checkout, argv, out))
                    print(name, side, runs[name][side][-1], file=sys.stderr)
    summary = {}
    for name, by_side in runs.items():
        summary[name] = {
            side: {
                "wall_s": quartiles([r["wall_s"] for r in results]),
                "vmhwm_mb": quartiles([r["vmhwm_mb"] for r in results]),
                "wall_s_runs": [r["wall_s"] for r in results],
                "vmhwm_mb_runs": [r["vmhwm_mb"] for r in results],
            }
            for side, results in by_side.items()
        }
        for metric in ("wall_s", "vmhwm_mb"):
            a, b = (summary[name][side][metric]["median"] for side in ("parent", "change"))
            summary[name][f"{metric}_change_vs_parent"] = b / a - 1.0
        summary[name]["same_output"] = len({r["sha256"] for rs in by_side.values() for r in rs}) == 1
    return {"n_samples": large, "filters_n_samples": filters_n, "rounds": rounds,
            "first": ["change" if i % 2 == 0 else "parent" for i in range(rounds)],
            "commands": summary}


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
    c = sub.add_parser("cli-large")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    c.add_argument("--rounds", type=int, default=3)
    c.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "pairs":
        result = pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.seeds)
    elif args.command == "probe":
        result = probe(args.parent.resolve(), args.change.resolve(), args.seed)
    else:
        result = cli_large(args.parent.resolve(), args.change.resolve(), args.rounds, args.tiny)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
