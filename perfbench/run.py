"""Benchmark entry point for cews.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, both modes
    python3 perfbench/run.py --workload all --tiny            # smoke run, tiny N, one cycle

Run from the root of a source checkout; cews is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. It prints every metric by name with its
unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of a run (versions,
machine, inputs, sample counts, output digests) goes to
``.perfbench/<workload>-seed<seed>-trace<mode>.json``.

This file uses only the standard library; the workloads run in child
processes with the BLAS thread variables set to 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream", "design", "cli")
SETUP_PROBES = {"stream": 12, "design": 20, "cli": 20}  # half before, half after the ops
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def tiny_flag(tiny):
    return ["--tiny"] if tiny else []


def setup_probes(workload, seed, tiny, env, count):
    """Wall times from launching a fresh interpreter until the workload could
    issue its first op, less the probe's own input making. One uncounted
    probe first, so that every counted one finds compiled bytecode."""
    samples = []
    for i in range(1 if tiny else count + 1):
        t0 = time.perf_counter()
        argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), *tiny_flag(tiny)]
        with subprocess.Popen(argv,
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                t1 = time.perf_counter()
                code = child.wait(timeout=120)
            except BaseException:
                child.kill()
                raise
        if code != 0 or not line.startswith("ready "):
            raise BenchError(f"{workload} set-up probe failed")
        if tiny or i > 0:
            samples.append(t1 - t0 - float(line.split()[1]))
    return samples


def run_worker(workload, seed, seconds, trace, tiny, env, spans):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--spans", str(spans), *tiny_flag(tiny)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout, or None where it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload, seed, seconds, trace, tiny):
    env = child_env()
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    # set-up is probed on both sides of the ops, so that one stretch of
    # contention on the machine cannot move the whole median
    half = SETUP_PROBES[workload] // 2
    samples = [] if trace else setup_probes(workload, seed, tiny, env, half)
    result = run_worker(workload, seed, seconds, trace, tiny, env, out / f"{stem}-spans.json")
    record = result.pop("record")
    metrics = result["metrics"]
    if not trace:
        if not tiny:
            samples += setup_probes(workload, seed, tiny, env, half)
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        record["counts"]["setup_s_samples"] = len(samples)
        record["setup_s_samples"] = samples
    declared = declared_metrics(trace)
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise BenchError(f"{workload} reported {sorted(metrics)}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    result["correct"] = result["failed"] == 0
    record.update({
        "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_sha": git_sha(), "attempted": result["attempted"], "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"], "metrics": result["metrics"],
    })
    (out / f"{stem}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    for name, metric in result["metrics"].items():
        print(f"{workload:7s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{workload:7s} {'error_rate':40s} {record['error_rate']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops failed)")
    for failure in record["failures"]:
        print(f"{workload:7s} failure: {failure}", file=sys.stderr)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="cews benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one cycle per workload, for smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cews" / "__init__.py").is_file():
        print(f"no cews sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
        else:
            results = {
                f"{w}/trace{t}": run_one(w, args.seed, args.seconds, t, args.tiny)
                for w in WORKLOADS for t in (0, 1)
            }
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{key}/{name}": m for key, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
