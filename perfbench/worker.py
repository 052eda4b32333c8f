"""Worker process of the benchmark: times one workload's ops.

    python3 perfbench/worker.py --workload stream --seed 1 --seconds 25 --trace 0

Launched by ``run.py`` with the BLAS thread variables set to 1; prints one
JSON line with the run's metrics, counts and record.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

import cews
import cews.cli
import cews.io

from tracer import Tracer
from workloads import ROOT, SCRATCH, WORKLOADS, closed_loop, rng_for

MIN_OPS = 100  # so that op_s_p90 has at least ten samples beyond it


def ops_per_s(by_slot):
    """Ops of a cycle over the time of a cycle, taking each slot at its
    median. Every cycle holds the same slots, and the medians keep a burst of
    contention from the machine's other tenants, which can slow memory-bound
    ops twofold for a second, from moving the figure."""
    return len(by_slot) / sum(statistics.median(t) for t in by_slot.values())


def percentiles(times):
    if len(times) == 1:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


# -- traced run ---------------------------------------------------------------------------


def _bank_attrs(args, kwargs, bank):
    k, n = bank.spectra.shape
    return {"bank_bytes": k * n * 16, "nonzero": int(np.count_nonzero(bank.spectra)), "cells": k * n}


def trace_targets():
    """(span name, places, attrs) for every public name the workloads and
    cews.cli call."""
    both = lambda name, other: [(cews, name), (other, name)]
    reads = lambda args, kwargs, result: {"bytes_in": os.path.getsize(args[0])}
    writes = lambda args, kwargs, result: {"bytes_out": os.path.getsize(args[0])}
    targets = [
        ("families.sample_bank", both("sample_bank", cews.io), _bank_attrs),
        ("partition.build_partition", both("build_partition", cews.io), None),
        ("spectral.FrequencyGrid", both("FrequencyGrid", cews.io), None),
        ("transform.forward", both("forward", cews.cli), None),
        ("transform.inverse", both("inverse", cews.cli), None),
        ("transform.inverse_tight", both("inverse_tight", cews.cli), None),
        ("transform.dual_bank", both("dual_bank", cews.cli),
         lambda a, k, dual: {"singular_bins": len(dual.singular_bins)}),
        ("frame_analysis.frame_report", both("frame_report", cews.cli), None),
        ("io.load_config", [(cews.io, "load_config")], reads),
        ("io.realize_bank", [(cews.io, "realize_bank")], None),
        ("io.read_signal_csv", [(cews.io, "read_signal_csv")], reads),
        ("io.read_signal_raw", [(cews.io, "read_signal_raw")], reads),
        ("io.read_coefficients", [(cews.io, "read_coefficients")], reads),
        ("io.write_signal_csv", [(cews.io, "write_signal_csv")], writes),
        ("io.write_coefficients", [(cews.io, "write_coefficients")], writes),
    ]
    for command in ("filters", "forward", "inverse", "roundtrip", "frame"):
        targets.append((f"cli.{command}", [(cews.cli, f"cmd_{command}")], None))
    return targets


def layer_metrics(timing, memory, untraced_ops_per_s, traced_ops_per_s, startup_s):
    """Every per-layer metric of BENCHMARK.json from the timing and the
    tracemalloc pass; layers a workload does not reach read 0."""
    rows = timing.summary()
    get = lambda span, key: rows.get(span, {}).get(key, 0)
    peaks = memory.summary()
    m = {}
    for span in ("families.sample_bank", "transform.forward", "transform.inverse",
                 "transform.inverse_tight", "transform.dual_bank",
                 "frame_analysis.frame_report"):
        m[f"{span}.calls"] = (get(span, "calls"), "count")
        m[f"{span}.busy_s"] = (get(span, "busy_s"), "s")
        m[f"{span}.peak_alloc_mb"] = (peaks.get(span, {}).get("peak_alloc_mb", 0.0), "MB")
    m["transform.dual_bank.singular_bins"] = (get("transform.dual_bank", "singular_bins"), "count")
    sampled = [s[6] for s in timing.spans if s[0] == "families.sample_bank"]
    cells = get("families.sample_bank", "cells")
    m["families.bank_bytes"] = (max((a["bank_bytes"] for a in sampled), default=0), "B")
    m["families.bank_cells"] = (cells, "count")
    m["families.bank_nonzero_fraction"] = (
        get("families.sample_bank", "nonzero") / cells if cells else 0.0, "ratio")
    m["partition.build_partition.busy_s"] = (get("partition.build_partition", "busy_s"), "s")
    m["spectral.FrequencyGrid.busy_s"] = (get("spectral.FrequencyGrid", "busy_s"), "s")
    for name in ("load_config", "realize_bank", "read_signal_csv", "read_signal_raw",
                 "read_coefficients", "write_signal_csv", "write_coefficients"):
        m[f"io.{name}.busy_s"] = (get(f"io.{name}", "busy_s"), "s")
    for name in ("load_config", "read_signal_csv", "read_signal_raw", "read_coefficients"):
        m[f"io.{name}.bytes_in"] = (get(f"io.{name}", "bytes_in"), "B")
    for name in ("write_signal_csv", "write_coefficients"):
        m[f"io.{name}.bytes_out"] = (get(f"io.{name}", "bytes_out"), "B")
    m["io.realize_bank.self_s"] = (get("io.realize_bank", "self_s"), "s")
    for command in ("filters", "forward", "inverse", "roundtrip", "frame"):
        m[f"cli.{command}.self_s"] = (get(f"cli.{command}", "self_s"), "s")
    m["cli.startup_s"] = (startup_s, "s")
    m["trace.overhead_fraction"] = (1.0 - traced_ops_per_s / untraced_ops_per_s, "ratio")
    return m


def traced_run(workload, inputs, seed, seconds, spans_path):
    """Three passes of a third of ``seconds`` each, whole cycles, at least
    one: untraced, with timing spans, and with tracemalloc spans for the
    peak allocations. Every pass runs in this process (cli calls
    cews.cli.main), and each traced pass repeats the workload's set-up inside
    its spans. A process-per-job workload adds one cycle of job processes to
    measure their start-up."""
    third = seconds / 3.0
    state = workload.setup(inputs)
    plain, plain_slots, failures = closed_loop(
        workload.ops(state, rng_for(seed, 2), in_process=True), third, 1)
    startup, jobs, failed = workload.startup(state, rng_for(seed, 2), plain_slots)
    failures += failed
    passes = []
    for memory in (False, True):
        tracer = Tracer(memory)
        with tracer.patched(trace_targets()):
            state = workload.setup(inputs)
            times, slots, failed = closed_loop(
                workload.ops(state, rng_for(seed, 3 + memory), in_process=True), third, 1, tracer)
        failures += failed
        passes.append((tracer, times, slots))
    (timing, timed, timed_slots), (memory, mem_times, _) = passes
    Path(spans_path).write_text(json.dumps({"timing": timing.dump(), "memory": memory.dump()}))
    metrics = layer_metrics(timing, memory, ops_per_s(plain_slots), ops_per_s(timed_slots), startup)
    counts = {"untraced_ops": len(plain), "timing_ops": len(timed), "memory_ops": len(mem_times),
              "startup_jobs": len(jobs), "spans": len(timing.spans) + len(memory.spans)}
    return metrics, counts, plain + jobs + timed + mem_times, failures


def work(workload, seed, seconds, traced, tiny, spans_path):
    # a tiny run is one cycle
    seconds, min_ops = (0.0, 1) if tiny else (seconds, MIN_OPS)
    SCRATCH.mkdir(exist_ok=True)
    extra = {}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as folder:
        inputs = workload.inputs(rng_for(seed, 0), Path(folder))
        if traced:
            metrics, counts, times, failures = traced_run(workload, inputs, seed, seconds, spans_path)
        else:
            state = workload.setup(inputs)
            times, by_slot, failures = closed_loop(
                workload.ops(state, rng_for(seed, 2)), seconds, min_ops)
            p50, p90 = percentiles(times)
            metrics = {
                "ops_per_s": (ops_per_s(by_slot), "1/s"),
                "op_s_p50": (p50, "s"),
                "op_s_p90": (p90, "s"),
                "peak_rss_mb": (resource.getrusage(workload.rusage_who).ru_maxrss / 1024.0, "MB"),
            }
            counts = {"ops": len(times), "slots": len(by_slot),
                      "op_s_p50_samples": len(times), "op_s_p90_samples": len(times)}
            extra["slot_median_s"] = {slot: statistics.median(t) for slot, t in by_slot.items()}
    return {
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": {"workload": workload.describe(), "counts": counts,
                   "failures": failures[:20], **extra},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    source = Path(cews.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"cews was imported from {source}, not from {ROOT / 'src'}")
    result = work(WORKLOADS[args.workload](args.tiny), args.seed, args.seconds,
                  bool(args.trace), args.tiny, args.spans)
    result["record"]["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
