"""Set-up probe: makes a workload's inputs, runs its set-up, and exits.

    python3 perfbench/probe.py stream 1 [--tiny]

Prints ``ready <seconds spent making inputs>`` as soon as the workload could
issue its first op. ``run.py`` times the probe from launch to that line and
subtracts the input making, which leaves interpreter start-up, ``import cews``
and the workload's own set-up. Nothing of the harness is imported first.
"""

import sys
import time

import workloads


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name](tiny="--tiny" in sys.argv[3:])
    t0 = time.perf_counter()
    import tempfile  # the folder holds the benchmark's inputs, so it counts as input making

    with tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as folder:
        inputs = workload.inputs(workloads.rng_for(seed, 0), workloads.Path(folder))
        made = time.perf_counter() - t0
        workload.setup(inputs)
        print(f"ready {made!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
