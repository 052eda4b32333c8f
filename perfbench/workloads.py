"""The three workloads: their inputs, set-up, ops and output checks.

Imported by ``probe.py`` and ``worker.py``, never by cews. A workload makes
its inputs with a seeded generator (not timed), sets the program up (timed as
``setup_s``), then yields ops for a closed loop with one client: the next op
starts only after the previous one finished and was checked. An op is a
``(slot, run, check)`` triple: ``run`` is the timed call into cews, ``check``
returns None or a failure message. None is yielded after each cycle.

This module imports only what set-up needs, so that the set-up probe times
``import cews`` and the workload's own set-up and nothing of the harness.
What the cli jobs alone need is imported when they start.
"""

import resource
import struct
import time
from pathlib import Path

import numpy as np

import cews

import gen

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
LP, MEYER, SHANNON, GABOR = cews.FAMILIES
TOL = 1e-12


def rng_for(seed, stream):
    return np.random.default_rng([seed, stream])


# Littlewood-Paley is tight only while the transitions of neighbouring
# boundaries stay disjoint. max_gamma() ensures that everywhere except at the
# zero boundary of a V partition: its half-width is gamma * min(|neighbours|),
# which overlaps a neighbour's transition once gamma >= 1/2, yet max_gamma()
# caps only Vstar at 1/2. Taking the same cap in V mode keeps every LP bank
# tight; gamma moves no cost, since the banks are dense.
LP_GAMMA_CAP = 0.5


def family_params(family, partition):
    """FamilyParams for a family tag; 'gabor-local'/'gabor-extended' pick the
    Gabor ray option, Littlewood-Paley takes gamma = 0.9 * min(max_gamma, 1/2)."""
    if family == LP:
        return cews.FamilyParams(LP, gamma=0.9 * min(partition.max_gamma(), LP_GAMMA_CAP))
    if family.startswith(GABOR):
        return cews.FamilyParams(GABOR, gabor_rays=family.split("-")[1])
    return cews.FamilyParams(family)


class Workload:
    """The defaults suit a library workload whose ops run in this process."""

    rusage_who = resource.RUSAGE_SELF  # whose peak RSS is the run's

    def inputs(self, rng, folder):
        """What the benchmark makes before set-up; not timed."""
        return None

    def setup(self, inputs):
        """The program's own set-up before the first op; timed as setup_s.
        Returns the state the ops use."""
        return inputs

    def startup(self, state, rng, in_process_slots):
        """(seconds, op times, failures) of the start-up a job process pays
        on top of its in-process work; no process starts here."""
        return 0.0, [], []


def closed_loop(op_source, seconds, min_ops, tracer=None):
    """Run whole cycles of ops until ``seconds`` have passed and at least
    ``min_ops`` ops ran. Returns (per-op seconds, per-slot seconds, failure
    messages)."""
    times, by_slot, failures = [], {}, []
    start = time.perf_counter()
    for item in op_source:
        if item is None:
            if time.perf_counter() - start >= seconds and len(times) >= min_ops:
                break
            continue
        slot, run, check = item
        if tracer is not None:
            tracer.op = len(times)
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failed op is counted, the run goes on
            out, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        times.append(time.perf_counter() - t0)
        by_slot.setdefault(str(slot), []).append(times[-1])
        if problem is None:
            try:
                problem = check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        del out
        if problem:
            failures.append(problem)
    return times, by_slot, failures


# -- stream: analysis and synthesis on fixed banks ---------------------------------


class Stream(Workload):
    """Four fixed Vstar banks (one per family) and their duals are built in
    set-up; each op sends a fresh complex signal through forward and inverse.
    A cycle is five ops, LP twice (dual, then tight inverse with A = 1), so
    the median and p90 fall inside blocks of identical ops."""

    families = (LP, MEYER, SHANNON, "gabor-extended")
    cycle = ((0, False), (0, True), (1, False), (2, False), (3, False))

    def __init__(self, tiny):
        self.n = 512 if tiny else 2**16
        self.k = 9 if tiny else 33

    def describe(self):
        return {"N": self.n, "K": self.k, "mode": "Vstar", "families": list(self.families)}

    def inputs(self, rng, folder):
        return [gen.boundaries(rng, "Vstar", self.k) for _ in self.families]

    def setup(self, inputs):
        grid = cews.FrequencyGrid(self.n)
        banks = []
        for family, bounds in zip(self.families, inputs):
            partition = cews.build_partition("Vstar", bounds)
            bank = cews.sample_bank(partition, family_params(family, partition), grid)
            banks.append((bank, cews.dual_bank(bank)))
        return banks

    def ops(self, banks, rng, in_process=True):
        while True:
            for slot, (index, tight) in enumerate(self.cycle):
                bank, dual = banks[index]
                x = gen.signal(rng, self.n)

                def run(x=x, bank=bank, dual=dual, tight=tight):
                    coeffs = cews.forward(x, bank)
                    if tight:
                        return cews.inverse_tight(coeffs, bank, 1.0)
                    return cews.inverse(coeffs, dual)

                def check(rec, x=x):
                    err = float(np.linalg.norm(rec - x) / np.linalg.norm(x))
                    return None if err <= TOL else f"relative L2 error {err:.3e}"

                yield slot, run, check
            yield None  # end of cycle


# -- design: bank construction and frame diagnostics ---------------------------------


# (N, supports, family, mode). The cycle is laid out by cost so that the
# median falls in the middle of the four 2^16 K=17 Meyer slots (ranks 9-12 of
# 20) and p90 in the middle of the three 2^20 slots (ranks 18-20): p90 sits in
# the two K=9 Meyer ones, whose cost barely depends on the partition drawn,
# and the K=17 LP one sets the memory peak.
DESIGN_SLOTS = (
    (2**12, 5, SHANNON, "V"),
    (2**12, 13, "gabor-local", "Vstar"),
    (2**12, 33, MEYER, "Vstar"),
    (2**13, 9, "gabor-extended", "V"),
    (2**13, 21, LP, "Vstar"),
    (2**14, 5, LP, "V"),
    (2**14, 17, SHANNON, "Vstar"),
    (2**15, 17, LP, "V"),
    (2**16, 17, MEYER, "V"),
    (2**16, 17, MEYER, "Vstar"),
    (2**16, 17, MEYER, "V"),
    (2**16, 17, MEYER, "Vstar"),
    (2**16, 29, SHANNON, "Vstar"),
    (2**16, 33, "gabor-local", "V"),
    (2**17, 13, "gabor-extended", "Vstar"),
    (2**17, 17, LP, "Vstar"),
    (2**16, 33, MEYER, "V"),
    (2**20, 9, MEYER, "V"),
    (2**20, 9, MEYER, "Vstar"),
    (2**20, 17, LP, "Vstar"),
)


class Design(Workload):
    """Each op draws a fresh random partition for its slot and runs
    build_partition -> sample_bank -> dual_bank -> frame_report."""

    def __init__(self, tiny):
        self.slots = [
            (min(n, 512) if tiny else n, k, family, mode)
            for n, k, family, mode in DESIGN_SLOTS
        ]

    def describe(self):
        return {"slots": [list(s) for s in self.slots]}

    def ops(self, state, rng, in_process=True):
        while True:
            for i in rng.permutation(len(self.slots)):
                n, k, family, mode = self.slots[i]
                bounds = gen.boundaries(rng, mode, k)

                def run(n=n, family=family, mode=mode, bounds=bounds):
                    partition = cews.build_partition(mode, bounds)
                    params = family_params(family, partition)
                    bank = cews.sample_bank(partition, params, cews.FrequencyGrid(n))
                    dual = cews.dual_bank(bank, allow_singular=family == "gabor-local")
                    return bank, dual, cews.frame_report(bank)

                yield int(i), run, lambda out, family=family: check_design(family, *out)
            yield None


def check_design(family, bank, dual, report):
    if family == LP:
        if abs(report.a_empirical - 1.0) > TOL or abs(report.b_empirical - 1.0) > TOL:
            return f"LP bounds {report.a_empirical!r}, {report.b_empirical!r} are not 1"
    if family in (MEYER, SHANNON):
        a, b = report.a_analytic, report.b_analytic
        if not (a * (1 - TOL) <= report.a_empirical and report.b_empirical <= b * (1 + TOL)):
            return (
                f"{family} empirical bounds ({report.a_empirical!r}, "
                f"{report.b_empirical!r}) outside analytic ({a!r}, {b!r})"
            )
    acc = np.zeros(bank.spectra.shape[1], dtype=complex)
    for psi, phi in zip(bank.spectra, dual.spectra):
        acc += np.conj(psi) * phi
    regular = np.ones(acc.size, dtype=bool)
    regular[list(dual.singular_bins)] = False
    worst = float(np.max(np.abs(acc[regular] - 1.0), initial=0.0))
    if worst > TOL:
        return f"sum conj(psi) phi deviates from 1 by {worst:.3e}"
    return None


# -- cli: one process per job, with file I/O -----------------------------------------


CLI_COMMANDS = ("forward", "inverse", "roundtrip", "roundtrip-raw", "frame", "filters")


class CliSet:
    """One job input set: config, CSV and raw signal, and the in-process
    results every CLI output is compared against."""

    def __init__(self, rng, folder, n, k, mode):
        bounds = gen.boundaries(rng, mode, k)
        partition = cews.build_partition(mode, bounds)
        params = family_params(LP, partition)
        x = gen.real_signal(rng, n)
        self.paths = {
            name: str(folder / name)
            for name in ("job.json", "x.csv", "x.raw", "x.ewtc", "rec.csv", "filters.csv", "frame.json")
        }
        Path(self.paths["job.json"]).write_text(gen.config_json(mode, bounds, n, params.gamma))
        Path(self.paths["x.csv"]).write_text(gen.signal_csv(x))
        Path(self.paths["x.raw"]).write_bytes(gen.signal_raw(x))
        self.describe = {"N": n, "K": k, "mode": mode, "family": LP}
        # references, through the library API on identical inputs
        self.bank = cews.sample_bank(partition, params, cews.FrequencyGrid(n))
        coeffs = cews.forward(x, self.bank)
        self.rows = coeffs.rows
        self.rec = cews.inverse(coeffs, cews.dual_bank(self.bank))

    def argv(self, command):
        p = self.paths
        cfg = ["--config", p["job.json"]]
        return {
            "forward": ["forward", *cfg, "--signal", p["x.csv"], "--out", p["x.ewtc"]],
            "inverse": ["inverse", *cfg, "--coef", p["x.ewtc"], "--out", p["rec.csv"]],
            "roundtrip": ["roundtrip", *cfg, "--signal", p["x.csv"]],
            "roundtrip-raw": ["roundtrip", *cfg, "--signal", p["x.raw"], "--raw"],
            "frame": ["frame", *cfg, "--out", p["frame.json"]],
            "filters": ["filters", *cfg, "--out", p["filters.csv"]],
        }[command]

    def output(self, command, stdout):
        """The bytes a job produced: its output file, or stdout."""
        name = {"forward": "x.ewtc", "inverse": "rec.csv", "frame": "frame.json",
                "filters": "filters.csv"}.get(command)
        return Path(self.paths[name]).read_bytes() if name else stdout.encode()

    def check(self, command, code, stdout):
        import json

        if code != 0:
            return f"{command}: exit code {code}"
        data = self.output(command, stdout)
        if command == "forward":
            return self._check_ewtc(data)
        if command == "inverse":
            return _check_bits("reconstruction", parse_csv(data, ("re", "im")), [self.rec.real, self.rec.imag])
        if command.startswith("roundtrip"):
            lines = data.decode().splitlines()
            if len(lines) != 1:
                return f"{command}: {len(lines)} stdout lines"
            err = json.loads(lines[0])["rel_l2_error"]
            return None if err <= TOL else f"{command}: rel_l2_error {err!r}"
        if command == "frame":
            report = json.loads(data)
            if abs(report["A_emp"] - 1.0) > TOL or abs(report["B_emp"] - 1.0) > TOL:
                return f"frame: LP bounds {report['A_emp']!r}, {report['B_emp']!r}"
            return None
        order = np.argsort(self.bank.grid.xi)
        header = ["xi"] + [f"f{n}_{part}" for n in self.bank.support_indices for part in ("re", "im")]
        columns = [self.bank.grid.xi[order]]
        for row in self.bank.spectra:
            columns += [row[order].real, row[order].imag]
        return _check_bits("filters", parse_csv(data, header), columns)

    def _check_ewtc(self, data):
        count, n = self.rows.shape
        magic, version, n_file, count_file = struct.unpack("<4sIII", data[:16])
        if (magic, version, n_file, count_file) != (b"EWTC", 1, n, count):
            return f"forward: EWTC header {(magic, version, n_file, count_file)}"
        indices = np.frombuffer(data, "<i4", count, 16)
        if tuple(int(v) for v in indices) != self.bank.support_indices:
            return "forward: EWTC support indices differ"
        if data[16 + 4 * count:] != np.ascontiguousarray(self.rows, "<c16").tobytes():
            return "forward: EWTC rows differ from in-process forward"
        return None


def parse_csv(data, header):
    lines = data.decode().splitlines()
    if lines[0].split(",") != list(header):
        raise ValueError(f"CSV header {lines[0][:80]!r}")
    values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return values.reshape(len(lines) - 1, len(header)).T


def _check_bits(what, got, expected):
    for column, want in zip(got, expected):
        if column.shape != want.shape or not np.array_equal(
            column.view(np.uint64), np.ascontiguousarray(want, dtype=float).view(np.uint64)
        ):
            return f"{what}: CSV values differ from in-process result"
    return None


class Cli(Workload):
    """A cycle runs the six commands on each of two LP input sets. Each job
    is a fresh `python3 -m cews` process, or cews.cli.main(argv) in-process
    when the traced run asks for it. Set-up is what every job process pays
    before its command runs: `import cews.cli`."""

    rusage_who = resource.RUSAGE_CHILDREN
    # equal N and K, so that both sets' jobs cost the same and the filters
    # jobs form one block at the top, with p90 inside it
    sizes = ((2**13, 5, "V"), (2**13, 5, "Vstar"))

    def __init__(self, tiny):
        self.sizes = [(256 if tiny else n, k, mode) for n, k, mode in self.sizes]
        self.sets = []
        self.digests = {}  # sha256 of each output of the first cycle

    def describe(self):
        return {"sets": [s.describe for s in self.sets], "commands": list(CLI_COMMANDS),
                "sha256_first_cycle": self.digests}

    def inputs(self, rng, folder):
        self.sets = []
        for i, (n, k, mode) in enumerate(self.sizes):
            sub = folder / f"set{i}"
            sub.mkdir()
            self.sets.append(CliSet(rng, sub, n, k, mode))
        return self.sets

    def setup(self, inputs):
        import cews.cli  # noqa: F401  (what a job process loads before its command)

        return inputs

    def ops(self, sets, rng, in_process=False):
        import contextlib
        import hashlib
        import io
        import subprocess
        import sys

        def call(argv):
            if in_process:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cews.cli.main(argv)
                return code, out.getvalue()
            done = subprocess.run([sys.executable, "-m", "cews", *argv],
                                  capture_output=True, text=True, timeout=120)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
            return done.returncode, done.stdout

        first = True
        while True:
            for i, job_set in enumerate(sets):
                for command in CLI_COMMANDS:
                    argv = job_set.argv(command)
                    key = f"set{i}/{command}"

                    def check(out, job_set=job_set, command=command, key=key, first=first):
                        code, stdout = out
                        if first and code == 0:
                            digest = hashlib.sha256(job_set.output(command, stdout))
                            self.digests[key] = digest.hexdigest()
                        return job_set.check(command, code, stdout)

                    yield key, (lambda argv=argv: call(argv)), check
            first = False
            yield None

    def startup(self, sets, rng, in_process_slots):
        """One cycle of job processes; start-up is the median over jobs of the
        process wall time less the median in-process time of the same job."""
        import statistics

        times, slots, failures = closed_loop(self.ops(sets, rng), 0.0, 1)
        seconds = statistics.median(
            statistics.median(t) - statistics.median(in_process_slots[slot])
            for slot, t in slots.items())
        return seconds, times, failures


WORKLOADS = {"stream": Stream, "design": Design, "cli": Cli}
