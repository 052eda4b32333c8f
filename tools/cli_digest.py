"""Seeded CLI digest: sha256 over everything the ``cews`` command line
leaves behind for a fixed corpus of job configs.

Each of 30 configs runs ``filters``, ``forward``, ``inverse`` (reading the
coefficients ``forward`` wrote), ``frame --sum-squares``, ``roundtrip``,
``forward --raw`` on a raw float64 copy of the same signal, and ``inverse
--tight 1.0`` on ``forward``'s coefficients, each in its own ``python3 -m
cews`` process, and every run's exit code, stdout, stderr and output file
are hashed, per command (the last two as the parts ``forward_raw`` and
``inverse_tight``). Two checkouts that print the same digests give the
same CLI bytes. Run it from anywhere; it runs the cews of the checkout it
sits in:

    python3 tools/cli_digest.py

The corpus is fixed, so digests from any two runs compare: the configs
cycle through the five family variants and three partition kinds (V with
rays, Vstar with rays and Vstar without rays), on grids of 1 to 4096 bins,
with guards from 1e-3 down to the smallest subnormal, with and without
``allow_singular`` and ``real_output``; every sixth config has all its
finite boundaries within 3.1e-305 of zero. Some runs fail on purpose (a
Meyer bank needs rays, a guard may leave bins singular, a tiny support
overflows); their error line is what gets hashed. Files are named relative to a temporary working directory, so
no absolute path reaches the digest. Digests compare only under the same
numpy, whose version the last line prints. Under a numpy and Python
recorded in ``expected_digests.json`` the digests are compared with the
recorded ones, and the tool exits 1 if any differs (see ``digest_gate.py``).
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from digest_gate import compare

SRC = Path(__file__).resolve().parent.parent / "src"
VARIANTS = ("littlewood-paley", "meyer", "shannon", "gabor-local", "gabor-extended")
KINDS = ("V", "Vstar", "Vstar-no-rays")
EPSILONS = (1e-3, 1e-12, 1e-300, 1e-310, 5e-324)
COMMANDS = ("filters", "forward", "inverse", "frame", "roundtrip", "forward_raw", "inverse_tight")
CONFIGS = 30
MAX_N = 4096


def make_config(index):
    """(config mapping, signal CSV text, the same signal as raw bytes) of
    corpus entry ``index``."""
    rng = np.random.default_rng(index)
    variant = VARIANTS[index % len(VARIANTS)]
    kind = KINDS[(index // len(VARIANTS)) % len(KINDS)]
    # every sixth config squeezes its boundaries next to zero, where the
    # tiny supports overflow some families' arithmetic
    scale = 1e-305 if index % 6 == 5 else 1.0
    sides = [np.sort(rng.uniform(0.01, 3.1, int(rng.integers(1, 5)))) * scale for _ in range(2)]
    finite = [-float(v) for v in sides[0][::-1]] + [0.0] * (kind == "V") + [float(v) for v in sides[1]]
    boundaries = finite if kind == "Vstar-no-rays" else ["-inf"] + finite + ["+inf"]
    n = int(rng.integers(1, MAX_N + 1))
    config = {
        "mode": kind.split("-")[0],
        "boundaries": boundaries,
        "family": "gabor" if variant.startswith("gabor-") else variant,
        "n_samples": n,
        "epsilon": EPSILONS[int(rng.integers(len(EPSILONS)))],
        "allow_singular": bool(rng.integers(2)),
        "real_output": bool(rng.integers(2)),
    }
    if variant.startswith("gabor-"):
        config["gabor_rays"] = variant.split("-")[1]
    if variant == "littlewood-paley" and index % 2:
        config["gamma"] = float(rng.uniform(0.01, 0.3))  # may exceed max_gamma
    signal = rng.standard_normal((n, 2))
    text = "re,im\n" + "".join(f"{re!r},{im!r}\n" for re, im in signal.tolist())
    return config, text, signal.astype("<f8").tobytes()


def command_lines():
    """(command, argv tail, output file or None) in the order they run."""
    common = ["--config", "job.json"]
    raw = ["--signal", "x.raw", "--raw"]
    tight = ["--coef", "coef.ewtc", "--tight", "1.0"]
    return (
        ("filters", ["filters", *common, "--out", "filters.csv"], "filters.csv"),
        ("forward", ["forward", *common, "--signal", "x.csv", "--out", "coef.ewtc"], "coef.ewtc"),
        ("inverse", ["inverse", *common, "--coef", "coef.ewtc", "--out", "rec.csv"], "rec.csv"),
        ("frame", ["frame", *common, "--sum-squares"], None),
        ("roundtrip", ["roundtrip", *common, "--signal", "x.csv"], None),
        ("forward_raw", ["forward", *common, *raw, "--out", "raw.ewtc"], "raw.ewtc"),
        ("inverse_tight", ["inverse", *common, *tight, "--out", "tight.csv"], "tight.csv"),
    )


def run(folder, argv, output):
    """The bytes one CLI run leaves: exit code, stdout, stderr, output file."""
    path = folder / output if output else None
    if path is not None and path.exists():
        path.unlink()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "cews", *argv], cwd=folder, env=env, capture_output=True
    )
    written = path.read_bytes() if path is not None and path.exists() else b"<no file>"
    parts = (str(done.returncode).encode(), done.stdout, done.stderr, written)
    return done.returncode, b"".join(len(part).to_bytes(8, "little") + part for part in parts)


def main():
    digests = {command: hashlib.sha256() for command in COMMANDS}
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for index in range(CONFIGS):
            config, signal, raw = make_config(index)
            (folder / "job.json").write_text(json.dumps(config))
            (folder / "x.csv").write_text(signal)
            (folder / "x.raw").write_bytes(raw)
            (folder / "coef.ewtc").unlink(missing_ok=True)
            for command, argv, output in command_lines():
                code, data = run(folder, argv, output)
                digests[command].update(data)
                codes[code] = codes.get(code, 0) + 1
    total = hashlib.sha256()
    for command in COMMANDS:
        total.update(digests[command].digest())
    hexes = {command: digests[command].hexdigest() for command in COMMANDS}
    hexes["all"] = total.hexdigest()
    for command, value in hexes.items():
        print(f"{command:13} {value}")
    print("runs: " + ", ".join(f"{codes[code]} exit {code}" for code in sorted(codes)))
    print(f"numpy {np.__version__}, python {platform.python_version()}")
    return compare("cli_digest", hexes)


if __name__ == "__main__":
    sys.exit(main())
