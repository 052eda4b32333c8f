"""Seeded bank digest: sha256 over every value the library computes for a
fixed corpus of random filter banks.

For each bank it hashes the sampled spectra, the dual, the dual of the dual,
the frame reports of the bank and of its dual, the forward coefficients of a
seeded signal, their reconstruction through the dual and through the bank
itself (``inverse_tight`` with A = 1), and the forward coefficients of the
signal against the dual, whose filters are psi / inf, a zero, at its
singular bins. The corpus makes no in-band Shannon or Meyer bin singular,
so the signs of those zeros are pinned by the property test
``test_dual_is_the_dense_formula``, not by this digest. Two checkouts that
print the same digests compute the same bits. Run it from the repository
root, once per checkout:

    PYTHONPATH=src python3 tools/bank_digest.py

The corpus is fixed, so digests from any two runs compare: 1300 banks,
seeds 0 to 1299, mixing V and Vstar partitions with and without rays, all
five family variants, grids of 1 to 3000 bins (every 50th bank one of 2^17 +
1 bins) and guards from 1e-3 down to the smallest subnormal, so singular and
subnormal-S cases are included. A bank whose partition, grid or sampling
raises contributes that error's class name; nothing after sampling is
guarded (the duals take allow_singular=True, so they do not raise).
Digests compare only under the same numpy, whose version the last line
prints. Under a numpy and Python recorded in ``expected_digests.json`` the
digests are compared with the recorded ones, and the tool exits 1 if any
differs (see ``digest_gate.py``).
"""

import hashlib
import math
import platform
import sys

import numpy as np

from cews import (
    FamilyParams,
    FrequencyGrid,
    build_partition,
    dual_bank,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
)
from digest_gate import compare

VARIANTS = ("littlewood-paley", "meyer", "shannon", "gabor-local", "gabor-extended")
EPSILONS = (1e-3, 1e-12, 1e-300, 1e-310, 5e-324)
PARTS = ("sample", "dual", "dual2", "report", "forward", "inverse", "tight", "fwd_dual")
BANKS = 1300
MAX_N = 3000


def random_case(seed):
    rng = np.random.default_rng(seed)
    mode = ("V", "Vstar")[seed % 2]
    variant = VARIANTS[(seed // 2) % len(VARIANTS)]
    sides = [np.sort(rng.uniform(0.01, 3.1, int(rng.integers(1, 5)))) for _ in range(2)]
    finite = [-float(v) for v in sides[0][::-1]] + [0.0] * (mode == "V") + [float(v) for v in sides[1]]
    left, right = (bool(r) for r in rng.random(2) < 0.8)
    values = [-math.inf] * left + finite + [math.inf] * right
    n = 2**17 + 1 if seed % 50 == 49 else int(rng.integers(1, MAX_N + 1))
    return mode, values, variant, n, EPSILONS[int(rng.integers(len(EPSILONS)))], rng


def make_params(partition, variant, rng):
    if variant == "littlewood-paley":
        return FamilyParams(variant, gamma=float(rng.uniform(0.05, 0.999)) * partition.max_gamma())
    if variant.startswith("gabor-"):
        return FamilyParams("gabor", gabor_rays=variant.split("-")[1])
    return FamilyParams(variant)


def report_fields(report):
    fields = (
        report.a_empirical,
        report.b_empirical,
        report.a_analytic,
        report.b_analytic,
        report.per_filter_norm,
        report.singular_bins,
    )
    return report.sum_squares.tobytes() + repr(fields).encode()


def bank_parts(seed):
    """({part: bytes}, kind) for one bank of the corpus.

    kind is "error", "subnormal" (S is subnormal at some bin that is not
    singular), "singular" (some bin is below the guard) or "regular".
    """
    mode, values, variant, n, epsilon, rng = random_case(seed)
    try:
        partition = build_partition(mode, values)
        grid = FrequencyGrid(n)
        bank = sample_bank(partition, make_params(partition, variant, rng), grid)
    except Exception as exc:  # the error itself is the recorded outcome
        return {"sample": type(exc).__name__.encode()}, "error"
    # every part is computed before any spectra are read, so that each one
    # comes from the band rows as sampled and divided, not from the views of
    # the cached spectra that those rows become on that read
    dual = dual_bank(bank, epsilon, allow_singular=True)
    twice = dual_bank(dual, epsilon, allow_singular=True)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs = forward(x, bank)
    report = frame_report(bank, epsilon)
    parts = {
        "report": report_fields(report) + report_fields(frame_report(dual, epsilon)),
        "forward": coeffs.rows.tobytes(),
        "inverse": inverse(coeffs, dual).tobytes(),
        "tight": inverse_tight(coeffs, bank, 1.0).tobytes(),
        "fwd_dual": forward(x, dual).rows.tobytes(),
    }
    parts["sample"] = bank.spectra.tobytes()
    parts["dual"] = dual.spectra.tobytes() + repr(dual.singular_bins).encode()
    parts["dual2"] = twice.spectra.tobytes() + repr(twice.singular_bins).encode()
    s = report.sum_squares
    if ((s >= epsilon) & (s < np.finfo(float).tiny)).any():
        return parts, "subnormal"
    return parts, "singular" if dual.singular_bins else "regular"


def main():
    digests = {part: hashlib.sha256() for part in PARTS}
    kinds = dict.fromkeys(("regular", "singular", "subnormal", "error"), 0)
    with np.errstate(all="ignore"):
        for seed in range(BANKS):
            parts, kind = bank_parts(seed)
            for part, data in parts.items():
                digests[part].update(data)
            kinds[kind] += 1
    total = hashlib.sha256()
    for part in PARTS:
        total.update(digests[part].digest())
    hexes = {part: digests[part].hexdigest() for part in PARTS}
    hexes["all"] = total.hexdigest()
    for part, value in hexes.items():
        print(f"{part:8} {value}")
    print("banks: " + ", ".join(f"{count} {kind}" for kind, count in kinds.items()))
    print(f"numpy {np.__version__}, python {platform.python_version()}")
    return compare("bank_digest", hexes)


if __name__ == "__main__":
    sys.exit(main())
