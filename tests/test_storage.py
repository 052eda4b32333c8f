"""Band storage: no library call builds a bank's dense spectra.

A sampled bank holds each filter's band values and one zero per row, and
its dual the bank and the squared filter sum; ``spectra`` is built on first
read and then replaces them. Reading it on any library path would bring
back a dense K×N array per bank.
"""

import tracemalloc

import numpy as np

from cews import (
    FamilyParams,
    FrequencyGrid,
    build_partition,
    dual_bank,
    filter_norms,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
    sum_squares,
)

from conftest import INF, holds_dense

N = 2**16
K = 33
DENSE_BYTES = K * N * 16  # one dense bank, 34.6 MB


def vstar_lp_bank():
    """A Littlewood-Paley bank of K supports on a Vstar partition, at N bins."""
    finite = np.geomspace(0.01, 3.0, (K - 1) // 2)
    partition = build_partition("Vstar", [-INF, *(-finite[::-1]), *finite, INF])
    params = FamilyParams("littlewood-paley", gamma=0.9 * min(partition.max_gamma(), 0.5))
    return sample_bank(partition, params, FrequencyGrid(N))


def test_library_calls_build_no_dense_array():
    tracemalloc.start()
    try:
        bank = vstar_lp_bank()
        dual = dual_bank(bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bank.bands) == K
    assert peak < DENSE_BYTES / 4
    x = np.random.default_rng(0).standard_normal(N)
    coeffs = forward(x, bank)
    assert np.abs(inverse(coeffs, dual) - x).max() < 1e-12
    assert np.abs(inverse_tight(coeffs, bank, 1.0) - x).max() < 1e-12
    for b in (bank, dual):
        frame_report(b)
        filter_norms(b)
        sum_squares(b)
        assert not holds_dense(b)
    for b in (bank, dual):
        spectra = b.spectra
        assert spectra.shape == (K, N) and holds_dense(b)
        for _, values, zero in b._layout():
            assert all(np.shares_memory(part, spectra) for part in values)
            assert zero is None or np.shares_memory(zero, spectra)


def test_repr_leaves_the_storage_alone():
    bank = vstar_lp_bank()
    dual = dual_bank(bank)
    for b in (bank, dual):
        tracemalloc.start()
        try:
            text = repr(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not holds_dense(b)
        assert peak < DENSE_BYTES / 4
        for name in ("partition", "params", "grid", "support_indices", "singular_bins"):
            assert f"{name}={getattr(b, name)!r}" in text
        assert "spectra" not in text
