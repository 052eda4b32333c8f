"""Band storage: no library call builds a bank's dense spectra.

Band rows are the storage, and a bank's only constructor input for its
filters: a sampled bank holds each filter's band values and one zero per
row, and its dual the bank and the squared filter sum. ``spectra`` is a
cache that the rows point into once built, on first read. Reading it on any
library path, ``dataclasses.replace`` included, would bring back a dense
K×N array per bank.
"""

import copy
import gc
import pickle
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cews import (
    FamilyParams,
    FilterBank,
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

from cews.families import _Quotients
from conftest import INF, holds_dense, whole_rows

N = 2**16
K = 33
DENSE_BYTES = K * N * 16  # one dense bank, 34.6 MB


def vstar_lp_bank(n=N):
    """A Littlewood-Paley bank of K supports on a Vstar partition, at n bins."""
    finite = np.geomspace(0.01, 3.0, (K - 1) // 2)
    partition = build_partition("Vstar", [-INF, *(-finite[::-1]), *finite, INF])
    params = FamilyParams("littlewood-paley", gamma=0.9 * min(partition.max_gamma(), 0.5))
    return sample_bank(partition, params, FrequencyGrid(n))


def holds_band_rows(bank):
    """Whether the bank stores, for each band, its values on the band's
    slices and its zero (a 1-element array, None for a whole-row band)."""
    rows = bank.rows
    return len(rows) == len(bank.bands) and all(
        len(values) == len(bank.grid.run_slices(lo, hi))
        and all(isinstance(part, np.ndarray) and part.ndim == 1 for part in values)
        and (zero is None if hi - lo == bank.grid.n_samples else zero.shape == (1,))
        for (values, zero), (lo, hi) in zip(rows, bank.bands)
    )


def test_band_rows_are_the_only_storage():
    n = 512
    bank = vstar_lp_bank(n)
    dual = dual_bank(bank)
    dense = np.ones((K, n), dtype=complex)
    by_hand = FilterBank(
        partition=bank.partition,
        params=bank.params,
        grid=bank.grid,
        **whole_rows(dense, bank.grid),
    )
    replaced = replace(bank, **whole_rows(dense, bank.grid))
    assert holds_band_rows(bank) and isinstance(dual.rows, _Quotients)
    for b in (by_hand, replaced):
        assert holds_band_rows(b) and b.bands == ((0, n),) * K
        for row, (_, values, zero) in zip(dense, b._layout()):
            assert zero is None and all(np.shares_memory(part, row) for part in values)
        assert b.spectra.tobytes() == dense.tobytes()
    # a bank's band values are one array, and a dual's storage holds its
    # bank; the first read of either one's spectra frees that array
    for b in (vstar_lp_bank(n), dual_bank(vstar_lp_bank(n))):
        owner = b.rows.bank if isinstance(b.rows, _Quotients) else b
        band_values = weakref.ref(owner.rows[0][0][0].base)
        del owner
        spectra = b.spectra
        assert holds_band_rows(b) and b.spectra is spectra
        for _, values, zero in b._layout():
            assert all(np.shares_memory(part, spectra) for part in values)
            assert zero is None or np.shares_memory(zero, spectra)
        gc.collect()
        assert band_values() is None


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


def test_replace_builds_nothing():
    bank = vstar_lp_bank()
    dual = dual_bank(bank)
    x = np.random.default_rng(0).standard_normal(N)
    for source, changes in ((bank, {}), (dual, {}), (bank, {"singular_bins": (0,)})):
        tracemalloc.start()
        try:
            copied = replace(source, **changes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not holds_dense(source) and not holds_dense(copied)
        assert peak < DENSE_BYTES / 4
        coeffs = forward(x, source)
        assert forward(x, copied).rows.tobytes() == coeffs.rows.tobytes()
        assert inverse(coeffs, copied).tobytes() == inverse(coeffs, source).tobytes()


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
        for name in ("partition", "params", "grid", "singular_bins"):
            assert f"{name}={getattr(b, name)!r}" in text
        assert "spectra" not in text


def test_copies_keep_band_storage_and_bytes():
    n = 512
    bank = vstar_lp_bank(n)
    dual = dual_bank(bank)
    x = np.random.default_rng(0).standard_normal(n)
    coeffs = forward(x, bank)
    rec = inverse(coeffs, dual)
    copies = [
        (copy_of(bank), copy_of(dual))
        for copy_of in (copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b)))
    ]
    for bank_copy, dual_copy in copies:
        assert holds_band_rows(bank_copy) and isinstance(dual_copy.rows, _Quotients)
        assert not holds_dense(bank_copy) and not holds_dense(dual_copy)
        assert forward(x, bank_copy).rows.tobytes() == coeffs.rows.tobytes()
        assert inverse(coeffs, dual_copy).tobytes() == rec.tobytes()
    for bank_copy, dual_copy in copies:
        assert bank_copy.spectra.tobytes() == bank.spectra.tobytes()
        assert dual_copy.spectra.tobytes() == dual.spectra.tobytes()


def test_spectra_become_an_instance_attribute_on_first_read():
    bank = vstar_lp_bank(512)
    for b in (bank, dual_bank(bank)):
        with pytest.raises(AttributeError, match="'no_such_attribute'"):
            b.no_such_attribute
        assert "spectra" not in vars(b) and not holds_dense(b)
        spectra = b.spectra
        assert vars(b)["spectra"] is spectra and b.spectra is spectra
        assert not spectra.flags.writeable
