"""Invariants the paper implies, checked over random valid partitions.

Partitions have both rays, 1-3 finite boundaries on each side of zero (plus
the zero boundary in V mode) and grids of odd and even size.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from dataclasses import replace

from cews import (
    FamilyParams,
    FrequencyGrid,
    analytic_bounds,
    build_partition,
    dual_bank,
    empirical_bounds,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
    sum_squares,
)
from conftest import INF, evaluate, report_bytes

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

side = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True)


@st.composite
def banks_on_grid(draw):
    """(partition, grid) with boundaries at least 0.02 apart."""
    mode = draw(st.sampled_from(["V", "Vstar"]))
    finite = sorted(-v for v in draw(side)) + ([0.0] if mode == "V" else []) + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    partition = build_partition(mode, [-INF] + finite + [INF])
    return partition, FrequencyGrid(draw(st.integers(32, 400)))


ALL_FAMILIES = st.sampled_from(
    ["littlewood-paley", "meyer", "shannon", "gabor-local", "gabor-extended"]
)


def make_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)


def make_params(partition, family):
    if family == "littlewood-paley":
        return FamilyParams(family, gamma=0.9 * partition.max_gamma())
    if family.startswith("gabor-"):
        return FamilyParams("gabor", gabor_rays=family.split("-")[1])
    return FamilyParams(family)


@PROPERTY_SETTINGS
@given(banks_on_grid())
def test_lp_is_tight(case):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    a, b = empirical_bounds(bank)
    assert abs(a - 1.0) <= 1e-12 and abs(b - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(banks_on_grid(), st.sampled_from(["meyer", "shannon"]))
def test_empirical_bounds_within_analytic(case, family):
    partition, grid = case
    # a zero-centred support gives Meyer no phase reference
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    params = make_params(partition, family)
    a, b = empirical_bounds(sample_bank(partition, params, grid))
    a_ana, b_ana = analytic_bounds(params, partition)
    assert a >= a_ana * (1.0 - 1e-12)
    assert b <= b_ana * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(banks_on_grid(), ALL_FAMILIES)
def test_dual_inverts_on_regular_bins(case, family):
    partition, grid = case
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, make_params(partition, family), grid)
    dual = dual_bank(bank, allow_singular=True)
    identity = np.sum(np.conj(bank.spectra) * dual.spectra, axis=0)
    regular = np.ones(grid.n_samples, dtype=bool)
    regular[list(dual.singular_bins)] = False
    assert np.abs(identity[regular] - 1.0).max(initial=0.0) <= 1e-12


@PROPERTY_SETTINGS
@given(banks_on_grid())
def test_dual_of_lp_dual_is_lp(case):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    twice = dual_bank(dual_bank(bank))
    assert np.abs(twice.spectra - bank.spectra).max() <= 1e-12


@PROPERTY_SETTINGS
@given(
    banks_on_grid(),
    st.sampled_from(["littlewood-paley", "meyer", "shannon", "gabor-extended"]),
    st.integers(0, 2**32 - 1),
)
def test_dual_reconstruction_is_exact(case, family, seed):
    # gabor-local is left out: near the guard its dual amplifies FFT rounding
    # by up to 1/epsilon
    partition, grid = case
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, make_params(partition, family), grid)
    x = make_signal(grid, seed)
    spectrum = np.fft.fft(x)
    rec = inverse(forward(x, bank), dual_bank(bank))
    assert np.abs(np.fft.fft(rec) - spectrum).max() <= 1e-12 * np.abs(spectrum).max()


@PROPERTY_SETTINGS
@given(banks_on_grid(), st.integers(0, 2**32 - 1))
def test_lp_tight_reconstruction_is_exact(case, seed):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    x = make_signal(grid, seed)
    rec = inverse_tight(forward(x, bank), bank, 1.0)
    assert np.linalg.norm(rec - x) <= 1e-12 * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(banks_on_grid(), ALL_FAMILIES, st.integers(0, 2**32 - 1))
def test_pipeline_is_deterministic(case, family, seed):
    partition, grid = case
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    params = make_params(partition, family)
    x = make_signal(grid, seed)

    def run():
        bank = sample_bank(partition, params, grid)
        dual = dual_bank(bank, allow_singular=True)
        coeffs = forward(x, bank)
        return bank.spectra, dual.spectra, coeffs.rows, inverse(coeffs, dual)

    for first, second in zip(run(), run()):
        assert first.tobytes() == second.tobytes()


@st.composite
def partitions_on_grid(draw):
    """(partition, grid) like banks_on_grid, each ray present or not."""
    mode = draw(st.sampled_from(["V", "Vstar"]))
    finite = sorted(-v for v in draw(side)) + ([0.0] if mode == "V" else []) + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    left, right = draw(st.booleans()), draw(st.booleans())
    partition = build_partition(mode, [-INF] * left + finite + [INF] * right)
    return partition, FrequencyGrid(draw(st.integers(1, 400)))


@settings(max_examples=60, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES)
def test_band_path_is_bit_identical(case, family):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    whole = replace(bank)
    assert whole.bands == ((0, grid.n_samples),) * len(bank.bands)
    for row, n, (lo, hi) in zip(bank.spectra, bank.support_indices, bank.bands):
        assert 0 <= lo <= hi <= grid.n_samples
        assert row.tobytes() == evaluate(partition, params, n, grid.xi).tobytes()
        outside = np.ones(grid.n_samples, dtype=bool)
        outside[grid.order[lo:hi]] = False
        if outside.any():
            zero = row[outside][0]
            assert zero == 0.0
            assert row[outside].tobytes() == zero.tobytes() * int(outside.sum())
    # the default guard, and one that makes about half the bins singular
    for epsilon in (1e-12, float(np.median(sum_squares(bank)))):
        if epsilon <= 0.0:
            continue
        dual, dense_dual = (dual_bank(b, epsilon, allow_singular=True) for b in (bank, whole))
        assert dual.spectra.tobytes() == dense_dual.spectra.tobytes()
        assert dual.singular_bins == dense_dual.singular_bins
        twice, dense_twice = (dual_bank(d, allow_singular=True) for d in (dual, dense_dual))
        assert twice.spectra.tobytes() == dense_twice.spectra.tobytes()
    assert report_bytes(frame_report(bank)) == report_bytes(frame_report(whole))
