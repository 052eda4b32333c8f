"""Invariants the paper implies, checked over random valid partitions.

Partitions have both rays, 1-3 finite boundaries on each side of zero (plus
the zero boundary in V mode) and grids of odd and even size.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dataclasses import replace

from cews import (
    EwtCoefficients,
    FamilyParams,
    FilterBank,
    FrequencyGrid,
    analytic_bounds,
    build_partition,
    dual_bank,
    empirical_bounds,
    filter_norms,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
    sum_squares,
)
from cews import frame_analysis
from conftest import (
    ALL_FAMILIES,
    INF,
    evaluate,
    holds_dense,
    make_params,
    partitions_on_grid,
    report_bytes,
    side,
    warns_overflow,
    whole_rows,
    with_bands,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def banks_on_grid(draw):
    """(partition, grid) with boundaries at least 0.02 apart."""
    mode = draw(st.sampled_from(["V", "Vstar"]))
    finite = sorted(-v for v in draw(side)) + ([0.0] if mode == "V" else []) + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    partition = build_partition(mode, [-INF] + finite + [INF])
    return partition, FrequencyGrid(draw(st.integers(32, 400)))


def make_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)


@PROPERTY_SETTINGS
@given(banks_on_grid())
def test_lp_is_tight(case):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    a, b = empirical_bounds(bank)
    assert abs(a - 1.0) <= 1e-12 and abs(b - 1.0) <= 1e-12



@st.composite
def v_partitions_without_left_ray(draw):
    """(partition, grid): a V partition whose first boundary is finite, 1-3
    finite boundaries on each side of zero at least 0.02 apart, the right
    ray present or not."""
    finite = sorted(-v for v in draw(side)) + [0.0] + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    partition = build_partition("V", finite + [INF] * draw(st.booleans()))
    return partition, FrequencyGrid(draw(st.integers(32, 400)))


@PROPERTY_SETTINGS
@given(v_partitions_without_left_ray())
@example((build_partition("V", (-0.5, 0.0, 1.0, INF)), FrequencyGrid(64)))
def test_lp_is_tight_between_finite_end_boundaries(case):
    """Without a left ray S falls to 0 below the first boundary, but it never
    exceeds 1 and is 1 from the end of the first boundary's transition to
    the start of the last's. The zero boundary's half-width comes from both
    its neighbours, the first boundary included: from the other one alone,
    on (-0.5, 0, 1, inf) at N=64, B would be 1.00099."""
    partition, grid = case
    params = make_params(partition, "littlewood-paley")
    bank = sample_bank(partition, params, grid)
    first, last = partition.boundaries[0], partition.boundaries[-1]
    covered = grid.xi >= first + params.gamma * abs(first)
    if last < INF:
        covered &= grid.xi <= last - params.gamma * abs(last)
    assert covered.any()
    assert empirical_bounds(bank)[1] <= 1.0 + 1e-12
    assert np.abs(sum_squares(bank)[covered] - 1.0).max() <= 1e-12


@PROPERTY_SETTINGS
@given(banks_on_grid(), st.sampled_from(["meyer", "shannon", "gabor-extended"]))
def test_empirical_bounds_within_analytic(case, family):
    partition, grid = case
    # a zero-centred support gives Meyer no phase reference
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    params = make_params(partition, family)
    a, b = empirical_bounds(sample_bank(partition, params, grid))
    a_ana, b_ana = analytic_bounds(params, partition)
    # extended Gabor's lower bound is GABOR_EDGE_ENERGY / widest compact
    # width, and it has no upper one
    assert a >= a_ana * (1.0 - 1e-12)
    if b_ana is not None:
        assert b <= b_ana * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(banks_on_grid(), st.integers(32, 8192))
def test_meyer_interior_norms_are_one(case, n_samples):
    partition, _ = case
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    grid = FrequencyGrid(n_samples)
    norms = filter_norms(sample_bank(partition, FamilyParams("meyer"), grid))
    centers = [partition.support_center(s.index) for s in partition.supports]
    # the rays are the first and last filters; an interior filter rises from
    # the centre below to its own and falls to the centre above. A ramp that
    # leaves the grid is cut short, and one of few bins is a coarse quadrature
    for i in range(1, len(centers) - 1):
        below, center, above = centers[i - 1 : i + 2]
        ramp_bins = [
            np.count_nonzero((grid.xi > lo) & (grid.xi < hi))
            for lo, hi in ((below, center), (center, above))
        ]
        if -np.pi < below and above < np.pi and min(ramp_bins) >= 8:
            assert abs(norms[i] - 1.0) <= 1e-6, (i, ramp_bins)


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


@settings(max_examples=100, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES)
# the median of S is 8.4e-320, below the smallest normal float
@example(
    case=(build_partition("Vstar", [-0.2734375, 0.0546875, INF]), FrequencyGrid(23)),
    family="gabor-local",
)
def test_band_path_is_bit_identical(case, family):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    # the default guard, and one that makes about half the bins singular
    epsilons = [e for e in (1e-12, float(np.median(sum_squares(bank)))) if e > 0.0]
    # every result of the banded bank and of its duals is taken before their
    # spectra are read
    report = report_bytes(frame_report(bank))
    duals = []
    for epsilon in epsilons:
        dual = dual_bank(bank, epsilon, allow_singular=True)
        # a dual gain near 1 / sqrt(S) squares past the largest float when S
        # is tiny enough; the squared sum of the dual then overflows
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(sum_squares(dual)).all()
        with warns_overflow(overflows):
            duals.append((epsilon, dual, dual_bank(dual, allow_singular=True), overflows))
    whole = replace(bank, **whole_rows(bank.spectra, grid))
    assert whole.bands == ((0, grid.n_samples),) * len(bank.bands)
    for row, n, (lo, hi) in zip(bank.spectra, bank.support_indices, bank.bands):
        assert 0 <= lo <= hi <= grid.n_samples
        assert row.tobytes() == evaluate(partition, params, n, grid.xi).tobytes()
    for epsilon, dual, twice, overflows in duals:
        dense_dual = dual_bank(whole, epsilon, allow_singular=True)
        assert dual.spectra.tobytes() == dense_dual.spectra.tobytes()
        assert dual.singular_bins == dense_dual.singular_bins
        assert np.isfinite(dual.spectra).all()
        with warns_overflow(overflows):
            dense_twice = dual_bank(dense_dual, allow_singular=True)
        assert twice.spectra.tobytes() == dense_twice.spectra.tobytes()
    assert report == report_bytes(frame_report(whole))


def layout_rule_holds(bank):
    """Each row is what ``bank._layout()`` says it is: the band's slices
    hold the bins of ``bank.bands`` in ascending xi, band and rest of the row
    cover every bin once, the band values are the row on the band, and the
    zero is the value of every bin of the rest, singular or not; every
    singular bin holds a zero in every row. Real band values stand for
    complex ones with imaginary part +0.0. The layout is taken from band
    storage, and read again once ``spectra`` are built: then it is complex
    views of them."""
    grid = bank.grid
    rows = list(bank._layout())
    spectra = bank.spectra
    assert len(rows) == len(spectra) and not spectra.flags.writeable
    for row, (lo, hi), (band, values, zero) in zip(spectra, bank.bands, rows):
        assert len(band) == len(values) <= 2
        assert 0 <= hi - lo <= grid.n_samples
        # every bin once, in ascending xi from sorted position lo
        ring = np.roll(grid.order, -lo).tolist()
        assert sorted(ring) == list(range(grid.n_samples))
        out_bins = ring[hi - lo :]
        assert [b for sl in band for b in range(sl.start, sl.stop)] == ring[: hi - lo]
        for sl, part in zip(band, values):
            assert np.asarray(part, complex).tobytes() == row[sl].tobytes()
        assert (zero is None) == (not out_bins)
        if out_bins:
            assert zero.shape == (1,) and zero[0] == 0.0
            assert row[out_bins].tobytes() == zero.tobytes() * len(out_bins)
    assert (spectra[:, list(bank.singular_bins)] == 0.0).all()
    for _, values, zero in bank._layout():
        assert all(np.shares_memory(part, spectra) for part in values)
        assert all(part.dtype == complex for part in values)
        assert zero is None or np.shares_memory(zero, spectra)


@settings(max_examples=100, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES)
# a Meyer dual whose first out-of-band bin is singular
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
)
# the median of S is subnormal and the dual's squared sum overflows
@example(
    case=(build_partition("Vstar", [-0.2734375, 0.0546875, INF]), FrequencyGrid(23)),
    family="gabor-local",
)
def test_every_bank_holds_its_layout(case, family):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    banks = [bank]
    for epsilon in (1e-12, float(np.median(sum_squares(bank)))):
        if epsilon > 0.0:
            dual = dual_bank(bank, epsilon, allow_singular=True)
            # the dual's squared sum may overflow where S is tiny
            with np.errstate(over="ignore"):
                banks += [dual, dual_bank(dual, epsilon, allow_singular=True)]
    # Littlewood-Paley and Gabor filters are real: their sampled band values
    # are real floats until spectra are read; every dual's quotients are
    # complex, whatever the family
    real = family == "littlewood-paley" or family.startswith("gabor-")
    for b in banks:
        dtype = float if real and b is bank else complex
        for _, values, zero in b._layout():
            assert all(part.dtype == dtype for part in values)
            assert zero is None or zero.dtype == complex
    for b in banks:
        layout_rule_holds(b)


def dense_dual(bank, epsilon):
    """``dual_bank(bank, epsilon, allow_singular=True).spectra`` as the
    whole-row formula: S summed row by row and taken as infinity where it is
    below the guard, numerators and S scaled by 2^64 where S is subnormal,
    and every cell of every row divided by S."""
    s = np.zeros(bank.grid.n_samples)
    for row in bank.spectra:
        s += np.abs(row) ** 2
    s[s < epsilon] = np.inf
    numer = bank.spectra.copy()
    small = s < np.finfo(float).tiny
    numer.view(float).reshape(*numer.shape, 2)[:, small] *= 2.0**64
    s[small] *= 2.0**64
    return numer / s


@settings(max_examples=100, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES)
# a Meyer dual whose singular bins lie in bands whose values are not +0.0
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
)
# the median of S is 8.4e-320, below the smallest normal float
@example(
    case=(build_partition("Vstar", [-0.2734375, 0.0546875, INF]), FrequencyGrid(23)),
    family="gabor-local",
)
def test_dual_is_the_dense_formula(case, family):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    # the default guard, one that makes about half the bins singular, and
    # one that makes only the bins where S is exactly 0 singular
    epsilons = [e for e in (1e-12, float(np.median(sum_squares(bank))), 5e-324) if e > 0.0]
    # the duals of the banded bank are taken before its spectra are read
    duals = [dual_bank(bank, epsilon, allow_singular=True) for epsilon in epsilons]
    whole = replace(bank, **whole_rows(bank.spectra, grid))
    for epsilon, dual in zip(epsilons, duals):
        expected = dense_dual(bank, epsilon).tobytes()
        assert dual.spectra.tobytes() == expected
        assert dual_bank(whole, epsilon, allow_singular=True).spectra.tobytes() == expected


def library_bytes(bank, x, epsilon):
    """Every library result on ``bank``, as bytes; none reads ``bank.spectra``."""
    coeffs = forward(x, bank)
    return (
        coeffs.rows.tobytes(),
        inverse(coeffs, bank).tobytes(),
        inverse_tight(coeffs, bank, 0.75).tobytes(),
        sum_squares(bank).tobytes(),
        report_bytes(frame_report(bank, epsilon)),
        dual_bank(bank, epsilon, allow_singular=True).spectra.tobytes(),
    )


@settings(max_examples=100, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES, st.integers(0, 2**32 - 1))
# a Meyer dual whose singular bins lie in bands whose values are not +0.0
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
    seed=0,
)
# the median of S is 8.4e-320, below the smallest normal float
@example(
    case=(build_partition("Vstar", [-0.2734375, 0.0546875, INF]), FrequencyGrid(23)),
    family="gabor-local",
    seed=0,
)
def test_spectra_are_built_on_first_read(case, family, seed):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    x = make_signal(grid, seed)
    # a guard that makes about half the bins singular
    epsilon = float(np.median(sum_squares(bank))) or 1e-12
    with np.errstate(all="ignore"):
        dual = dual_bank(bank, epsilon, allow_singular=True)
        twice = dual_bank(dual, epsilon, allow_singular=True)
        for b in (bank, dual, twice):
            before = library_bytes(b, x, epsilon)
            assert not holds_dense(b)
            spectra = b.spectra
            assert holds_dense(b) and b.spectra is spectra and not spectra.flags.writeable
            assert library_bytes(b, x, epsilon) == before
        for row, n in zip(bank.spectra, bank.support_indices):
            assert row.tobytes() == evaluate(partition, params, n, grid.xi).tobytes()
        assert dual.spectra.tobytes() == dense_dual(bank, epsilon).tobytes()
        assert twice.spectra.tobytes() == dense_dual(dual, epsilon).tobytes()


@settings(max_examples=60, deadline=None)
@given(partitions_on_grid(), st.sampled_from(["gabor-local", "gabor-extended"]))
def test_gabor_is_exactly_zero_outside_its_band(case, family):
    partition, grid = case
    params = make_params(partition, family)
    bank = sample_bank(partition, params, grid)
    for n, (lo, hi) in zip(bank.support_indices, bank.bands):
        outside = np.ones(grid.n_samples, dtype=bool)
        outside[grid.order[lo:hi]] = False
        values = evaluate(partition, params, n, grid.xi)[outside]
        assert values.tobytes() == bytes(values.nbytes)  # +0.0 in both parts
        s = partition.support(n)
        if family == "gabor-extended" and s.is_left_ray:
            assert lo == 0
        if family == "gabor-extended" and s.is_right_ray:
            assert hi == grid.n_samples


def dense_forward(x, bank):
    """``forward`` as the whole-row formula: every cell of every row."""
    rows = np.conj(bank.spectra)
    np.multiply(np.fft.fft(x)[None, :], rows, out=rows)
    np.fft.ifft(rows, axis=1, out=rows)
    return rows


def dense_inverse(coeffs, bank, frame_bound=None):
    """``inverse`` (or ``inverse_tight`` with a frame bound) as the whole-row
    sum over every cell of every row."""
    acc = np.zeros(coeffs.rows.shape[1], dtype=complex)
    for row, filt in zip(coeffs.rows, bank.spectra):
        acc += np.fft.fft(row) * filt
    return np.fft.ifft(acc if frame_bound is None else acc / frame_bound)


# the non-finite values a signal or a coefficient may hold
SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(-np.inf, np.inf))


@settings(max_examples=100, deadline=None)
@given(
    partitions_on_grid(),
    ALL_FAMILIES,
    st.integers(0, 2**32 - 1),
    st.sampled_from(["finite", "signal", "coefficients", "huge"]),
)
# a Meyer dual whose first out-of-band bin is singular: it holds the row's
# zero, as every out-of-band bin does
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
    seed=0,
    poison="finite",
)
# the same bank, whose zeros have bits set, on non-finite spectra: forward
# multiplies whole rows by the zero, and inverse's fallback fills whole rows
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
    seed=0,
    poison="signal",
)
@example(
    case=(build_partition("V", [-INF, -1.0, 0.0, 1.0, 1.5, INF]), FrequencyGrid(128)),
    family="meyer",
    seed=0,
    poison="coefficients",
)
# Shannon bands one bin wide
@example(
    case=(build_partition("V", [-0.0625, 0.0, 1.0]), FrequencyGrid(160)),
    family="shannon",
    seed=0,
    poison="finite",
)
# one filter on one bin: the whole-array product is taken in place
@example(
    case=(build_partition("Vstar", [-1.0, 0.5]), FrequencyGrid(1)),
    family="shannon",
    seed=0,
    poison="finite",
)
def test_transform_is_the_dense_formula(case, family, seed, poison):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, params, grid)
    rng = np.random.default_rng(seed)
    x = make_signal(grid, seed)
    n = grid.n_samples
    if poison == "signal":
        x[rng.integers(n, size=2)] = rng.choice(SPECIALS, size=2)

    def check(b):
        """The library on b, then the whole-row formula on ``b.spectra``."""
        rows = forward(x, b).rows
        forward_bytes = rows.tobytes()
        rows = rows.copy()
        if poison == "coefficients":
            cells = rng.integers(rows.size, size=3)
            rows.flat[cells] = rng.choice(SPECIALS, size=3)
        elif poison == "huge":
            rows *= 1e306  # the row FFTs overflow
        coeffs = EwtCoefficients(rows=rows, support_indices=b.support_indices)
        got = (inverse(coeffs, b).tobytes(), inverse_tight(coeffs, b, 0.75).tobytes())
        assert forward_bytes == dense_forward(x, b).tobytes()
        assert got == (dense_inverse(coeffs, b).tobytes(), dense_inverse(coeffs, b, 0.75).tobytes())

    with np.errstate(all="ignore"):
        # duals with some or about half the bins singular
        epsilons = [e for e in (1e-12, float(np.median(sum_squares(bank)))) if e > 0.0]
        # the banded bank and its duals, whose spectra are read only after
        # the library ran on them, then whole-row bands
        for b in (bank, *[dual_bank(bank, e, allow_singular=True) for e in epsilons]):
            check(b)
        whole = replace(bank, **whole_rows(bank.spectra, grid))
        for b in (whole, *[dual_bank(whole, e, allow_singular=True) for e in epsilons]):
            check(b)


@st.composite
def banded_banks(draw):
    """A three-row bank with random bands, at most 2^18 + 1 bins, whose
    squared band values run from about 1e-300 to 1e300."""
    n = draw(st.integers(2, 3000) | st.integers(2**17, 2**18 + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = FrequencyGrid(n)
    spectra = np.zeros((3, n), dtype=complex)
    bands = []
    for row in spectra:
        lo, hi = sorted(draw(st.integers(0, n)) for _ in range(2))
        # numpy's first split of the n - 1 terms, where a band may start or end
        split = (n - 1) // 2 - (n - 1) // 2 % 8
        lo, hi = draw(
            st.sampled_from(
                [(lo, hi), (lo, lo), (0, hi), (lo, n), (0, n), (min(lo, split), split), (split, max(hi, split))]
            )
        )
        if draw(st.booleans()):
            exponents = rng.uniform(-150.0, 150.0, hi - lo)
        else:
            exponents = np.full(hi - lo, draw(st.floats(-150.0, 150.0)))
        phases = np.exp(2j * np.pi * rng.random(hi - lo))
        row[grid.order[lo:hi]] = 10.0**exponents * rng.random(hi - lo) * phases
        bands.append((lo, hi))
    partition = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
    bank = FilterBank(
        partition=partition,
        params=FamilyParams("shannon"),
        grid=grid,
        **whole_rows(spectra, grid),
    )
    return with_bands(bank, bands)


@settings(max_examples=80, deadline=None)
@given(banded_banks())
def test_band_norms_are_numpys_trapezoid(bank):
    norms = filter_norms(bank)
    # against np.trapezoid itself: a numpy that sums differently fails here
    dense = np.abs(bank.spectra[:, bank.grid.order]) ** 2
    for norm, line in zip(norms, dense):
        assert norm.hex() == float(np.trapezoid(line, dx=bank.grid.spacing)).hex()


@settings(max_examples=80, deadline=None)
@given(banded_banks())
def test_report_adds_each_band_cell_to_s_once(bank):
    # frame_report takes S from its norm walk, sum_squares from the bands
    report = frame_report(bank)
    assert report.sum_squares.tobytes() == sum_squares(bank).tobytes()
    assert report.per_filter_norm == filter_norms(bank)


def energy_readers(bank, epsilon, dual_first):
    """dual_bank and frame_report of ``bank``, in either order, then
    filter_norms and empirical_bounds: each reads the bank's S or norms."""
    if dual_first:
        dual = dual_bank(bank, epsilon, allow_singular=True)
        report = frame_report(bank, epsilon)
    else:
        report = frame_report(bank, epsilon)
        dual = dual_bank(bank, epsilon, allow_singular=True)
    return dual, report, filter_norms(bank), empirical_bounds(bank)


def energy_bytes(dual, report, norms, bounds):
    return (
        dual.spectra.tobytes(),
        dual.singular_bins,
        report_bytes(report),
        repr(norms),
        repr(bounds),
    )


@settings(max_examples=60, deadline=None)
@given(partitions_on_grid(), ALL_FAMILIES, st.booleans())
# the median of S is 8.4e-320: the dual of the dual's squared sum overflows
@example(
    case=(build_partition("Vstar", [-0.2734375, 0.0546875, INF]), FrequencyGrid(23)),
    family="gabor-local",
    dual_first=True,
)
def test_one_energy_walk_serves_every_reader(case, family, dual_first):
    partition, grid = case
    params = make_params(partition, family)
    if family == "meyer":
        assume(partition.has_left_ray and partition.has_right_ray)
        assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    # a guard that makes about half the bins singular
    epsilon = float(np.median(sum_squares(sample_bank(partition, params, grid)))) or 1e-12

    def fresh(level):
        """The bank (0), its dual (1) or the dual of the dual (2), built anew."""
        bank = sample_bank(partition, params, grid)
        for _ in range(level):
            bank = dual_bank(bank, epsilon, allow_singular=True)
        return bank

    walked = []
    walk = frame_analysis._norms

    def counting_walk(bank, acc):
        walked.append(bank)
        return walk(bank, acc)

    # the dual of the dual's squared sum may overflow where S is tiny
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(frame_analysis, "_norms", counting_walk)
        for level in range(3):
            bank = fresh(level)
            walked.clear()
            dual, report, norms, bounds = energy_readers(bank, epsilon, dual_first)
            s = sum_squares(bank)
            finite = bool(np.isfinite(s).all() and np.isfinite(norms).all())
            # one walk, kept on the bank; an S or norm that is not finite is
            # not kept, so each of the four readers walks again
            assert walked == [bank] * (1 if finite else 4)
            assert hasattr(bank, "_energy") == finite
            assert not report.sum_squares.flags.writeable
            assert report.sum_squares.tobytes() == s.tobytes()
            # the dual's infinities are its own: the bank's S holds none
            bins = list(dual.singular_bins)
            assert (report.sum_squares[bins] < epsilon).all()
            assert bounds == (float(s.min()), float(s.max()))
            # the same readers on a fresh bank, the other reader first
            other = energy_readers(fresh(level), epsilon, not dual_first)
            assert energy_bytes(dual, report, norms, bounds) == energy_bytes(*other)
