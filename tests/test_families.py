import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cews import (
    FamilyParams,
    FilterBank,
    FrequencyGrid,
    beta,
    build_partition,
    eval_lp,
    gabor_mother,
    sample_bank,
    sum_squares,
)
from cews.errors import (
    BoundaryOutsideGrid,
    DegenerateCenter,
    GammaOutOfRange,
    MeyerRequiresRays,
    RayWithoutNeighbor,
)
from cews.families import _position, eval_gabor, eval_meyer, eval_shannon

from conftest import INF, PI, evaluate, scaled_bounds, whole_rows

# three ray-covered partitions whose transitions stay disjoint at 0.9*max_gamma
V_WITH_RAYS = ("V", (-INF, -2.0, 0.0, 1.4, 1.8, INF))
VSTAR_SCALED = ("Vstar", scaled_bounds())
VSTAR_SYMMETRIC = ("Vstar", (-INF, -1.0, 1.0, INF))
TIGHT_CASES = [V_WITH_RAYS, VSTAR_SCALED, VSTAR_SYMMETRIC]


def lp_bank(partition, n_samples=4096, fraction=0.9):
    params = FamilyParams("littlewood-paley", gamma=fraction * partition.max_gamma())
    return sample_bank(partition, params, FrequencyGrid(n_samples))


class TestBeta:
    def test_endpoints(self):
        assert beta(0.0) == 0.0
        assert beta(1.0) == 1.0  # 35 - 84 + 70 - 20

    def test_midpoint(self):
        # (1/16) * (35 - 42 + 17.5 - 2.5) = 1/2
        assert beta(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_on_mesh(self):
        x = np.linspace(0.0, 1.0, 1000)
        assert np.abs(beta(x) + beta(1.0 - x) - 1.0).max() < 1e-12

    def test_monotone_on_unit_interval(self):
        values = beta(np.linspace(0.0, 1.0, 1000))
        assert np.all(np.diff(values) >= -1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry_pointwise(self, x):
        assert beta(x) + beta(1.0 - x) == pytest.approx(1.0, abs=1e-12)


class TestLittlewoodPaley:
    def test_plateau_at_compact_centers(self, grid_partition):
        # the plateau is [lo + gamma|lo|, hi - gamma|hi|]: it contains the
        # midpoint once gamma <= |support| / (2 max(|lo|, |hi|)), which half
        # of max_gamma satisfies here (admissibility alone does not)
        gamma = 0.5 * grid_partition.max_gamma()
        for s in grid_partition.supports:
            if not s.is_ray:
                center = grid_partition.support_center(s.index)
                assert eval_lp(grid_partition, gamma, s.index, center) == 1.0

    def test_zero_outside_widened_support(self, grid_partition):
        gamma = 0.9 * grid_partition.max_gamma()
        s = grid_partition.support(1)
        tau_lo, tau_hi = gamma * abs(s.lo), gamma * abs(s.hi)
        for xi in (s.lo - 1.01 * tau_lo, s.hi + 1.01 * tau_hi):
            assert eval_lp(grid_partition, gamma, 1, xi) == 0.0

    def test_shared_boundary_complementarity(self, grid_partition):
        # cos^2 + sin^2 of the matched roll-off argument sums to 1 across
        # the whole transition interval of every shared finite boundary
        p = grid_partition
        gamma = 0.9 * p.max_gamma()
        for left, right in zip(p.supports, p.supports[1:]):
            nu = left.hi
            tau = gamma * abs(nu)
            xs = np.linspace(nu - tau, nu + tau, 100)
            total = (
                np.abs(eval_lp(p, gamma, left.index, xs)) ** 2
                + np.abs(eval_lp(p, gamma, right.index, xs)) ** 2
            )
            assert np.abs(total - 1.0).max() < 1e-12

    def test_boundary_point_value(self, grid_partition):
        # at the boundary itself both sides evaluate the roll-off at 1/2
        p = grid_partition
        gamma = 0.9 * p.max_gamma()
        nu = p.support(1).hi
        assert abs(eval_lp(p, gamma, 1, nu)) == pytest.approx(
            math.cos(math.pi / 4), abs=1e-15
        )
        assert abs(eval_lp(p, gamma, 2, nu)) == pytest.approx(
            math.sin(math.pi / 4), abs=1e-15
        )

    @pytest.mark.parametrize("mode,values", TIGHT_CASES)
    def test_partition_of_unity_on_grid(self, mode, values):
        bank = lp_bank(build_partition(mode, values))
        assert np.abs(sum_squares(bank) - 1.0).max() < 1e-10

    def test_v_mode_zero_boundary_width(self):
        # at the zero boundary the transition half-width comes from the
        # nearest finite neighbor: min(2.0, 1.4) * gamma
        p = build_partition(*V_WITH_RAYS)
        gamma = 0.9 * p.max_gamma()
        tau0 = gamma * 1.4
        assert eval_lp(p, gamma, -1, -tau0) == pytest.approx(1.0, abs=1e-15)
        assert eval_lp(p, gamma, 0, tau0) == pytest.approx(1.0, abs=1e-15)
        mid = complex(eval_lp(p, gamma, 0, 0.0))
        assert abs(mid) == pytest.approx(math.sin(math.pi / 4), abs=1e-15)

    def test_gamma_out_of_range(self, grid_partition):
        for gamma in (0.0, -0.1, grid_partition.max_gamma(), 1.0):
            with pytest.raises(GammaOutOfRange):
                eval_lp(grid_partition, gamma, 1, 0.0)


class TestMeyer:
    def test_requires_rays(self):
        p = build_partition("V", [-1.0, 0.0, 1.0])
        with pytest.raises(MeyerRequiresRays):
            eval_meyer(p, 0, 0.5)

    def test_ray_centered_at_zero_has_no_phase_reference(self):
        # each ray's only neighbouring center is the middle support's, 0.0
        p = build_partition("Vstar", [-INF, -0.5, 0.5, INF])
        with pytest.raises(DegenerateCenter):
            eval_meyer(p, 1, 2.0)
        with pytest.raises(DegenerateCenter):
            sample_bank(p, FamilyParams("meyer"), FrequencyGrid(64))

    def test_interior_knot_values(self, grid_partition):
        p = grid_partition
        centers = {s.index: p.support_center(s.index) for s in p.supports}
        ordinals = p.support_indices
        n = ordinals[2]  # an interior filter
        prev_n, next_n = ordinals[1], ordinals[3]
        amp = math.sqrt(2.0 / (centers[next_n] - centers[prev_n]))
        assert abs(eval_meyer(p, n, centers[n])) == pytest.approx(amp, rel=1e-14)
        assert eval_meyer(p, n, centers[prev_n]) == 0.0
        assert eval_meyer(p, n, centers[next_n]) == pytest.approx(0.0, abs=1e-15)

    def test_constant_phase_factor(self, grid_partition):
        p = grid_partition
        ordinals = p.support_indices
        n = ordinals[2]
        prev_c = p.support_center(ordinals[1])
        next_c = p.support_center(ordinals[3])
        expected = math.sqrt(2.0 / (next_c - prev_c)) * np.exp(
            4j * np.pi / (3.0 * max(abs(prev_c), abs(next_c)))
        )
        assert eval_meyer(p, n, p.support_center(n)) == pytest.approx(expected, rel=1e-14)

    def test_ray_profiles(self, grid_partition):
        p = grid_partition
        left = p.support_indices[0]
        c0 = p.support_center(left)
        c1 = p.support_center(p.support_indices[1])
        amp = math.sqrt(2.0 / (c1 - c0))
        assert abs(eval_meyer(p, left, c0 - 0.5)) == pytest.approx(amp, rel=1e-14)
        assert eval_meyer(p, left, c1 + 0.1) == 0.0
        right = p.support_indices[-1]
        cl = p.support_center(right)
        assert abs(eval_meyer(p, right, cl + 0.2)) == pytest.approx(
            math.sqrt(2.0 / (cl - p.support_center(p.support_indices[-2]))), rel=1e-14
        )

    def test_interior_norms_are_one(self, grid_partition):
        from cews import filter_norms

        bank = sample_bank(grid_partition, FamilyParams("meyer"), FrequencyGrid(4096))
        norms = filter_norms(bank)
        for norm in norms[1:-1]:
            assert norm == pytest.approx(1.0, abs=1e-4)

    def test_only_adjacent_filters_overlap(self, grid_partition):
        bank = sample_bank(grid_partition, FamilyParams("meyer"), FrequencyGrid(2048))
        count = bank.spectra.shape[0]
        for i in range(count):
            for j in range(i + 2, count):
                product = np.abs(bank.spectra[i]) * np.abs(bank.spectra[j])
                assert np.all(product == 0.0)


class TestEndsOfTheLine:
    """Littlewood-Paley and Meyer at xi = -inf, +inf and NaN: a ray filter
    holds its plateau value out to its infinite end, and every other value
    is 0."""

    @pytest.mark.parametrize(
        "mode, values, families",
        [
            (*V_WITH_RAYS, ("littlewood-paley", "meyer")),
            (*VSTAR_SCALED, ("littlewood-paley", "meyer")),
            ("Vstar", (-INF, -1.0, 0.5, INF), ("littlewood-paley", "meyer")),
            ("V", (-2.0, -1.0, 0.0, 1.0, 2.0), ("littlewood-paley",)),
            ("Vstar", (-INF, -1.0, 0.5, 2.0), ("littlewood-paley",)),
        ],
    )
    def test_ray_plateaus_reach_infinity(self, mode, values, families):
        partition = build_partition(mode, values)
        ends = np.array([-INF, INF, np.nan])
        for family in families:
            lp = family == "littlewood-paley"
            params = FamilyParams(family, gamma=0.9 * partition.max_gamma() if lp else None)
            for n in partition.support_indices:
                s = partition.support(n)
                # +-1e3 lie far beyond every boundary, on a ray's plateau
                left = evaluate(partition, params, n, -1e3) if s.is_left_ray else 0j
                right = evaluate(partition, params, n, 1e3) if s.is_right_ray else 0j
                expected = [left, right, 0j]
                assert evaluate(partition, params, n, ends).tolist() == expected
                assert [evaluate(partition, params, n, x) for x in ends] == expected
                if s.is_ray:
                    plateau = left if s.is_left_ray else right
                    assert (plateau == 1.0) if lp else (abs(plateau) > 0.0)


class TestShannon:
    def test_compact_modulus(self, grid_partition):
        s = grid_partition.support(1)
        width = s.length
        for xi in (s.lo, 0.5 * (s.lo + s.hi), s.hi - 1e-9):
            value = eval_shannon(grid_partition, 1, xi)
            assert abs(value) ** 2 == pytest.approx(1.0 / width, rel=1e-12)

    def test_half_open_right_edge(self, grid_partition):
        s = grid_partition.support(1)
        assert eval_shannon(grid_partition, 1, s.hi) == 0.0

    def test_ray_constants(self, grid_partition):
        left = grid_partition.support_indices[0]
        right = grid_partition.support_indices[-1]
        lo = grid_partition.support(right).lo
        hi = grid_partition.support(left).hi
        assert eval_shannon(grid_partition, left, hi - 0.3) == -1.0
        assert eval_shannon(grid_partition, left, hi) == 0.0  # open at the edge
        assert eval_shannon(grid_partition, right, lo) == -1j
        assert eval_shannon(grid_partition, right, lo + 2.0) == -1j

    def test_filters_are_disjoint_on_grid(self, grid_partition):
        bank = sample_bank(grid_partition, FamilyParams("shannon"), FrequencyGrid(1024))
        for i in range(bank.spectra.shape[0]):
            for j in range(i + 1, bank.spectra.shape[0]):
                assert np.all(bank.spectra[i] * bank.spectra[j] == 0.0)

    def test_squared_sum_is_piecewise_constant(self, grid_partition):
        grid = FrequencyGrid(4096)
        bank = sample_bank(grid_partition, FamilyParams("shannon"), grid)
        s = sum_squares(bank)
        for support in grid_partition.supports:
            expected = 1.0 if support.is_ray else 1.0 / support.length
            mask = (grid.xi >= support.lo) & (grid.xi < support.hi)
            assert np.abs(s[mask] - expected).max() < 1e-12


class TestGabor:
    def test_mother_values(self):
        assert gabor_mother(0.0) == 1.0
        assert gabor_mother(0.5) ** 2 == pytest.approx(math.exp(-25 * math.pi / 8), rel=1e-14)

    def test_compact_peak_and_edges(self, grid_partition):
        s = grid_partition.support(1)
        width = s.length
        center = grid_partition.support_center(1)
        peak = eval_gabor(grid_partition, "extended", 1, center)
        assert peak == pytest.approx(1.0 / math.sqrt(width), rel=1e-14)
        for edge in (s.lo, s.hi):
            value = eval_gabor(grid_partition, "extended", 1, edge)
            assert abs(value) ** 2 == pytest.approx(
                math.exp(-25 * math.pi / 8) / width, rel=1e-12
            )

    def test_extended_ray_plateau(self, grid_partition):
        p = grid_partition
        left = p.support_indices[0]
        neighbor_width = p.compact_neighbor(left).length
        plateau = 1.0 / math.sqrt(neighbor_width)
        ray_center = p.support_center(left)
        for xi in (ray_center, ray_center - 1.0, -50.0):
            assert eval_gabor(p, "extended", left, xi) == pytest.approx(plateau, rel=1e-14)
        # gaussian side decays smoothly from the plateau value
        inside = eval_gabor(p, "extended", left, ray_center + 0.1 * neighbor_width)
        assert 0.0 < abs(inside) < plateau

    def test_local_ray_decays(self, grid_partition):
        left = grid_partition.support_indices[0]
        far = eval_gabor(grid_partition, "local", left, -40.0)
        assert abs(far) < 1e-300 or far == 0.0

    def test_ray_needs_compact_neighbor(self):
        p = build_partition("V", [-INF, 0.0, INF])
        with pytest.raises(RayWithoutNeighbor):
            eval_gabor(p, "extended", -1, 0.0)

    def test_unknown_ray_option(self, grid_partition):
        with pytest.raises(ValueError, match="ray_option"):
            eval_gabor(grid_partition, "sideways", grid_partition.support_indices[0], 0.0)


class TestSampleBank:
    def test_boundary_outside_grid(self, example_partition):
        params = FamilyParams("shannon")
        with pytest.raises(BoundaryOutsideGrid):
            sample_bank(example_partition, params, FrequencyGrid(64))

    def test_shapes_and_metadata(self, grid_partition):
        grid = FrequencyGrid(256)
        bank = sample_bank(grid_partition, FamilyParams("shannon"), grid)
        assert bank.spectra.shape == (7, 256)
        assert bank.support_indices == (-4, -3, -2, -1, 1, 2, 3)
        assert bank.spectra.dtype == np.complex128

    def test_sampling_matches_pointwise_evaluator(self, grid_partition):
        grid = FrequencyGrid(128)
        bank = sample_bank(grid_partition, FamilyParams("meyer"), grid)
        row = bank.spectra[2]
        direct = eval_meyer(grid_partition, bank.support_indices[2], grid.xi)
        assert np.array_equal(row, np.asarray(direct, dtype=complex))

    @pytest.mark.parametrize(
        "params",
        [
            FamilyParams("littlewood-paley", gamma=0.1),
            FamilyParams("meyer"),
            FamilyParams("shannon"),
            FamilyParams("gabor", gabor_rays="local"),
            FamilyParams("gabor", gabor_rays="extended"),
        ],
    )
    def test_resampling_is_bit_identical(self, grid_partition, params):
        grid = FrequencyGrid(512)
        first = sample_bank(grid_partition, params, grid)
        second = sample_bank(grid_partition, params, grid)
        assert np.array_equal(first.spectra, second.spectra)

    def test_hand_made_bank_gets_whole_row_bands(self, grid_partition):
        grid = FrequencyGrid(32)
        dense = np.ones((7, 32), dtype=complex)
        bank = FilterBank(
            partition=grid_partition,
            params=FamilyParams("shannon"),
            grid=grid,
            support_indices=grid_partition.support_indices,
            **whole_rows(dense, grid),
        )
        assert bank.bands == ((0, 32),) * 7
        for row, (_, values, zero) in zip(dense, bank._layout()):
            assert zero is None and all(np.shares_memory(part, row) for part in values)
        assert np.array_equal(sum_squares(bank), np.full(32, 7.0))
        # a bank's fields rebuild it; spectra are not a constructor argument
        rebuilt = FilterBank(**{f.name: getattr(bank, f.name) for f in fields(bank)})
        assert rebuilt.spectra.tobytes() == dense.tobytes()
        with pytest.raises(TypeError, match="spectra"):
            FilterBank(spectra=dense, **{f.name: getattr(bank, f.name) for f in fields(bank)})

    def test_replacing_the_spectra_resets_the_bands(self, grid_partition):
        bank = sample_bank(grid_partition, FamilyParams("shannon"), FrequencyGrid(32))
        assert bank.bands != ((0, 32),) * 7
        dense = replace(bank, **whole_rows(np.ones((7, 32), dtype=complex), bank.grid))
        assert dense.bands == ((0, 32),) * 7
        assert np.array_equal(sum_squares(dense), np.full(32, 7.0))
        with pytest.raises(TypeError, match="spectra"):
            replace(bank, spectra=dense.spectra)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FamilyParams("littlewood-paley")  # gamma missing
        with pytest.raises(ValueError):
            FamilyParams("meyer", gamma=0.2)
        with pytest.raises(ValueError):
            FamilyParams("gabor")  # ray option missing
        with pytest.raises(ValueError):
            FamilyParams("shannon", gabor_rays="extended")
        with pytest.raises(ValueError):
            FamilyParams("gabor", gabor_rays="sideways")
        with pytest.raises(ValueError):
            FamilyParams("haar")


def lp_gamma_ending_on(value, grid_value):
    """gamma with value + gamma * value == grid_value exactly (value > 0)."""
    gamma = (grid_value - value) / value
    while value + gamma * value != grid_value:
        gamma = np.nextafter(gamma, INF if value + gamma * value < grid_value else -INF)
    return gamma


def sample_as_evaluators(partition, params, grid):
    """sample_bank, after checking each row against its public evaluator."""
    bank = sample_bank(partition, params, grid)
    for row, n in zip(bank.spectra, bank.support_indices):
        assert row.tobytes() == evaluate(partition, params, n, grid.xi).tobytes(), n
    return bank


def band_bins(bank, i):
    lo, hi = bank.bands[i]
    return [k for sl in bank.grid.run_slices(lo, hi) for k in range(sl.start, sl.stop)]


class TestBands:
    """Each sampled filter is its evaluator on its band and a zero elsewhere."""

    def test_lp_band_ends_on_the_last_nonzero_bin(self):
        grid = FrequencyGrid(64)
        partition = build_partition("Vstar", (-INF, -1.0, 0.5, 1.5, INF))
        # gamma that puts the fall's end 1.5 + gamma * 1.5 exactly on bin 16
        gamma = lp_gamma_ending_on(1.5, grid.xi[16])
        params = FamilyParams("littlewood-paley", gamma=gamma)
        bank = sample_as_evaluators(partition, params, grid)
        pos = partition.ordinal(1)
        bins = band_bins(bank, pos)
        assert bins[-1] == 16
        # the fall ends at cos(pi/2), not at 0, so a half-open band would lose it
        assert 0.0 < abs(bank.spectra[pos, 16]) < 1e-15
        assert bank.spectra[pos, 17] == 0.0 and 17 not in bins
        # the right ray rises on the same ramp, half-open: bin 16 is its plateau
        assert bank.spectra[pos + 1, 16] == 1.0

    def shannon_on_bins(self, n=16):
        grid = FrequencyGrid(n)
        xi = grid.xi
        partition = build_partition("Vstar", (-INF, xi[n - 3], xi[3], xi[5], INF))
        return partition, sample_bank(partition, FamilyParams("shannon"), grid)

    def test_shannon_boundary_on_a_bin_is_half_open(self):
        partition, bank = self.shannon_on_bins()
        pos = partition.ordinal(1)  # [xi[3], xi[5])
        assert band_bins(bank, pos) == [3, 4]
        assert bank.spectra[pos, 3] != 0.0 and bank.spectra[pos, 5] == 0.0

    def test_band_straddling_zero_wraps(self):
        partition, bank = self.shannon_on_bins()
        pos = partition.ordinal(-1)  # [xi[13], xi[3]) holds xi = 0
        lo, hi = bank.bands[pos]
        assert bank.grid.run_slices(lo, hi) == [slice(13, 16), slice(0, 3)]
        assert np.all(bank.spectra[pos, [13, 14, 15, 0, 1, 2]] != 0.0)

    def test_right_ray_ends_on_the_nyquist_bin(self):
        partition, bank = self.shannon_on_bins()
        pos = len(partition.supports) - 1
        assert band_bins(bank, pos) == [5, 6, 7, 8]
        assert bank.grid.xi[8] == PI and bank.spectra[pos, 8] == -1j
        assert band_bins(bank, 0) == [9, 10, 11, 12]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "params",
        [
            FamilyParams("littlewood-paley", gamma=0.1),
            FamilyParams("meyer"),
            FamilyParams("shannon"),
            FamilyParams("gabor", gabor_rays="local"),
            FamilyParams("gabor", gabor_rays="extended"),
        ],
    )
    def test_tiny_grids(self, n, params):
        partition = build_partition("Vstar", (-INF, -1.0, 0.5, 2.0, INF))
        grid = FrequencyGrid(n)
        bank = sample_bank(partition, params, grid)
        for row, index, (lo, hi) in zip(bank.spectra, bank.support_indices, bank.bands):
            assert 0 <= lo <= hi <= n
            assert row.tobytes() == evaluate(partition, params, index, grid.xi).tobytes()


class TestSamplingPlan:
    """sample_bank finds bands without sorting the grid and shares each
    roll-off ramp between the two filters that meet on it; every row must
    still be its public evaluator on the whole grid."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 4097])
    def test_band_search_is_the_sorted_grid_search(self, n):
        grid = FrequencyGrid(n)
        ascending = grid.xi[grid.order]
        between = (ascending[:-1] + ascending[1:]) / 2
        for v in [*ascending, *between, PI, -PI, INF, -INF]:
            for side in ("left", "right"):
                expected = int(np.searchsorted(ascending, v, side))
                assert _position(grid, v, side) == expected, (v, side)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 4097])
    def test_band_search_takes_an_array(self, n):
        grid = FrequencyGrid(n)
        big = np.finfo(float).max
        # natural bin order, so the values are not sorted
        values = np.array([*grid.xi, INF, -INF, big, -big, PI, -PI])
        for side in ("left", "right"):
            positions = _position(grid, values, side)
            assert positions == [_position(grid, v, side) for v in values]
            assert positions == np.searchsorted(grid.xi[grid.order], values, side).tolist()
            assert all(type(p) is int for p in positions)

    def test_meyer_ramp_ending_on_a_bin(self):
        grid = FrequencyGrid(64)
        center = grid.xi[8]
        partition = build_partition("Vstar", (-INF, -1.0, center - 0.1, center + 0.1, 2.0, INF))
        assert partition.support_center(1) == center  # a ramp's stop and start
        bank = sample_as_evaluators(partition, FamilyParams("meyer"), grid)
        assert 0.0 < abs(bank.spectra[partition.ordinal(-1), 8]) < 1e-15

    @pytest.mark.parametrize(
        "params", [FamilyParams("littlewood-paley", gamma=0.45), FamilyParams("meyer")]
    )
    def test_zero_boundary_ramp_wraps_from_the_last_bin_to_the_first(self, params):
        grid = FrequencyGrid(64)
        partition = build_partition("V", (-INF, -1.0, 0.0, 1.0, INF))
        bank = sample_as_evaluators(partition, params, grid)
        # the ramp support 0 rises on (over [-0.45, 0.45] or [-0.5, 0.5])
        # holds bins N - 1 and 0
        first, second = grid.run_slices(*bank.bands[partition.ordinal(0)])
        assert (first.stop, second.start) == (64, 0)
        assert grid.xi[63] > -0.45

    def test_gabor_tail_overflow_is_raised_as_on_the_whole_grid(self):
        # (xi - center) / width squares past the largest float at every bin
        # outside the tiny support's band, where the evaluator still runs
        partition = build_partition("Vstar", (-INF, -1e-300, 1e-300, INF))
        params = FamilyParams("gabor", gabor_rays="local")
        grid = FrequencyGrid(8)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                evaluate(partition, params, -1, grid.xi)
            with pytest.raises(FloatingPointError, match="overflow"):
                sample_bank(partition, params, grid)
