import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cews import (
    FamilyParams,
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
    GammaOutOfRange,
    MeyerRequiresRays,
    RayWithoutNeighbor,
)
from cews.families import eval_gabor, eval_meyer, eval_shannon

from conftest import INF, PI, scaled_bounds

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
