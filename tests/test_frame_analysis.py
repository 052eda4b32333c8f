import numpy as np
import pytest

from cews import (
    GABOR_EDGE_ENERGY,
    FamilyParams,
    FilterBank,
    FrequencyGrid,
    analytic_bounds,
    beta,
    build_partition,
    empirical_bounds,
    filter_norms,
    dual_bank,
    frame_report,
    sample_bank,
    sum_squares,
)

from conftest import INF, PI, whole_rows


def make_bank(partition, family, n_samples, **kwargs):
    if family == "littlewood-paley":
        kwargs.setdefault("gamma", 0.9 * partition.max_gamma())
    return sample_bank(partition, FamilyParams(family, **kwargs), FrequencyGrid(n_samples))


def zero_bank(n_samples=64):
    partition = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
    grid = FrequencyGrid(n_samples)
    return FilterBank(
        partition=partition,
        params=FamilyParams("shannon"),
        grid=grid,
        **whole_rows(np.zeros((3, n_samples), dtype=complex), grid),
    )


class TestSumSquares:
    def test_lp_is_identically_one(self, grid_partition):
        s = sum_squares(make_bank(grid_partition, "littlewood-paley", 4096))
        assert np.abs(s - 1.0).max() < 1e-10

    def test_shannon_piecewise_values(self, grid_partition):
        grid = FrequencyGrid(2048)
        bank = make_bank(grid_partition, "shannon", 2048)
        s = sum_squares(bank)
        for support in grid_partition.supports:
            expected = 1.0 if support.is_ray else 1.0 / support.length
            mask = (grid.xi >= support.lo) & (grid.xi < support.hi)
            assert np.abs(s[mask] - expected).max() < 1e-12

    def test_zero_bank(self):
        assert zero_bank().bands == ((0, 64),) * 3
        assert np.all(sum_squares(zero_bank()) == 0.0)

    def test_reordering_is_immaterial(self, grid_partition):
        bank = make_bank(grid_partition, "meyer", 512)
        s = sum_squares(bank)
        assert np.array_equal(s, sum_squares(bank))  # deterministic
        acc = np.zeros(512)
        for row in bank.spectra[::-1]:
            acc += np.abs(row) ** 2
        np.testing.assert_allclose(acc, s, rtol=1e-14, atol=0.0)


class TestAnalyticBounds:
    def test_lp_is_tight_at_one(self, example_partition):
        a, b = analytic_bounds(FamilyParams("littlewood-paley", gamma=0.1), example_partition)
        assert (a, b) == (1.0, 1.0)

    def test_meyer_example_values(self, example_partition):
        # centers: -4pi, -2pi, -2pi/3, pi/12, pi, 7pi/4, 9pi/4; the smallest
        # 2/span is 2/(10pi/3) at the second filter, the largest 2/(pi/2)
        # at the right ray pair
        a, b = analytic_bounds(FamilyParams("meyer"), example_partition)
        assert a == pytest.approx(3.0 / (5.0 * PI), rel=1e-14)
        assert b == pytest.approx(4.0 / PI, rel=1e-14)

    def test_shannon_example_values(self, example_partition):
        # compact widths {2pi, 2pi/3, 5pi/6, pi, pi/2}, rays count as 1
        a, b = analytic_bounds(FamilyParams("shannon"), example_partition)
        assert a == pytest.approx(1.0 / (2.0 * PI), rel=1e-14)
        assert b == pytest.approx(1.0, rel=1e-14)

    def test_gabor_extended_lower_bound(self, example_partition):
        a, b = analytic_bounds(
            FamilyParams("gabor", gabor_rays="extended"), example_partition
        )
        assert a == pytest.approx(GABOR_EDGE_ENERGY / (2.0 * PI), rel=1e-14)
        assert b is None

    def test_gabor_local_has_no_bounds(self, example_partition):
        assert analytic_bounds(
            FamilyParams("gabor", gabor_rays="local"), example_partition
        ) == (None, None)

    def test_no_rays_no_bounds(self):
        partition = build_partition("V", [-1.0, 0.0, 1.0])
        for params in (
            FamilyParams("littlewood-paley", gamma=0.1),
            FamilyParams("shannon"),
            FamilyParams("gabor", gabor_rays="extended"),
        ):
            assert analytic_bounds(params, partition) == (None, None)


class TestEmpiricalBounds:
    def test_lp_bank(self, grid_partition):
        a, b = empirical_bounds(make_bank(grid_partition, "littlewood-paley", 4096))
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)

    def test_meyer_matches_analytic_on_fine_grid(self, grid_partition):
        bank = make_bank(grid_partition, "meyer", 2 ** 14)
        a_emp, b_emp = empirical_bounds(bank)
        a_ana, b_ana = analytic_bounds(FamilyParams("meyer"), grid_partition)
        assert a_ana - 1e-6 <= a_emp <= a_ana + 1e-3
        assert b_ana - 1e-3 <= b_emp <= b_ana + 1e-6

    def test_gabor_extended_respects_corrected_bound(self, grid_partition):
        bank = make_bank(grid_partition, "gabor", 4096, gabor_rays="extended")
        a_emp, _ = empirical_bounds(bank)
        a_ana, _ = analytic_bounds(bank.params, grid_partition)
        assert a_emp >= a_ana - 1e-12

    def test_zero_bank(self):
        assert empirical_bounds(zero_bank()) == (0.0, 0.0)


class TestMeyerTwoTermIdentity:
    def test_interior_spans(self, grid_partition):
        # between consecutive interior centers only two filters are active:
        # S = 2 cos^2(u)/span_n + 2 sin^2(u)/span_{n+1}
        grid = FrequencyGrid(2 ** 13)
        bank = make_bank(grid_partition, "meyer", 2 ** 13)
        s = sum_squares(bank)
        centers = [grid_partition.support_center(n) for n in grid_partition.support_indices]
        for p in range(1, len(centers) - 2):
            lo, hi = centers[p], centers[p + 1]
            mask = (grid.xi > lo) & (grid.xi < hi)
            if not mask.any():
                continue
            u = 0.5 * np.pi * beta((grid.xi[mask] - lo) / (hi - lo))
            expected = (
                2.0 * np.cos(u) ** 2 / (centers[p + 1] - centers[p - 1])
                + 2.0 * np.sin(u) ** 2 / (centers[p + 2] - centers[p])
            )
            assert np.abs(s[mask] - expected).max() < 1e-12


class TestFilterNorms:
    def test_meyer_interior_norms(self, grid_partition):
        norms = filter_norms(make_bank(grid_partition, "meyer", 4096))
        for value in norms[1:-1]:
            assert value == pytest.approx(1.0, abs=1e-4)

    def test_shannon_compact_norms(self, grid_partition):
        n = 4096
        norms = filter_norms(make_bank(grid_partition, "shannon", n))
        for i, s in enumerate(grid_partition.supports):
            if not s.is_ray:
                tol = 2.0 * (2.0 * PI / n) / s.length
                assert abs(norms[i] - 1.0) <= tol

    def test_zero_bank(self):
        assert filter_norms(zero_bank()) == (0.0, 0.0, 0.0)


class TestFrameReport:
    def test_report_fields(self, grid_partition):
        bank = make_bank(grid_partition, "littlewood-paley", 1024)
        report = frame_report(bank)
        assert report.a_analytic == report.b_analytic == 1.0
        assert report.a_empirical == pytest.approx(1.0, abs=1e-10)
        assert report.singular_bins == ()
        assert len(report.per_filter_norm) == 7
        assert report.sum_squares.shape == (1024,)

    @pytest.mark.parametrize("family", ["meyer", "shannon"])
    def test_dual_reports_no_analytic_bounds(self, family):
        # the README quickstart partition: the dual's sums break the bank
        # family's closed-form lower bound, so it claims none
        partition = build_partition("Vstar", [-INF, -1.2, -0.4, 0.5, 1.1, INF])
        bank = make_bank(partition, family, 4096)
        dual = dual_bank(bank)
        assert dual.params is None
        report, claimed = frame_report(dual), frame_report(bank)
        assert (report.a_analytic, report.b_analytic) == (None, None)
        assert claimed.a_analytic is not None
        assert report.a_empirical < 0.9 * claimed.a_analytic
        assert analytic_bounds(None, partition) == (None, None)

    def test_singular_bins_reported(self):
        partition = build_partition("Vstar", [-INF, -0.05, 0.05, INF])
        bank = make_bank(partition, "gabor", 4096, gabor_rays="local")
        report = frame_report(bank, epsilon=1e-12)
        assert len(report.singular_bins) > 0
        s = report.sum_squares
        assert np.all(s[list(report.singular_bins)] < 1e-12)
