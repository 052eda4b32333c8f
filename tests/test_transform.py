import numpy as np
import pytest

from cews import (
    EwtCoefficients,
    FamilyParams,
    FilterBank,
    FrequencyGrid,
    build_partition,
    dual_bank,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
    translate,
)
from cews.errors import LengthMismatch, NonPositiveA, ShapeMismatch, SingularFrame
from cews.families import _divide

from oracle_utils import dft_direct, idft_direct, rel_l2
from conftest import INF, report_bytes, warns_overflow, whole_rows, with_bands


def random_signal(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def make_bank(partition, family, n_samples, **kwargs):
    if family == "littlewood-paley":
        kwargs.setdefault("gamma", 0.9 * partition.max_gamma())
    params = FamilyParams(family, **kwargs)
    return sample_bank(partition, params, FrequencyGrid(n_samples))


def allpass_bank(n_samples):
    """Single all-pass filter; handy for identity checks."""
    partition = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
    grid = FrequencyGrid(n_samples)
    return FilterBank(
        partition=partition,
        params=FamilyParams("shannon"),
        grid=grid,
        support_indices=(0,),
        **whole_rows(np.ones((1, n_samples), dtype=complex), grid),
    )


# narrow supports so that "local" Gabor rays vanish over most of the grid
NARROW = ("Vstar", (-INF, -0.05, 0.05, INF))


class TestForward:
    @pytest.mark.parametrize(
        "family, kwargs",
        [
            pytest.param("littlewood-paley", {}, id="littlewood-paley"),
            pytest.param("meyer", {}, id="meyer"),
            pytest.param("shannon", {}, id="shannon"),
            pytest.param("gabor", {"gabor_rays": "extended"}, id="gabor"),
            pytest.param("gabor", {"gabor_rays": "local"}, id="gabor-local"),
        ],
    )
    def test_rows_are_the_dense_formula_bit_for_bit(self, grid_partition, family, kwargs):
        bank = make_bank(grid_partition, family, 512, **kwargs)
        x = random_signal(512, seed=5)
        expected = np.fft.ifft(np.fft.fft(x)[None, :] * np.conj(bank.spectra), axis=1)
        assert forward(x, bank).rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_samples", [8, 64, 1000])
    @pytest.mark.parametrize(
        "mode, boundaries",
        [("V", (-INF, -1.0, 0.0, 0.5, INF)), ("Vstar", (-INF, -1.0, 0.5, INF))],
    )
    @pytest.mark.parametrize(
        "family, kwargs",
        [
            pytest.param("littlewood-paley", {}, id="littlewood-paley"),
            pytest.param("gabor", {"gabor_rays": "extended"}, id="gabor"),
            pytest.param("gabor", {"gabor_rays": "local"}, id="gabor-local"),
        ],
    )
    def test_conjugate_signs_at_exact_zeros(self, mode, boundaries, n_samples, family, kwargs):
        # where the spectrum or the filter is exactly 0, the signs of the
        # products' zeros tell conj(c + 0j) = (c, -0.0) from (c, +0.0);
        # a random complex signal has no such bins. Spectra are read only
        # after forward ran on the band storage
        bank = make_bank(build_partition(mode, boundaries), family, n_samples, **kwargs)
        t = np.arange(n_samples)
        signals = [
            np.zeros(n_samples),
            np.ones(n_samples),
            -np.ones(n_samples),
            np.full(n_samples, -0.0),
            np.cos(2 * np.pi * 3 * t / n_samples),
        ]
        rows = [forward(x, bank).rows.tobytes() for x in signals]
        for x, got in zip(signals, rows):
            expected = np.fft.ifft(np.fft.fft(x) * np.conj(bank.spectra), axis=1)
            assert got == expected.tobytes()

    def test_allpass_returns_signal(self):
        x = random_signal(64, seed=1)
        assert allpass_bank(64).bands == ((0, 64),)
        coeffs = forward(x, allpass_bank(64))
        assert np.abs(coeffs.rows[0] - x).max() < 1e-13

    def test_pure_tone_routes_to_one_shannon_channel(self, grid_partition):
        n = 256
        bank = make_bank(grid_partition, "shannon", n)
        grid = bank.grid
        k0 = 24  # xi ~ 0.589, interior to the scaled [pi/8, 3pi/8] support
        target = grid_partition.support(1)
        assert target.lo < grid.xi[k0] < target.hi
        tone = np.exp(2j * np.pi * k0 * np.arange(n) / n)
        coeffs = forward(tone, bank)
        row_of = dict(zip(coeffs.support_indices, coeffs.rows))
        expected = np.conj(bank.spectra[list(coeffs.support_indices).index(1), k0]) * tone
        assert np.abs(row_of[1] - expected).max() < 1e-12
        for n_idx, row in row_of.items():
            if n_idx != 1:
                assert np.abs(row).max() < 1e-12

    def test_linearity(self, grid_partition):
        n = 256
        bank = make_bank(grid_partition, "meyer", n)
        x, y = random_signal(n, seed=2), random_signal(n, seed=3)
        a, b = 0.3 - 1.1j, 2.2 + 0.4j
        combined = forward(a * x + b * y, bank)
        separate = a * forward(x, bank).rows + b * forward(y, bank).rows
        assert np.abs(combined.rows - separate).max() < 1e-12

    def test_length_mismatch(self, grid_partition):
        bank = make_bank(grid_partition, "shannon", 128)
        with pytest.raises(LengthMismatch):
            forward(np.zeros(64), bank)

    def test_matches_direct_summation_pipeline(self, grid_partition):
        n = 64
        x = random_signal(n, seed=4)
        bank = make_bank(grid_partition, "littlewood-paley", n)
        coeffs = forward(x, bank)
        spectrum = dft_direct(x)
        for row, filt in zip(coeffs.rows, bank.spectra):
            assert np.abs(row - idft_direct(spectrum * np.conj(filt))).max() < 1e-9


class TestDualBank:
    def test_band_dual_matches_dense_where_s_is_subnormal(self):
        # S = 1e-320 on half the grid; numpy's complex division would take
        # 1/S there, which overflows, and give inf or NaN quotients
        partition = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
        grid = FrequencyGrid(8)
        spectra = np.zeros((3, 8), dtype=complex)
        spectra[0, grid.order[:4]] = 1e-160
        spectra[1, grid.order[4:]] = 1.0
        dense = FilterBank(
            partition=partition,
            params=FamilyParams("shannon"),
            grid=grid,
            support_indices=partition.support_indices,
            **whole_rows(spectra, grid),
        )
        # no sampled family reaches a subnormal S, so narrow the bands by hand
        # and store them the way sample_bank does
        band = with_bands(dense, ((0, 4), (4, 8), (0, 0)))
        band_dual, dense_dual = (dual_bank(b, epsilon=5e-324) for b in (band, dense))
        # |1e160|^2 overflows: the dual of the dual, and its report, do too;
        # both are taken before the band dual's spectra are read
        with warns_overflow(True):
            twice, dense_twice = (dual_bank(d, epsilon=5e-324) for d in (band_dual, dense_dual))
        with warns_overflow(True):
            reports = [report_bytes(frame_report(d)) for d in (band_dual, dense_dual)]
        assert reports[0] == reports[1]
        assert band_dual.spectra.tobytes() == dense_dual.spectra.tobytes()
        assert band_dual.bands == band.bands
        s = np.sum(np.abs(spectra) ** 2, axis=0)
        low = grid.order[:4]
        assert 0.0 < s[low[0]] < np.finfo(float).tiny
        np.testing.assert_allclose(dense_dual.spectra[0, low], 1e-160 / s[low], rtol=1e-15)
        assert np.isfinite(dense_dual.spectra).all()
        assert twice.spectra.tobytes() == dense_twice.spectra.tobytes()

    @pytest.mark.parametrize(
        "low, overflows",
        [
            (2.0**-511, False),  # min S is exactly the smallest normal float
            (np.nextafter(2.0**-511, 0.0), False),  # just below: S is scaled by 2^64
            (1e-160, True),  # S = 1e-320, and the dual squares past the largest float
        ],
    )
    def test_band_dual_matches_dense_at_the_one_bin_quotient_boundary(self, low, overflows):
        partition = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
        grid = FrequencyGrid(8)
        # S = low^2 on the first half, 1 on the second; each row holds its
        # own signed zero outside its band, and row 2's band is empty
        zeros = (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
        spectra = np.array([np.full(8, z) for z in zeros])
        spectra[0, grid.order[:4]] = low
        spectra[1, grid.order[4:]] = 1.0
        dense = FilterBank(
            partition=partition,
            params=FamilyParams("shannon"),
            grid=grid,
            support_indices=partition.support_indices,
            **whole_rows(spectra, grid),
        )
        bands = ((0, 4), (4, 8), (4, 4))
        band = with_bands(dense, bands)
        s_min = np.sum(np.abs(spectra) ** 2, axis=0).min()
        assert (s_min >= np.finfo(float).tiny) == (low == 2.0**-511)
        band_dual, dense_dual = (dual_bank(b, epsilon=5e-324) for b in (band, dense))
        with warns_overflow(overflows):
            twice, dense_twice = (dual_bank(d, epsilon=5e-324) for d in (band_dual, dense_dual))
        with warns_overflow(overflows):
            reports = [report_bytes(frame_report(d)) for d in (band_dual, dense_dual)]
        assert reports[0] == reports[1]
        assert band_dual.spectra.tobytes() == dense_dual.spectra.tobytes()
        assert band_dual.bands == bands
        assert np.isfinite(band_dual.spectra).all()
        assert twice.spectra.tobytes() == dense_twice.spectra.tobytes()

    @pytest.mark.parametrize("real, imag", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_a_signed_zero_over_any_positive_s_is_one_value(self, real, imag):
        # a dual divides each row's zero by S at bin 0, whatever S is there
        zero = np.array([real, imag]).view(complex)
        divisors = (5e-324, 1e-310, np.finfo(float).tiny, 1.0, 1e300, np.inf)
        assert len({_divide(zero, np.array([s])).tobytes() for s in divisors}) == 1

    def test_real_values_divide_as_their_complex_values(self):
        # a real band value c stands for (c, +0.0); its quotient is real, and
        # (c + 0.0) * (1/S), numpy's complex-by-real formula, not c / S. As in
        # a dual, |c| <= sqrt(S), so that no quotient overflows
        rng = np.random.default_rng(0)
        denom = rng.uniform(0.1, 10.0, 64)
        denom[rng.integers(4, 64, size=12)] = rng.choice([5e-324, 1e-310, 2.2e-308, np.inf], size=12)
        denom[:4] = 5e-324, 1e-310, np.inf, 3.0
        values = rng.standard_normal(64) * np.sqrt(np.minimum(denom, 1.0))
        values[:4] = 0.0, -0.0, -1.0, 1.0
        with np.errstate(all="raise"):
            got = _divide(values, denom)
        assert got.dtype == float
        assert got.astype(complex).tobytes() == _divide(values.astype(complex), denom).tobytes()
        # at normal S too, one rounding differs from two somewhere
        normal = denom >= np.finfo(float).tiny
        assert got[normal].tobytes() != (values[normal] / denom[normal]).tobytes()

    def test_tight_bank_is_self_dual(self, grid_partition):
        bank = make_bank(grid_partition, "littlewood-paley", 1024)
        dual = dual_bank(bank)
        assert isinstance(dual, FilterBank)
        assert (dual.partition, dual.params, dual.grid) == (bank.partition, bank.params, bank.grid)
        assert np.abs(dual.spectra - bank.spectra).max() < 1e-10
        assert dual.singular_bins == ()

    def test_shannon_dual_rescales_by_width(self, grid_partition):
        grid = FrequencyGrid(1024)
        bank = make_bank(grid_partition, "shannon", 1024)
        dual = dual_bank(bank)
        for i, s in enumerate(grid_partition.supports):
            mask = np.abs(bank.spectra[i]) > 0
            width = 1.0 if s.is_ray else s.length
            assert np.abs(dual.spectra[i][mask] - width * bank.spectra[i][mask]).max() < 1e-12

    def test_dual_identity_on_regular_bins(self, grid_partition):
        bank = make_bank(grid_partition, "gabor", 512, gabor_rays="extended")
        dual = dual_bank(bank)
        identity = np.sum(np.conj(bank.spectra) * dual.spectra, axis=0)
        assert np.abs(identity - 1.0).max() < 1e-12

    def test_local_gabor_rays_are_singular_far_out(self):
        bank = make_bank(build_partition(*NARROW), "gabor", 4096, gabor_rays="local")
        with pytest.raises(SingularFrame) as info:
            dual_bank(bank)
        assert len(info.value.bins) > 0

    def test_allow_singular_zeroes_and_reports(self):
        bank = make_bank(build_partition(*NARROW), "gabor", 4096, gabor_rays="local")
        dual = dual_bank(bank, allow_singular=True)
        bins = np.asarray(dual.singular_bins)
        assert bins.size > 0
        assert np.all(dual.spectra[:, bins] == 0.0)

    def test_epsilon_must_be_positive(self, grid_partition):
        # a NaN guard would mark no bin singular, an infinite one every bin
        bank = make_bank(grid_partition, "shannon", 64)
        for guarded in (dual_bank, frame_report):
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    guarded(bank, epsilon=bad)

    def test_dual_of_dual_returns_tight_bank(self, grid_partition):
        bank = make_bank(grid_partition, "littlewood-paley", 512)
        twice = dual_bank(dual_bank(bank))
        assert np.abs(twice.spectra - bank.spectra).max() < 1e-12


class TestInverse:
    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("littlewood-paley", {}),
            ("meyer", {}),
            ("shannon", {}),
            ("gabor", {"gabor_rays": "extended"}),
        ],
    )
    def test_round_trip(self, grid_partition, family, kwargs):
        n = 512
        x = random_signal(n, seed=5)
        bank = make_bank(grid_partition, family, n, **kwargs)
        rec = inverse(forward(x, bank), dual_bank(bank))
        assert rel_l2(rec, x) < 1e-10

    def test_local_gabor_round_trip_on_regular_bins(self):
        n = 4096
        x = random_signal(n, seed=6)
        bank = make_bank(build_partition(*NARROW), "gabor", n, gabor_rays="local")
        dual = dual_bank(bank, allow_singular=True)
        rec = inverse(forward(x, bank), dual)
        ok = np.ones(n, dtype=bool)
        ok[list(dual.singular_bins)] = False
        x_hat, rec_hat = np.fft.fft(x), np.fft.fft(rec)
        err = np.linalg.norm((rec_hat - x_hat)[ok]) / np.linalg.norm(x_hat[ok])
        assert err < 1e-10
        # and the discarded bins really were zeroed
        assert np.abs(rec_hat[~ok]).max() < 1e-9

    def test_zero_coefficients_give_zero_signal(self, grid_partition):
        n = 128
        bank = make_bank(grid_partition, "shannon", n)
        coeffs = forward(np.zeros(n), bank)
        assert np.abs(inverse(coeffs, dual_bank(bank))).max() == 0.0

    def test_shape_mismatch(self, grid_partition):
        bank_small = make_bank(grid_partition, "shannon", 64)
        bank_large = make_bank(grid_partition, "shannon", 128)
        coeffs = forward(np.zeros(64), bank_small)
        with pytest.raises(ShapeMismatch):
            inverse(coeffs, dual_bank(bank_large))

    def test_support_mismatch(self, grid_partition):
        bank = make_bank(grid_partition, "shannon", 64)
        coeffs = forward(np.zeros(64), bank)
        relabelled = EwtCoefficients(coeffs.rows, tuple(reversed(coeffs.support_indices)))
        with pytest.raises(ShapeMismatch, match="index different supports"):
            inverse(relabelled, dual_bank(bank))


class TestInverseTight:
    def test_matches_dual_inverse_for_tight_bank(self, grid_partition):
        n = 1024
        x = random_signal(n, seed=7)
        bank = make_bank(grid_partition, "littlewood-paley", n)
        coeffs = forward(x, bank)
        via_dual = inverse(coeffs, dual_bank(bank))
        via_tight = inverse_tight(coeffs, bank, 1.0)
        assert np.abs(via_dual - via_tight).max() < 1e-12

    def test_scaling_in_frame_bound(self, grid_partition):
        n = 256
        x = random_signal(n, seed=8)
        bank = make_bank(grid_partition, "littlewood-paley", n)
        coeffs = forward(x, bank)
        assert np.allclose(
            inverse_tight(coeffs, bank, 2.0), 0.5 * inverse_tight(coeffs, bank, 1.0),
            atol=1e-14,
        )

    def test_non_tight_bank_misuse_keeps_error(self, grid_partition):
        # Shannon is not tight; pretending A=1 leaves a pointwise multiplier
        # S != 1, so the reconstruction error stays away from zero
        n = 512
        x = random_signal(n, seed=9)
        bank = make_bank(grid_partition, "shannon", n)
        rec = inverse_tight(forward(x, bank), bank, 1.0)
        assert rel_l2(rec, x) > 1e-2

    def test_subnormal_bound_divides_exactly(self):
        # numpy divides a complex by a real through its reciprocal, and 1/A
        # overflows for a subnormal A; both sides are scaled by 2^64 instead,
        # real and imaginary parts apart, as the dual's division does
        bank = make_bank(build_partition("Vstar", [-INF, -1.0, 0.5, INF]), "littlewood-paley", 64)
        x = np.random.default_rng(0).standard_normal(64) * 1e-318
        coeffs = forward(x, bank)
        a = 1e-310
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rec = inverse_tight(coeffs, bank, a)
        acc = np.zeros(64, dtype=complex)
        for row, filt in zip(coeffs.rows, bank.spectra):
            acc += np.fft.fft(row) * filt
        scaled = (acc.view(float) * 2.0**64).view(complex)
        assert np.isfinite(rec).all()
        assert rec.tobytes() == np.fft.ifft(scaled / (a * 2.0**64)).tobytes()
        assert np.abs(rec - x / a).max() <= 1e-5 * np.abs(x / a).max()

    def test_non_positive_bound_rejected(self, grid_partition):
        bank = make_bank(grid_partition, "shannon", 64)
        coeffs = forward(np.zeros(64), bank)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(NonPositiveA):
                inverse_tight(coeffs, bank, bad)


class TestInvariants:
    def test_shift_covariance(self, grid_partition):
        n = 256
        shift = 37
        x = random_signal(n, seed=10)
        bank = make_bank(grid_partition, "meyer", n)
        shifted_first = forward(translate(x, shift), bank)
        shifted_after = np.stack([translate(row, shift) for row in forward(x, bank).rows])
        assert np.abs(shifted_first.rows - shifted_after).max() < 1e-12

    def test_tight_parseval(self, grid_partition):
        n = 2048
        x = random_signal(n, seed=11)
        bank = make_bank(grid_partition, "littlewood-paley", n)
        coeffs = forward(x, bank)
        coefficient_energy = float(np.sum(np.abs(coeffs.rows) ** 2))
        signal_energy = float(np.sum(np.abs(x) ** 2))
        assert abs(coefficient_energy - signal_energy) / signal_energy < 1e-9
