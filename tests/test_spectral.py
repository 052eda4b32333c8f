import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cews import FrequencyGrid, dft, modulate, translate
from cews.errors import LengthMismatch
from cews.spectral import TWO_PI

from oracle_utils import dft_direct


def random_signal(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def signed_bin_xi(n):
    """The grid as the signed bin number k or k - N times 2 pi / N, Nyquist
    set to pi: the reference for the bytes of ``FrequencyGrid.xi``."""
    k = np.arange(n)
    xi = np.where(2 * k > n, k - n, k).astype(float) * (TWO_PI / n)
    if n % 2 == 0:
        xi[n // 2] = np.pi
    return xi


def natural_bin_xi(n):
    """The grid built in natural bin order, as ``FrequencyGrid`` once stored
    it: bins 0, ..., N - 1 as floats, N taken off the upper half, times
    2 pi / N, Nyquist set to pi."""
    xi = np.arange(n, dtype=float)
    xi[n // 2 + 1 :] -= n
    xi *= TWO_PI / n
    if n % 2 == 0:
        xi[n // 2] = np.pi
    return xi


class TestFrequencyGrid:
    @pytest.mark.parametrize(
        "sizes", [range(1, 4097), (2**17 + 1, 2**20 - 1, 2**20)], ids=["1-4096", "large"]
    )
    def test_xi_is_the_signed_bin_formula_bit_for_bit(self, sizes):
        for n in sizes:
            assert FrequencyGrid(n).xi.tobytes() == signed_bin_xi(n).tobytes(), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 2**16, 2**17 + 1])
    def test_ascending_xi_is_the_sorted_natural_grid_bit_for_bit(self, n):
        grid, expected = FrequencyGrid(n), natural_bin_xi(n)
        assert grid._sorted_xi.tobytes() == expected[grid.order].tobytes()
        assert grid._sorted_xi.tobytes() == np.sort(expected).tobytes()
        assert grid.xi.tobytes() == expected.tobytes()
        assert not grid.xi.flags.writeable and not grid._sorted_xi.flags.writeable

    def test_a_grid_is_its_sample_count(self):
        assert [f.name for f in dataclasses.fields(FrequencyGrid)] == ["n_samples"]
        grid = FrequencyGrid(8)
        assert grid.xi is grid.xi and grid._sorted_xi is grid._sorted_xi

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 4096])
    def test_bin_mapping(self, n):
        xi = FrequencyGrid(n).xi
        for k in range(n):
            expected = 2 * np.pi * k / n if 2 * k <= n else 2 * np.pi * (k - n) / n
            assert xi[k] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 64, 4096])
    def test_even_nyquist_is_exact_pi(self, n):
        assert FrequencyGrid(n).xi[n // 2] == np.pi

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 4096])
    def test_range_and_distinct(self, n):
        xi = FrequencyGrid(n).xi
        assert xi.min() > -np.pi
        assert xi.max() <= np.pi
        assert len(np.unique(xi)) == n

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrequencyGrid(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 4097])
    def test_order_is_the_ascending_permutation(self, n):
        grid = FrequencyGrid(n)
        assert np.array_equal(grid.order, np.argsort(grid.xi))

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_run_slices_cover_the_run_in_order(self, n):
        grid = FrequencyGrid(n)
        for lo in range(n + 1):
            for hi in range(lo, lo + n + 1):
                bins = [k for sl in grid.run_slices(lo, hi) for k in range(sl.start, sl.stop)]
                assert bins == [int(grid.order[j % n]) for j in range(lo, hi)]
                assert len(grid.run_slices(lo, hi)) <= 2

    def test_value_semantics(self):
        grid = FrequencyGrid(np.int64(8))
        assert type(grid.n_samples) is int
        assert grid == FrequencyGrid(8) and grid != FrequencyGrid(9)
        assert hash(grid) == hash(FrequencyGrid(8))
        assert repr(grid) == "FrequencyGrid(n_samples=8)"
        with pytest.raises(AttributeError):
            grid.n_samples = 9


class TestDft:
    def test_impulse(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(dft(x), np.ones(16), atol=1e-14)

    def test_dc(self):
        n = 11
        spectrum = dft(np.ones(n))
        expected = np.zeros(n, dtype=complex)
        expected[0] = n
        assert np.allclose(spectrum, expected, atol=1e-12)

    def test_matches_direct_summation(self):
        x = random_signal(64, seed=1)
        assert np.abs(dft(x) - dft_direct(x)).max() < 1e-9

    def test_linearity(self):
        x = random_signal(128, seed=2)
        y = random_signal(128, seed=3)
        a, b = 1.7 - 0.3j, -0.9 + 2.1j
        assert np.abs(dft(a * x + b * y) - (a * dft(x) + b * dft(y))).max() < 1e-12

    def test_rejects_2d(self):
        with pytest.raises(LengthMismatch):
            dft(np.zeros((4, 4)))

    def test_parseval(self):
        x = random_signal(256, seed=4)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(dft(x)) ** 2) / x.size
        assert abs(time_energy - freq_energy) / time_energy < 1e-10


class TestOperators:
    def test_translate_zero_is_identity(self):
        x = random_signal(16, seed=5)
        assert np.array_equal(translate(x, 0), x)

    def test_modulate_full_period_is_identity(self):
        x = random_signal(16, seed=6)
        assert np.array_equal(modulate(x, 16), x)

    @pytest.mark.parametrize("n,a", [(64, 7), (64, -13), (4096, 129)])
    def test_modulation_shifts_spectrum(self, n, a):
        x = random_signal(n, seed=7)
        assert np.abs(dft(modulate(x, a)) - np.roll(dft(x), a)).max() < 1e-12

    @pytest.mark.parametrize("n,a", [(64, 7), (64, -5), (4096, 321)])
    def test_translation_modulates_spectrum(self, n, a):
        x = random_signal(n, seed=8)
        assert np.abs(dft(translate(x, a)) - modulate(dft(x), -a)).max() < 1e-12

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            translate(np.zeros(4), 0.5)

    @given(st.integers(-300, 300), st.integers(2, 64))
    def test_translate_inverts(self, a, n):
        x = np.arange(n, dtype=complex)
        assert np.array_equal(translate(translate(x, a), -a), x)
