"""Discrete frequency grid and the DFT-side primitives everything is built on.

Signals and spectra are plain 1-D complex ndarrays; a :class:`FrequencyGrid`
pins the sample count and the bin-to-frequency mapping. The forward DFT is
unnormalized and the inverse carries the 1/N factor (numpy's ``fft``/``ifft``
convention, which the rest of the package calls directly), so the convolution
theorem reads as a plain pointwise product of spectra. All functions are pure
and safe to call concurrently.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LengthMismatch

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FrequencyGrid:
    """N-point sampling of the normalized frequency interval (-pi, pi].

    A grid is its N. Its bin frequencies, ascending, are ``_sorted_xi``:
    sorted position j holds (j - (N-1)//2) * 2*pi/N, and, for even N, the
    last one holds +pi exactly. ``xi`` lists them in natural DFT bin order:
    bin k carries 2*pi*k/N for k <= N/2 and 2*pi*(k-N)/N above. Both are
    read-only and computed on first read.
    """

    n_samples: int

    def __post_init__(self):
        if isinstance(self.n_samples, bool):
            raise TypeError("n_samples must be an integer, got a bool")
        n = operator.index(self.n_samples)
        if n < 1:
            raise ValueError("n_samples must be >= 1")
        object.__setattr__(self, "n_samples", n)

    @cached_property
    def _sorted_xi(self) -> np.ndarray:
        n = self.n_samples
        # float(j) - (n-1)//2 is exact for every n below 2^53
        xi = np.arange(n, dtype=float)
        xi -= (n - 1) // 2
        xi *= TWO_PI / n
        if n % 2 == 0:
            xi[-1] = np.pi
        xi.setflags(write=False)
        return xi

    @cached_property
    def xi(self) -> np.ndarray:
        xi = np.roll(self._sorted_xi, self.n_samples // 2 + 1)
        xi.setflags(write=False)
        return xi

    @property
    def spacing(self) -> float:
        """Bin spacing 2*pi/N."""
        return TWO_PI / self.n_samples

    @property
    def order(self) -> np.ndarray:
        """Permutation to ascending xi: ``xi[order]`` is sorted.

        It is a rotation: sorted position j holds bin (j + N//2 + 1) mod N.
        """
        return np.roll(np.arange(self.n_samples), -(self.n_samples // 2 + 1))

    def run_slices(self, lo: int, hi: int) -> list:
        """Natural-order slices holding sorted positions lo, ..., hi - 1.

        The positions are taken mod N, so 0 <= lo <= hi <= lo + N may name any
        cyclic run of bins. The slices list the bins in ascending position
        order; there are at most two, as the run wraps at most once from bin
        N - 1 to bin 0.
        """
        n = self.n_samples
        if lo == hi:
            return []
        start = (lo + n // 2 + 1) % n
        stop = start + (hi - lo)
        if stop <= n:
            return [slice(start, stop)]
        return [slice(start, n), slice(0, stop - n)]


def _as_signal(values) -> np.ndarray:
    x = np.asarray(values, dtype=complex)
    if x.ndim != 1 or x.size < 1:
        raise LengthMismatch("expected a non-empty 1-D sequence")
    return x


def dft(signal) -> np.ndarray:
    """Forward DFT, X_k = sum_t x_t exp(-2i pi k t / N), no normalization."""
    return np.fft.fft(_as_signal(signal))


def _check_integer(a):
    if not isinstance(a, (int, np.integer)):
        raise TypeError(f"shift/modulation amount must be an integer, got {a!r}")
    return int(a)


def modulate(signal, a) -> np.ndarray:
    """Multiply by the integer-bin phase ramp exp(2i pi a t / N).

    The phase argument is reduced mod N in exact integer arithmetic, so large
    |a * t| products do not erode precision.
    """
    x = _as_signal(signal)
    a = _check_integer(a)
    n = x.size
    t = np.arange(n)
    return x * np.exp((2j * np.pi / n) * ((a * t) % n))


def translate(signal, a) -> np.ndarray:
    """Circular shift by an integer number of samples: y[t] = x[t - a]."""
    return np.roll(_as_signal(signal), _check_integer(a))
