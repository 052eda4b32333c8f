"""Discrete frequency grid and the DFT-side primitives everything is built on.

Signals and spectra are plain 1-D complex ndarrays; a :class:`FrequencyGrid`
pins the sample count and the bin-to-frequency mapping. The forward DFT is
unnormalized and the inverse carries the 1/N factor (numpy's ``fft``/``ifft``
convention, which the rest of the package calls directly), so the convolution
theorem reads as a plain pointwise product of spectra. All functions are pure
and safe to call concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FrequencyGrid:
    """N-point sampling of the normalized frequency interval (-pi, pi].

    Bin k carries xi = 2*pi*k/N for k <= N/2 and xi = 2*pi*(k-N)/N above, so
    the layout matches natural DFT bin order and, for even N, the Nyquist bin
    holds +pi exactly.
    """

    n_samples: int
    xi: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = int(self.n_samples)
        if n < 1:
            raise ValueError("n_samples must be >= 1")
        k = np.arange(n)
        signed = np.where(2 * k > n, k - n, k).astype(float)
        xi = signed * (TWO_PI / n)
        if n % 2 == 0:
            xi[n // 2] = np.pi
        xi.setflags(write=False)
        object.__setattr__(self, "n_samples", n)
        object.__setattr__(self, "xi", xi)

    @property
    def spacing(self) -> float:
        """Bin spacing 2*pi/N."""
        return TWO_PI / self.n_samples


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
