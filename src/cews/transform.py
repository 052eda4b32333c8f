"""Forward empirical wavelet transform as FFT filtering, dual-bank
construction, and exact reconstruction.

Each coefficient row n is the inverse DFT of the signal spectrum times the
conjugated filter n. The dual of a bank is another :class:`FilterBank` on the
same partition and grid. Reconstruction runs entirely in the spectral domain:
rows are re-transformed, multiplied by the dual (or tight) filters, summed in
fixed index order and inverted once.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthMismatch, NonPositiveA, ShapeMismatch, SingularFrame
from .families import FilterBank
from .frame_analysis import sum_squares


@dataclass(frozen=True, eq=False)
class EwtCoefficients:
    """Transform output: one complex time series per support.

    ``rows[i, b]`` is the coefficient of filter i at sample position b;
    ``support_indices`` names the support of each row, in enumeration order.
    """

    rows: np.ndarray
    support_indices: tuple


def forward(signal, bank: FilterBank) -> EwtCoefficients:
    """Analyze a signal against a sampled filter bank.

    Row n equals ifft(fft(signal) * conj(spectra[n])); the operation is
    linear in the signal and rows are mutually independent.
    """
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size != bank.grid.n_samples:
        raise LengthMismatch(
            f"signal length {x.shape} does not match grid size {bank.grid.n_samples}"
        )
    rows = np.fft.ifft(np.fft.fft(x)[None, :] * np.conj(bank.spectra), axis=1)
    rows.setflags(write=False)
    return EwtCoefficients(rows=rows, support_indices=bank.support_indices)


def dual_bank(bank: FilterBank, epsilon: float = 1e-12, allow_singular: bool = False) -> FilterBank:
    """Pointwise dual filters phi_n = psi_n / S with S = sum_m |psi_m|^2.

    Bins with S < epsilon make the division meaningless: by default they
    raise SingularFrame (carrying the bin list); with allow_singular=True the
    dual is zeroed there and the bins are listed in ``singular_bins``.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    s = sum_squares(bank)
    bad = s < epsilon
    bins = np.nonzero(bad)[0]
    if bins.size and not allow_singular:
        raise SingularFrame(
            f"squared filter sum below {epsilon} at {bins.size} bins", bins=bins
        )
    spectra = bank.spectra / np.where(bad, 1.0, s)
    spectra[:, bad] = 0.0
    spectra.setflags(write=False)
    return replace(bank, spectra=spectra, singular_bins=tuple(int(b) for b in bins))


def _accumulate(coeffs: EwtCoefficients, bank: FilterBank) -> np.ndarray:
    if coeffs.support_indices != bank.support_indices:
        raise ShapeMismatch("coefficient rows and bank filters index different supports")
    if coeffs.rows.shape != bank.spectra.shape:
        raise ShapeMismatch(
            f"coefficient shape {coeffs.rows.shape} does not match bank shape {bank.spectra.shape}"
        )
    # fixed enumeration order keeps the summation bit-deterministic
    acc = np.zeros(coeffs.rows.shape[1], dtype=complex)
    for row, filt in zip(coeffs.rows, bank.spectra):
        acc += np.fft.fft(row) * filt
    return acc


def inverse(coeffs: EwtCoefficients, dual: FilterBank) -> np.ndarray:
    """Reconstruct the signal from coefficients and a dual bank.

    For coeffs = forward(f, bank) and dual = dual_bank(bank) this recovers f
    exactly on every bin outside ``dual.singular_bins``.
    """
    return np.fft.ifft(_accumulate(coeffs, dual))


def inverse_tight(coeffs: EwtCoefficients, bank: FilterBank, frame_bound: float = 1.0) -> np.ndarray:
    """Reconstruct using the analysis filters themselves, scaled by 1/A.

    Exact only when the bank is tight with constant squared sum A; verifying
    tightness is the caller's job (see frame_analysis).
    """
    a = float(frame_bound)
    if a <= 0.0:
        raise NonPositiveA(f"frame bound must be > 0, got {a}")
    return np.fft.ifft(_accumulate(coeffs, bank) / a)
