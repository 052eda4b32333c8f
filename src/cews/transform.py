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
from .families import FilterBank, _set_bands, fill_row
from .frame_analysis import DEFAULT_EPSILON, check_epsilon, sum_squares


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
    # one K x N buffer; the spectrum stays the left operand, since complex
    # multiplication in numpy is not bit-commutative
    rows = np.conj(bank.spectra)
    np.multiply(np.fft.fft(x)[None, :], rows, out=rows)
    np.fft.ifft(rows, axis=1, out=rows)
    rows.setflags(write=False)
    return EwtCoefficients(rows=rows, support_indices=bank.support_indices)


def dual_bank(bank: FilterBank, epsilon: float = DEFAULT_EPSILON, allow_singular: bool = False) -> FilterBank:
    """Pointwise dual filters phi_n = psi_n / S with S = sum_m |psi_m|^2.

    Bins with S < epsilon make the division meaningless: by default they
    raise SingularFrame (carrying the bin list); with allow_singular=True the
    dual is zeroed there and the bins are listed in ``singular_bins``.

    The dual keeps the bank's bands. Each filter is divided on its band; the
    rest of its row is its out-of-band zero divided by S bin by bin, which is
    the same for every row with the same zero, so it is computed once per
    zero. numpy's complex 0 / S is NaN where S is subnormal; a row whose
    quotient holds a NaN is no longer one zero outside its band, so its dual
    gets the whole-row band.
    """
    epsilon = check_epsilon(epsilon)
    s = sum_squares(bank)
    bad = s < epsilon
    bins = np.nonzero(bad)[0]
    if bins.size and not allow_singular:
        raise SingularFrame(
            f"squared filter sum below {epsilon} at {bins.size} bins", bins=bins
        )
    denom = np.where(bad, 1.0, s)
    grid = bank.grid
    spectra = np.zeros(bank.spectra.shape, dtype=bank.spectra.dtype)
    quotients = {}
    bands = []
    for row, out, (lo, hi) in zip(bank.spectra, spectra, bank.bands):
        k = _regular_bin(grid.run_slices(hi, lo + grid.n_samples), bad)
        if k is not None:
            key = row[k].tobytes()
            if key not in quotients:
                q = row[k] / denom
                quotients[key] = q, bool(np.isnan(q).any())
            q, has_nan = quotients[key]
            if has_nan:
                lo, hi = 0, grid.n_samples
            else:
                fill_row(out, q)
        for sl in grid.run_slices(lo, hi):
            np.divide(row[sl], denom[sl], out=out[sl])
        bands.append((lo, hi))
    spectra[:, bad] = 0.0
    spectra.setflags(write=False)
    dual = replace(bank, spectra=spectra, singular_bins=tuple(int(b) for b in bins))
    _set_bands(dual, bands)
    return dual


def _regular_bin(slices, bad):
    """First bin in ``slices`` that is not singular, or None.

    Outside its band a row holds its one zero at every such bin; the others
    are zero-filled in the dual whatever they hold.
    """
    for sl in slices:
        j = sl.start + int(np.argmin(bad[sl]))
        if not bad[j]:
            return j
    return None


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
    if not 0.0 < a < np.inf:
        raise NonPositiveA(f"frame bound must be finite and > 0, got {a}")
    return np.fft.ifft(_accumulate(coeffs, bank) / a)
