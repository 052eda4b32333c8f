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
from .families import FilterBank, _Quotients, _divide, _fill
from .frame_analysis import DEFAULT_EPSILON, _energy, check_epsilon


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
    linear in the signal and rows are mutually independent. The products are
    taken from the bank's band values and out-of-band zeros, so a bank's
    dense ``spectra`` is never built here.
    """
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size != bank.grid.n_samples:
        raise LengthMismatch(
            f"signal length {x.shape} does not match grid size {bank.grid.n_samples}"
        )
    spectrum = np.fft.fft(x)
    if _shape(bank) == (1, 1):
        # numpy rounds a one-element product taken in place differently from
        # its vector loop, so one cell keeps the whole-array formula's bits
        _, values, zero = next(bank._layout())
        rows = _conj(values[0] if values else zero)[None]
        np.multiply(spectrum[None, :], rows, out=rows)
    else:
        rows = _products(spectrum, bank)
    np.fft.ifft(rows, axis=1, out=rows)
    rows.setflags(write=False)
    return EwtCoefficients(rows=rows, support_indices=bank.support_indices)


def _shape(bank: FilterBank) -> tuple:
    """The (filters, bins) shape of the bank's spectra, which are not read."""
    return len(bank.bands), bank.grid.n_samples


def _products(spectrum, bank: FilterBank) -> np.ndarray:
    """spectrum * conj(spectra[n]) for every row n, computed band by band.

    The spectrum stays the left operand, since complex multiplication in
    numpy is not bit-commutative. Outside its band a row's products are
    signed zeros whose signs follow the spectrum, so they are computed too:
    over the whole row first, against the row's zero as a 1-element array,
    so that numpy runs the same multiply loop as on the whole row, then the
    band's products over them.
    """
    rows = np.empty(_shape(bank), dtype=complex)
    for out, (band, values, zero) in zip(rows, bank._layout()):
        if zero is not None:
            np.multiply(spectrum, np.conj(zero), out=out)
        for sl, part in zip(band, values):
            np.multiply(spectrum[sl], _conj(part), out=out[sl])
    return rows


def _conj(values) -> np.ndarray:
    """conj(values) as a new complex array. Real band values stand for
    complex ones with imaginary part +0.0, so their conjugate is (c, -0.0):
    multiplying by the float c itself would take it as (c, +0.0), and flip
    the sign of a product's zero part."""
    if values.dtype == complex:
        return np.conj(values)
    out = np.empty(values.shape, complex)
    out.real, out.imag = values, -0.0
    return out


def dual_bank(bank: FilterBank, epsilon: float = DEFAULT_EPSILON, allow_singular: bool = False) -> FilterBank:
    """Pointwise dual filters phi_n = psi_n / S with S = sum_m |psi_m|^2.

    Bins with S < epsilon make the division meaningless: by default they
    raise SingularFrame (carrying the bin list); with allow_singular=True
    they are listed in ``singular_bins`` and S is taken as infinity there,
    so every filter is psi / inf, a zero whose signs follow psi.

    The dual keeps the bank's bands and stores only the bank and S, N
    floats: its band values are the bank's, not a copy of them, divided by S
    whenever they are read. Each filter is divided on its band; a signed
    zero over any positive divisor, infinity included, is one and the same
    signed zero, so the row's zero is its quotient by S at bin 0. Its
    ``spectra`` are built, once, on first read.

    S is the bank's, from the walk ``frame_report`` shares; where bins are
    singular a copy of it takes the infinities, so the bank's S never does.
    The dual's ``params`` is None: its frame bounds are not the family's, so
    ``frame_report`` gives it no analytic bounds.
    """
    epsilon = check_epsilon(epsilon)
    denom = _energy(bank)[0]
    bins = np.flatnonzero(denom < epsilon)
    if bins.size and not allow_singular:
        raise SingularFrame(
            f"squared filter sum below {epsilon} at {bins.size} bins", bins=bins
        )
    if bins.size:
        denom = denom.copy()
        denom[bins] = np.inf
        denom.setflags(write=False)
    bins = tuple(int(b) for b in bins)
    return replace(bank, params=None, rows=_Quotients(bank, denom), singular_bins=bins)


def _accumulate(coeffs: EwtCoefficients, bank: FilterBank) -> np.ndarray:
    if coeffs.support_indices != bank.support_indices:
        raise ShapeMismatch("coefficient rows and bank filters index different supports")
    if coeffs.rows.shape != _shape(bank):
        raise ShapeMismatch(
            f"coefficient shape {coeffs.rows.shape} does not match bank shape {_shape(bank)}"
        )
    n = bank.grid.n_samples
    # fixed enumeration order keeps the summation bit-deterministic
    acc = np.zeros(n, dtype=complex)
    buffer = np.empty(n, dtype=complex)
    for row, layout in zip(coeffs.rows, bank._layout()):
        np.fft.fft(row, out=buffer)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(buffer))
        if not finite:
            # inf or NaN times the out-of-band zero is NaN, whose sign bit
            # depends on how numpy's multiply loop splits the row, so the
            # product is taken over the whole row, as one array
            filt = np.zeros(n, dtype=complex)
            _fill(filt, *layout)
            acc += buffer * filt
            continue
        # acc starts at +0.0 and never becomes -0.0, so adding a finite value
        # times the row's out-of-band signed zero would leave it unchanged.
        # No product is taken in place: numpy's in-place multiply of one
        # element need not round as its vector loop does
        band, values, _ = layout
        for sl, part in zip(band, values):
            acc[sl] += buffer[sl] * part
    return acc


def inverse(coeffs: EwtCoefficients, dual: FilterBank) -> np.ndarray:
    """Reconstruct the signal from coefficients and a dual bank.

    For coeffs = forward(f, bank) and dual = dual_bank(bank) this recovers f
    exactly on every bin outside ``dual.singular_bins``.
    """
    acc = _accumulate(coeffs, dual)
    return np.fft.ifft(acc, out=acc)


def inverse_tight(coeffs: EwtCoefficients, bank: FilterBank, frame_bound: float = 1.0) -> np.ndarray:
    """Reconstruct using the analysis filters themselves, scaled by 1/A.

    Exact only when the bank is tight with constant squared sum A; verifying
    tightness is the caller's job (see frame_analysis). The division is the
    dual's, so a subnormal A is exact too.
    """
    a = float(frame_bound)
    if not 0.0 < a < np.inf:
        raise NonPositiveA(f"frame bound must be finite and > 0, got {a}")
    # _divide assigns into its divisor by index, so A goes in as a 0-d array
    acc = _divide(_accumulate(coeffs, bank), np.array(a))
    return np.fft.ifft(acc, out=acc)
