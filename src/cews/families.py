"""Analytic filter evaluators for the four empirical wavelet families, plus a
sampler that freezes them onto a frequency grid as a :class:`FilterBank`.
Littlewood-Paley and Meyer share one sin/cos(pi/2 beta) roll-off profile and
differ only in where its knots sit.

Evaluators accept scalar or array frequencies, are defined on all of R, and
are pure, so sampling a bank twice yields bit-identical spectra. Littlewood-
Paley and Gabor filters are real-valued; every evaluator returns complex for
API uniformity, but a sampled bank stores their band values as floats.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryOutsideGrid,
    DegenerateCenter,
    GammaOutOfRange,
    MeyerRequiresRays,
)
from .partition import Partition
from .spectral import FrequencyGrid

LITTLEWOOD_PALEY = "littlewood-paley"
MEYER = "meyer"
SHANNON = "shannon"
GABOR = "gabor"
FAMILIES = (LITTLEWOOD_PALEY, MEYER, SHANNON, GABOR)

GABOR_RAY_LOCAL = "local"
GABOR_RAY_EXTENDED = "extended"
GABOR_RAY_OPTIONS = (GABOR_RAY_LOCAL, GABOR_RAY_EXTENDED)

HALF_PI = 0.5 * np.pi
# exp(-pi (2.5 u)^2) underflows to exactly +0.0 for |u| beyond this: the
# exponent there is below -750, and exp already gives 0 below about -745.2
GABOR_REACH = math.sqrt(750.0 / math.pi) / 2.5


@dataclass(frozen=True)
class FamilyParams:
    """Family tag plus the per-family knobs.

    ``gamma`` is the Littlewood-Paley transition ratio (that family only);
    ``gabor_rays`` picks how Gabor treats half-infinite supports: "local"
    keeps a pure Gaussian on each ray, "extended" holds the Gaussian's peak
    value constant on the far side of the ray center.
    """

    family: str
    gamma: float = None
    gabor_rays: str = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if (self.family == LITTLEWOOD_PALEY) != (self.gamma is not None):
            raise ValueError("gamma is required for littlewood-paley and invalid elsewhere")
        if (self.family == GABOR) != (self.gabor_rays is not None):
            raise ValueError("gabor_rays is required for gabor and invalid elsewhere")
        if self.gabor_rays is not None and self.gabor_rays not in GABOR_RAY_OPTIONS:
            raise ValueError(f"gabor_rays must be one of {GABOR_RAY_OPTIONS}")


class _Quotients(NamedTuple):
    """The rows of a dual bank, as ``FilterBank._layout`` reads them: those
    of ``bank`` divided by ``denom``, S with +inf at its singular bins."""

    bank: "FilterBank"
    denom: np.ndarray


def _divide(values, denom) -> np.ndarray:
    """values / denom for a positive real denom, complex or real as values
    are. numpy divides a complex number by a real S as (a + b*0) * (1/S),
    and 1/S overflows where S is below the smallest normal float, so there
    both are scaled by 2^64 first, which is exact; real and imaginary parts
    apart, since a complex times a real is not. Real values stand for
    complex ones with imaginary part +0.0, and are divided by that same
    formula, (a + 0.0) * (1/S), whose quotient has imaginary part +0.0 too:
    a plain a / S would round differently."""
    small = denom < np.finfo(float).tiny
    if small.any():
        values, denom = values.copy(), denom.copy()
        values.view(float).reshape(values.size, -1)[small] *= 2.0**64
        denom[small] *= 2.0**64
    if values.dtype == complex:
        return values / denom
    return (values + 0.0) * (1.0 / denom)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Filters sampled on a grid: an analysis family or its pointwise dual.

    ``spectra[i, k]`` is filter i (in support enumeration order) at grid bin
    k. ``singular_bins`` is empty for sampled families; on a dual bank it
    lists the bins where the squared filter sum fell below the guard: the
    dual divides by infinity there, so every filter is a zero.

    ``bands[i] = (lo, hi)`` is the band of filter i: the bins at ascending-xi
    positions lo, ..., hi - 1 (see ``FrequencyGrid.run_slices``), one cyclic
    run in natural bin order. Outside its band, row i holds one constant
    signed zero.

    A bank is built from its band storage only, ``bands`` and ``rows``.
    ``rows[i]`` is ``(values, zero)``: the arrays filter i takes on the
    natural-order slices of its band, and its out-of-band zero as a
    1-element array, None if the band is the whole row. Values are float64
    for a sampled Littlewood-Paley or Gabor bank, each standing for the
    complex value with imaginary part +0.0, and complex128 otherwise; every
    zero is complex128. On a dual from ``dual_bank``, ``rows`` is a
    :class:`_Quotients`, the bank and S, and the bank's values are divided
    by S as they are read. Every library function reads a bank through
    :meth:`_layout`, so none builds the dense ``spectra``, and
    ``dataclasses.replace`` copies the rows and builds nothing.

    ``spectra`` is a read-only view, built on first read and cached. That
    read points the rows at slices of it, which frees the band values: a
    bank and its spectra never hold the values twice. So a caller that
    reads the spectra of a large bank holds one dense array; without the
    re-pointing, the design benchmark's ``peak_rss_mb`` rose past its bound.
    """

    partition: Partition
    params: FamilyParams
    grid: FrequencyGrid
    bands: tuple = field(repr=False)
    rows: tuple = field(repr=False)
    support_indices: tuple
    singular_bins: tuple = ()

    @cached_property
    def spectra(self) -> np.ndarray:
        """The K×N filters, read-only (see the class docstring)."""
        grid = self.grid
        spectra = np.zeros((len(self.bands), grid.n_samples), dtype=complex)
        for row, layout in zip(spectra, self._layout()):
            _fill(row, *layout)
        spectra.setflags(write=False)
        # each row's values on its band, and the bin after the band as its zero
        rows = tuple(
            (
                tuple(row[sl] for sl in grid.run_slices(lo, hi)),
                None if hi - lo == grid.n_samples else row[grid.run_slices(hi, hi + 1)[0]],
            )
            for row, (lo, hi) in zip(spectra, self.bands)
        )
        object.__setattr__(self, "rows", rows)
        return spectra

    def _layout(self):
        """For each row in order: (band, values, zero), the natural-order
        slices of its band in ascending-xi order, its values on each, and the
        one value it takes on every other bin, a 1-element array, or None if
        the band is the whole row. A dual's zero is the bank's divided by S
        at bin 0: a signed zero over any positive S is one signed zero.
        """
        if isinstance(self.rows, _Quotients):
            bank, denom = self.rows
            for band, values, zero in bank._layout():
                values = tuple(_divide(part, denom[sl]) for sl, part in zip(band, values))
                yield band, values, None if zero is None else _divide(zero, denom[:1])
            return
        for (lo, hi), (values, zero) in zip(self.bands, self.rows):
            yield self.grid.run_slices(lo, hi), values, zero


def _fill(row, band, values, zero) -> None:
    """Write one row of a bank's layout onto ``row``, a row of a fresh
    ``np.zeros`` array: the zero over the whole row, only if one of its bits
    is set (the row's +0.0 and its pages are left untouched), then the band."""
    if zero is not None and zero.view(np.uint8).any():
        row[...] = zero
    for sl, part in zip(band, values):
        row[sl] = part


def beta(x):
    """Roll-off polynomial x^4 (35 - 84x + 70x^2 - 20x^3).

    Maps 0 to 0 and 1 to 1 with beta(x) + beta(1 - x) = 1; evaluated as given
    on all of R (callers restrict arguments to [0, 1]).
    """
    arr = np.asarray(x, dtype=float)
    out = arr ** 4 * (35.0 + arr * (-84.0 + arr * (70.0 - 20.0 * arr)))
    if arr.ndim == 0:
        return float(out)
    return out


def _as_xi(xi):
    arr = np.asarray(xi, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _finish(out, scalar):
    out = np.asarray(out, dtype=complex)
    if scalar:
        return complex(out[0])
    return out


# A ray's missing transition: an empty ramp at that end of the line. The fall
# stops at the largest float, so xi = +inf is off it: (inf - inf) / 1 is NaN.
_NO_RISE = (-math.inf, -math.inf, 1.0)
_NO_FALL = (math.inf, np.finfo(float).max, 1.0)


def _bump(x, rise, fall):
    """Roll-off profile shared by Littlewood-Paley and Meyer.

    ``rise`` and ``fall`` are ``(start, stop, width)`` ramps: the profile
    climbs as sin(pi/2 beta((x - start) / width)) on [start, stop), holds 1
    from the rise's stop to the fall's start, falls as cos(pi/2 beta((x -
    start) / width)) on [start, stop] and is 0 elsewhere. A ray's missing
    ramp, ``_NO_RISE`` or ``_NO_FALL``, is empty. ``width`` is passed rather
    than recomputed as stop - start because, in floating point,
    Littlewood-Paley's 2t need not equal (v + t) - (v - t). Writes go
    plateau, fall, rise, so a rise overlapping the fall wins, and the fall's
    1.0 at its start rewrites a one-point plateau (interior Meyer filters).
    """
    out = np.zeros(x.shape)
    out[(x >= rise[1]) & (x <= fall[0])] = 1.0
    start, stop, width = fall
    m = (x >= start) & (x <= stop)
    out[m] = np.cos(HALF_PI * beta((x[m] - start) / width))
    start, stop, width = rise
    m = (x >= start) & (x < stop)
    out[m] = np.sin(HALF_PI * beta((x[m] - start) / width))
    return out


# -- Littlewood-Paley ----------------------------------------------------------


def _zero_half_width(partition: Partition, gamma: float) -> float:
    """Transition half-width at the zero boundary of a V-mode partition.

    gamma * |0| would vanish, so the smaller of the two adjacent boundary
    widths is used instead; the gamma check has ruled out there being none.
    """
    z = partition.boundaries.index(0.0)
    scales = [
        abs(partition.boundaries[i])
        for i in (z - 1, z + 1)
        if 0 <= i < len(partition.boundaries) and math.isfinite(partition.boundaries[i])
    ]
    return gamma * min(scales)


def _check_gamma(partition: Partition, gamma: float) -> float:
    gamma = float(gamma)
    g_max = partition.max_gamma()
    if not 0.0 < gamma < g_max:
        raise GammaOutOfRange(f"gamma must lie in (0, {g_max}), got {gamma}")
    return gamma


def eval_lp(partition: Partition, gamma, n: int, xi):
    """Littlewood-Paley empirical wavelet for support n at frequency xi.

    The filter is 1 on the inner plateau of the support and rolls off through
    a transition interval of half-width gamma*|boundary| around each finite
    boundary: cos(pi/2 beta(.)) leaving the support at the top, sin(pi/2
    beta(.)) entering it at the bottom, 0 outside. In V mode the zero
    boundary uses the substitute half-width from its nearest finite neighbor.
    Ray supports keep the single transition at their finite edge.
    """
    gamma = _check_gamma(partition, gamma)
    s = partition.support(n)
    x, scalar = _as_xi(xi)
    rise, fall = _lp_ramp(partition, gamma, s.lo), _lp_ramp(partition, gamma, s.hi)
    return _finish(_bump(x, rise, fall), scalar)


def _lp_ramp(partition: Partition, gamma: float, value: float) -> tuple:
    """The :func:`_bump` ramp of Littlewood-Paley around a boundary, empty at +-inf."""
    if math.isinf(value):
        return _NO_RISE if value < 0 else _NO_FALL
    t = _zero_half_width(partition, gamma) if value == 0.0 else gamma * abs(value)
    return (value - t, value + t, 2.0 * t)


# -- Meyer ----------------------------------------------------------------------


def _meyer_centers(partition: Partition):
    if not (partition.has_left_ray and partition.has_right_ray):
        raise MeyerRequiresRays(
            "the Meyer family needs ray supports on both ends; outermost "
            "compact supports would lack a neighboring center"
        )
    return [partition.support_center(s.index) for s in partition.supports]


def _meyer_prefactor(amp_span: float, phase_ref: float) -> complex:
    if phase_ref == 0.0:
        raise DegenerateCenter("Meyer phase reference center is zero")
    return math.sqrt(2.0 / amp_span) * np.exp(4j * np.pi / (3.0 * phase_ref))


def eval_meyer(partition: Partition, n: int, xi):
    """Meyer empirical wavelet for support n at frequency xi.

    Interior filters rise with a sin(pi/2 beta) profile from the previous
    support center to their own and fall with the matching cos profile up to
    the next one, scaled by sqrt(2 / (next - previous center)) and a constant
    unimodular phase. The two ray filters hold 1 beyond their outermost
    center and roll off across the single adjacent span.
    """
    rise, fall, pref = _meyer_ramps(_meyer_centers(partition), partition.ordinal(n))
    x, scalar = _as_xi(xi)
    return _finish(pref * _bump(x, rise, fall), scalar)


def _meyer_ramps(centers, pos: int) -> tuple:
    """The (rise, fall) ramps of :func:`_bump` and the prefactor of the Meyer
    filter at position pos, given the support centers in enumeration order.
    Filter pos falls on the ramp that filter pos + 1 rises on."""
    if pos == 0:
        c0, c1 = centers[0], centers[1]
        return _NO_RISE, (c0, c1, c1 - c0), _meyer_prefactor(c1 - c0, abs(c1))
    if pos == len(centers) - 1:
        c0, c1 = centers[-2], centers[-1]
        return (c0, c1, c1 - c0), _NO_FALL, _meyer_prefactor(c1 - c0, abs(c0))
    below, mid, above = centers[pos - 1], centers[pos], centers[pos + 1]
    rise, fall = (below, mid, mid - below), (mid, above, above - mid)
    return rise, fall, _meyer_prefactor(above - below, max(abs(below), abs(above)))


# -- Shannon ---------------------------------------------------------------------


def eval_shannon(partition: Partition, n: int, xi):
    """Shannon empirical wavelet for support n at frequency xi.

    Compact supports carry the linear-phase indicator
    exp(-i pi/2 ((xi - center)/width + 3/2)) / sqrt(width) on [lo, hi); the
    left ray is the constant -1 on (-inf, hi) and the right ray the constant
    -i on [lo, +inf). Supports are half-open so shared boundaries are never
    double counted.
    """
    s = partition.support(n)
    x, scalar = _as_xi(xi)
    out = np.zeros(x.shape, dtype=complex)
    if s.is_left_ray:
        out[x < s.hi] = -1.0
    elif s.is_right_ray:
        out[x >= s.lo] = -1j
    else:
        width = s.length
        center = partition.support_center(n)
        m = (x >= s.lo) & (x < s.hi)
        out[m] = np.exp(-1j * HALF_PI * ((x[m] - center) / width + 1.5)) / math.sqrt(width)
    return _finish(out, scalar)


# -- Gabor -----------------------------------------------------------------------


def gabor_mother(xi):
    """Unit-peak Gaussian window exp(-pi (2.5 xi)^2).

    The 2.5 localization factor keeps essentially all of the energy (99.999%)
    inside [-1/2, 1/2].
    """
    arr = np.asarray(xi, dtype=float)
    out = np.exp(-np.pi * (2.5 * arr) ** 2)
    if arr.ndim == 0:
        return float(out)
    return out


def _gabor_scale(partition: Partition, n: int) -> tuple:
    """(center, width) of Gabor filter n; a ray borrows its neighbor's width."""
    s = partition.support(n)
    width = partition.compact_neighbor(n).length if s.is_ray else s.length
    return partition.support_center(n), width


def eval_gabor(partition: Partition, ray_option: str, n: int, xi):
    """Gabor empirical wavelet for support n at frequency xi.

    Compact supports scale the mother Gaussian to the support width and shift
    it to the support center. Ray filters are Gaussians centered at the ray
    center with the adjacent compact support's width as scale; with the
    "extended" option the far side of the ray center is held at the Gaussian
    peak value instead of decaying, so distant spectral content is retained.
    """
    if ray_option not in GABOR_RAY_OPTIONS:
        raise ValueError(f"ray_option must be one of {GABOR_RAY_OPTIONS}")
    x, scalar = _as_xi(xi)
    return _finish(_gabor(partition, ray_option, n, x), scalar)


def _gabor(partition: Partition, ray_option: str, n: int, x) -> np.ndarray:
    """:func:`eval_gabor` at the frequencies of the 1-D array x, as real floats."""
    s = partition.support(n)
    center, width = _gabor_scale(partition, n)
    out = gabor_mother((x - center) / width) / math.sqrt(width)
    if s.is_ray and ray_option == GABOR_RAY_EXTENDED:
        far = x <= center if s.is_left_ray else x >= center
        out[far] = 1.0 / math.sqrt(width)
    return out


# -- sampling --------------------------------------------------------------------


def _position(grid: FrequencyGrid, v, side: str):
    """``np.searchsorted(grid.xi[grid.order], v, side)`` as an int, or a list
    of ints for an array v, without sorting the grid: every negative bin
    (N//2 + 1, ..., N - 1 in natural order) sorts before every other one (0,
    ..., N//2), and each half is ascending, so the position is the sum of
    the two halves' counts."""
    half = grid.n_samples // 2 + 1
    pos = np.searchsorted(grid.xi[half:], v, side) + np.searchsorted(grid.xi[:half], v, side)
    return pos.tolist()


def _write(band, lo: int, first: int, stop: int, values, pref) -> None:
    """Lay ``values`` (ascending-xi order, or one float) on sorted positions
    first, ..., stop - 1 of ``band``, the values at sorted positions lo,
    ..., times ``pref`` unless it is None."""
    part = band[first - lo : stop - lo]
    if pref is None:
        part[...] = values
    else:
        np.multiply(pref, values, out=part)


def _band_storage(grid: FrequencyGrid, bands, dtype) -> list:
    """For each band (lo, hi): ``(buffer, pieces)``, a zeroed ``dtype`` array
    for the row's values at sorted positions lo, ..., hi - 1 and its views on
    the natural-order slices of ``grid.run_slices(lo, hi)``. Every buffer is
    a view of one array, so that a bank's band storage is one allocation,
    which freed leaves one hole for the allocator to reuse, not one per row.
    """
    stops = np.cumsum([hi - lo for lo, hi in bands])
    storage = []
    for buffer, (lo, hi) in zip(np.split(np.zeros(stops[-1], dtype), stops[:-1]), bands):
        sizes = [sl.stop - sl.start for sl in grid.run_slices(lo, hi)]
        storage.append((buffer, tuple(np.split(buffer, sizes[:-1])) if sizes else ()))
    return storage


def _angles(grid: FrequencyGrid, ramp: tuple, lo: int, hi: int) -> np.ndarray:
    """pi/2 beta((xi - start) / width) of a (start, stop, width) ramp on the
    bins at sorted positions lo, ..., hi - 1, in that order."""
    start, _, width = ramp
    slices = grid.run_slices(lo, hi)
    if len(slices) == 2:
        x = np.concatenate([grid.xi[sl] for sl in slices])
    else:
        x = grid.xi[slices[0] if slices else slice(0)]
    return HALF_PI * beta((x - start) / width)


def _sample_bumps(partition: Partition, params: FamilyParams, grid: FrequencyGrid) -> tuple:
    """The bands and band storage of a Littlewood-Paley or Meyer bank.

    Filter i rises on ramp i and falls on ramp i + 1, the ramp filter i + 1
    rises on; a ray's missing ramp is empty, and so is its run. So each
    ramp's angles are computed once, over its closed run of sorted positions:
    the fall takes their cos, the neighbour's rise their sin over the
    half-open prefix of the run. Writes go plateau, fall, rise, as in
    :func:`_bump`. Meyer values are times the filter's prefactor, and outside
    its band a Meyer row holds the prefactor times 0; a Littlewood-Paley row
    holds +0.0 there, and its band values are stored as real floats.
    """
    if params.family == LITTLEWOOD_PALEY:
        gamma = _check_gamma(partition, params.gamma)
        ramps = [_lp_ramp(partition, gamma, v) for v in partition.boundaries]
        prefactors, dtype = [None] * len(partition.supports), float
    else:
        centers = _meyer_centers(partition)
        plans = [_meyer_ramps(centers, pos) for pos in range(len(centers))]
        ramps = [rise for rise, _, _ in plans] + [_NO_FALL]
        prefactors, dtype = [pref for _, _, pref in plans], complex
    n_bins = grid.n_samples
    # each ramp's sorted positions: start, stop if half-open, stop if closed
    starts, stops = np.array(ramps)[:, :2].T
    ends = [(starts, "left"), (stops, "left"), (stops, "right")]
    runs = list(zip(*(_position(grid, v, side) for v, side in ends)))
    angles = _angles(grid, ramps[0], runs[0][0], runs[0][2])
    bands = [(rise[0], fall[2]) for rise, fall in zip(runs, runs[1:])]
    rows = []
    for i, (pref, (lo, hi), (band, pieces)) in enumerate(
        zip(prefactors, bands, _band_storage(grid, bands, dtype))
    ):
        rise, fall = runs[i], runs[i + 1]
        # a plateau bin on the fall's start takes the fall's 1.0 instead
        _write(band, lo, rise[1], fall[0], 1.0, pref)
        rise_angles, angles = angles, _angles(grid, ramps[i + 1], fall[0], fall[2])
        _write(band, lo, fall[0], fall[2], np.cos(angles), pref)
        _write(band, lo, rise[0], rise[1], np.sin(rise_angles[: rise[1] - rise[0]]), pref)
        zero = None
        if hi - lo < n_bins:
            zero = np.zeros(1, dtype=complex) if pref is None else pref * np.zeros(1)
        rows.append((pieces, zero))
    return tuple(bands), tuple(rows)


def _sample_direct(partition: Partition, params: FamilyParams, grid: FrequencyGrid) -> tuple:
    """The bands and band storage of a Shannon or Gabor bank: each row its
    evaluator on its band and, as its zero, its evaluator at the first bin
    outside the band (+0.0 for both families, but the evaluator runs there
    anyway: with a tiny width, Gabor's (xi - center) / width overflows, and
    that must raise or warn as it does on the whole row). Gabor's band
    values are stored as the real floats its evaluator computes; every
    zero is complex."""
    plans = []
    dtype = complex if params.family == SHANNON else float
    for n in partition.support_indices:
        s = partition.support(n)
        if params.family == SHANNON:
            evaluate = partial(eval_shannon, partition, n)
            lo, hi = _position(grid, s.lo, "left"), _position(grid, s.hi, "left")
        else:
            evaluate = partial(_gabor, partition, params.gabor_rays, n)
            center, width = _gabor_scale(partition, n)
            first, last = center - GABOR_REACH * width, center + GABOR_REACH * width
            if params.gabor_rays == GABOR_RAY_EXTENDED:
                first = -math.inf if s.is_left_ray else first
                last = math.inf if s.is_right_ray else last
            lo, hi = _position(grid, first, "left"), _position(grid, last, "right")
        plans.append((evaluate, (lo, hi)))
    bands = [band for _, band in plans]
    rows = []
    for (evaluate, (lo, hi)), (_, pieces) in zip(plans, _band_storage(grid, bands, dtype)):
        first_out = grid.run_slices(hi, hi + 1)[0]
        zero = evaluate(grid.xi[first_out]).astype(complex) if hi - lo < grid.n_samples else None
        for piece, sl in zip(pieces, grid.run_slices(lo, hi)):
            piece[...] = evaluate(grid.xi[sl])
        rows.append((pieces, zero))
    return tuple(bands), tuple(rows)


def sample_bank(partition: Partition, params: FamilyParams, grid: FrequencyGrid) -> FilterBank:
    """Evaluate every filter of the family at every grid bin.

    Finite boundaries must sit strictly inside (-pi, pi); ray supports run to
    the grid edges. The result is deterministic: each cell is the pointwise
    evaluator at that bin, to the bit. Only each filter's band is computed
    and stored (see :class:`FilterBank`); the rest of its row is one signed
    zero (Meyer's is its prefactor times 0,
    which may be -0.0 in either part; every other family's is +0.0). The band
    is the family's support interval on the grid: closed for the roll-off
    families, since their fall ends at cos(pi/2) ~ 6e-17 rather than 0, and
    half-open like the support itself for Shannon. Gabor's is
    |xi - center| <= GABOR_REACH * width, beyond which its Gaussian is
    exactly +0.0. Rays run to the grid edge, and so does the far side of an
    extended Gabor ray.
    """
    for v in partition.boundaries:
        if math.isfinite(v) and not (-math.pi < v < math.pi):
            raise BoundaryOutsideGrid(f"finite boundary {v} is outside (-pi, pi)")
    sample = _sample_bumps if params.family in (LITTLEWOOD_PALEY, MEYER) else _sample_direct
    bands, rows = sample(partition, params, grid)
    return FilterBank(
        partition=partition,
        params=params,
        grid=grid,
        bands=bands,
        rows=rows,
        support_indices=partition.support_indices,
    )
