"""Analytic filter evaluators for the four empirical wavelet families, plus a
sampler that freezes them onto a frequency grid as a :class:`FilterBank`.
Littlewood-Paley and Meyer share one sin/cos(pi/2 beta) roll-off profile and
differ only in where its knots sit.

Evaluators accept scalar or array frequencies, are defined on all of R, and
are pure, so sampling a bank twice yields bit-identical spectra. Littlewood-
Paley and Gabor filters are real-valued; every evaluator returns complex for
API uniformity.
"""

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Filters sampled on a grid: an analysis family or its pointwise dual.

    ``spectra[i, k]`` is filter i (in support enumeration order) at grid bin
    k. ``singular_bins`` is empty for sampled families; on a dual bank it
    lists the bins where the squared filter sum fell below the guard and
    every filter was zero-filled.

    ``bands[i] = (lo, hi)`` is the band of filter i: the bins at ascending-xi
    positions lo, ..., hi - 1 (see ``FrequencyGrid.run_slices``), one cyclic
    run in natural bin order. Outside its band, row i holds one constant
    signed zero, except at ``singular_bins``, where every row holds 0.0.
    ``spectra`` stays dense; the bands only tell the bank's consumers which
    cells they may skip. They are not a constructor argument: a bank built
    directly or by ``dataclasses.replace`` has whole-row bands, and only
    :func:`sample_bank` and ``dual_bank`` narrow them, from the spectra they
    have just computed.
    """

    partition: Partition
    params: FamilyParams
    grid: FrequencyGrid
    spectra: np.ndarray
    support_indices: tuple
    singular_bins: tuple = ()
    bands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _set_bands(self, ((0, self.grid.n_samples),) * len(self.spectra))


def _set_bands(bank: FilterBank, bands) -> None:
    """Set the bands of a freshly built bank; they must hold for its spectra."""
    object.__setattr__(bank, "bands", tuple(bands))


def fill_row(row, value) -> None:
    """Set a row of a fresh ``np.zeros`` array to ``value`` (an array that
    broadcasts to it), leaving the row untouched when every bit of ``value``
    is 0, as in +0.0: the row holds that already, and its pages stay unwritten.
    """
    if value.view(np.uint8).any():
        row[:] = value


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


def _bump(x, rise, fall):
    """Roll-off profile shared by Littlewood-Paley and Meyer.

    ``rise`` and ``fall`` are ``(start, stop, width)`` ramps or None: the
    profile climbs as sin(pi/2 beta((x - start) / width)) on [start, stop),
    holds 1 between the ramps, falls as cos(pi/2 beta((x - start) / width))
    on [start, stop] and is 0 elsewhere. A missing ramp extends the plateau
    to that end of the line. ``width`` is passed rather than recomputed as
    stop - start because, in floating point, Littlewood-Paley's 2t need not
    equal (v + t) - (v - t). Writes go plateau, fall, rise, so a rise
    overlapping the fall wins. The
    fall is exactly 1 at its start, so a one-point plateau (interior Meyer
    filters) needs no pass of its own.
    """
    out = np.zeros(x.shape)
    if rise is None:
        out[x <= fall[0]] = 1.0
    elif fall is None:
        out[x >= rise[1]] = 1.0
    elif rise[1] < fall[0]:
        out[(x >= rise[1]) & (x <= fall[0])] = 1.0
    if fall is not None:
        start, stop, width = fall
        m = (x >= start) & (x <= stop)
        out[m] = np.cos(HALF_PI * beta((x[m] - start) / width))
    if rise is not None:
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
    rise, fall = _lp_ramps(partition, _check_gamma(partition, gamma), n)
    x, scalar = _as_xi(xi)
    return _finish(_bump(x, rise, fall), scalar)


def _lp_ramps(partition: Partition, gamma: float, n: int) -> tuple:
    """The (rise, fall) ramps of :func:`_bump` for Littlewood-Paley filter n."""
    s = partition.support(n)

    def ramp(value):
        t = _zero_half_width(partition, gamma) if value == 0.0 else gamma * abs(value)
        return (value - t, value + t, 2.0 * t)

    return (None if s.is_left_ray else ramp(s.lo)), (None if s.is_right_ray else ramp(s.hi))


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
    rise, fall, pref = _meyer_ramps(partition, n)
    x, scalar = _as_xi(xi)
    return _finish(pref * _bump(x, rise, fall), scalar)


def _meyer_ramps(partition: Partition, n: int) -> tuple:
    """The (rise, fall) ramps of :func:`_bump` and the prefactor of Meyer filter n."""
    centers = _meyer_centers(partition)
    pos = partition.ordinal(n)
    if pos == 0:
        c0, c1 = centers[0], centers[1]
        return None, (c0, c1, c1 - c0), _meyer_prefactor(c1 - c0, abs(c1))
    if pos == len(centers) - 1:
        c0, c1 = centers[-2], centers[-1]
        return (c0, c1, c1 - c0), None, _meyer_prefactor(c1 - c0, abs(c0))
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
    s = partition.support(n)
    x, scalar = _as_xi(xi)
    center, width = _gabor_scale(partition, n)
    out = gabor_mother((x - center) / width) / math.sqrt(width)
    if s.is_ray and ray_option == GABOR_RAY_EXTENDED:
        far = x <= center if s.is_left_ray else x >= center
        out[far] = 1.0 / math.sqrt(width)
    return _finish(out, scalar)


# -- sampling --------------------------------------------------------------------


def _evaluate(partition, params, n, xi):
    if params.family == LITTLEWOOD_PALEY:
        return eval_lp(partition, params.gamma, n, xi)
    if params.family == MEYER:
        return eval_meyer(partition, n, xi)
    if params.family == SHANNON:
        return eval_shannon(partition, n, xi)
    return eval_gabor(partition, params.gabor_rays, n, xi)


def _band(partition, params, n, sorted_xi) -> tuple:
    """Sorted-position run (lo, hi) outside which filter n is zero.

    It is the family's support interval on the grid: closed for the
    roll-off families, since their fall ends at cos(pi/2) ~ 6e-17 rather
    than 0, and half-open like the support itself for Shannon. Gabor's is
    |xi - center| <= GABOR_REACH * width, beyond which its Gaussian is
    exactly +0.0. Rays run to the grid edge, and so does the far side of
    an extended Gabor ray.
    """
    s = partition.support(n)
    side = "right"
    if params.family == SHANNON:
        first, last, side = s.lo, s.hi, "left"
    elif params.family == GABOR:
        center, width = _gabor_scale(partition, n)
        first, last = center - GABOR_REACH * width, center + GABOR_REACH * width
        if params.gabor_rays == GABOR_RAY_EXTENDED:
            first = -math.inf if s.is_left_ray else first
            last = math.inf if s.is_right_ray else last
    else:
        if params.family == LITTLEWOOD_PALEY:
            rise, fall = _lp_ramps(partition, _check_gamma(partition, params.gamma), n)
        else:
            rise, fall, _ = _meyer_ramps(partition, n)
        first = -math.inf if rise is None else rise[0]
        last = math.inf if fall is None else fall[1]
    lo = int(np.searchsorted(sorted_xi, first, side="left"))
    return lo, int(np.searchsorted(sorted_xi, last, side=side))


def sample_bank(partition: Partition, params: FamilyParams, grid: FrequencyGrid) -> FilterBank:
    """Evaluate every filter of the family at every grid bin.

    Finite boundaries must sit strictly inside (-pi, pi); ray supports run to
    the grid edges. The result is deterministic: each cell is the pointwise
    evaluator at that bin. The evaluator runs only on each filter's band;
    every other cell of a row takes the evaluator's value at one bin outside
    the band, a signed zero (Meyer's is its prefactor times 0, which may be
    -0.0 in either part).
    """
    for v in partition.boundaries:
        if math.isfinite(v) and not (-math.pi < v < math.pi):
            raise BoundaryOutsideGrid(f"finite boundary {v} is outside (-pi, pi)")
    n_bins = grid.n_samples
    sorted_xi = grid.xi[grid.order]
    spectra = np.zeros((len(partition.supports), n_bins), dtype=complex)
    bands = []
    for row, n in zip(spectra, partition.support_indices):
        lo, hi = _band(partition, params, n, sorted_xi)
        outside = grid.run_slices(hi, lo + n_bins)
        if outside:
            k = outside[0].start
            fill_row(row, _evaluate(partition, params, n, grid.xi[k : k + 1]))
        for sl in grid.run_slices(lo, hi):
            row[sl] = _evaluate(partition, params, n, grid.xi[sl])
        bands.append((lo, hi))
    spectra.setflags(write=False)
    bank = FilterBank(
        partition=partition,
        params=params,
        grid=grid,
        spectra=spectra,
        support_indices=partition.support_indices,
    )
    _set_bands(bank, bands)
    return bank
