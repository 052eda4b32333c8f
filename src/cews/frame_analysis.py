"""Frame diagnostics: the pointwise squared filter sum, empirical frame
bounds, per-filter norms, and the closed-form bounds each family admits."""

from dataclasses import dataclass

import numpy as np

from .families import (
    GABOR_RAY_EXTENDED,
    LITTLEWOOD_PALEY,
    MEYER,
    SHANNON,
    FamilyParams,
)
from .partition import Partition

# squared modulus of the Gabor mother at half width, exp(-25 pi / 8)
GABOR_EDGE_ENERGY = float(np.exp(-25.0 * np.pi / 8.0))
DEFAULT_EPSILON = 1e-12  # bins where S < epsilon are singular


def check_epsilon(epsilon) -> float:
    """epsilon as a float; finite and > 0, since a NaN guard marks no bin singular."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    return epsilon


@dataclass(frozen=True, eq=False)
class FrameReport:
    """Summary of S(xi) = sum_n |psi_n(xi)|^2 over the grid.

    Analytic bounds are None for families (or ray configurations) without a
    closed form, and for a dual bank. ``singular_bins`` lists bins where S
    fell below the epsilon used to build the report.
    """

    sum_squares: np.ndarray
    a_empirical: float
    b_empirical: float
    a_analytic: float
    b_analytic: float
    per_filter_norm: tuple
    singular_bins: tuple


def sum_squares(bank) -> np.ndarray:
    """S(xi_k) = sum over filters of |spectra[n, k]|^2, in fixed index order.

    Each filter adds only its band values, read through ``bank._layout()``;
    outside its band it would add an exact 0.
    """
    acc = np.zeros(bank.grid.n_samples)
    for band, values, _ in bank._layout():
        for sl, part in zip(band, values):
            acc[sl] += np.abs(part) ** 2
    return acc


def empirical_bounds(bank) -> tuple:
    """(min, max) of the squared filter sum over the grid bins."""
    s = _energy(bank)[0]
    return float(s.min()), float(s.max())


def filter_norms(bank) -> tuple:
    """Trapezoidal grid quadrature of |psi_n|^2, one value per filter.

    The value is ``np.trapezoid`` of |psi_n|^2 over the whole grid in
    ascending xi, to the bit, but built from the filter's band alone: see
    :func:`_pairwise_norm`.
    """
    return _energy(bank)[1]


def _energy(bank) -> tuple:
    """(S, norms): the bank's squared filter sum, read-only, and its
    :func:`filter_norms`, from one :func:`_norms` walk that is kept on the
    bank for every later reader. Only a finite S with finite norms is kept,
    so one that overflowed is walked, and warns, again on each read."""
    energy = getattr(bank, "_energy", None)
    if energy is None:
        s = np.zeros(bank.grid.n_samples)
        norms = _norms(bank, s)
        s.setflags(write=False)
        energy = s, norms
        if np.isfinite(s.max()) and np.isfinite(norms).all():
            object.__setattr__(bank, "_energy", energy)
    return energy


def _norms(bank, acc) -> tuple:
    """:func:`filter_norms`, and each filter's |psi|^2 added into ``acc``,
    filter by filter as :func:`sum_squares` does, so that ``acc`` ends as S
    to the bit: each band cell's |psi|^2 is computed once for both."""
    n_terms = bank.grid.n_samples - 1
    return tuple(
        float(_pairwise_norm(values, bank.grid, band, 0, n_terms, acc))
        for (_, values, _), band in zip(bank._layout(), bank.bands)
    )


# numpy sums a float64 array by a pairwise tree that depends only on its
# length: halves split at a multiple of 8, down to leaves of at most 128
# terms; a node this small (a leaf at least) is summed in one call
_DIRECT_TERMS = 1 << 13


def _pairwise_norm(values, grid, band, start, count, acc):
    """The node of numpy's pairwise sum over trapezoid terms start, ...,
    start + count - 1 of |row|^2 on the ascending grid, for the row whose
    band (lo, hi) holds ``values``, its ``_layout`` values: together they
    run over sorted positions lo, ..., hi - 1.

    Term j is h (y[j + 1] + y[j]) / 2, h the grid spacing, so only terms
    lo - 1, ..., hi - 1 of band (lo, hi) can be nonzero. A node that misses
    them sums to an exact 0.0; a node of at most _DIRECT_TERMS terms that
    meets them is summed by ``np.add.reduce``, which walks the same subtree
    (its leading 0.0 identity changes no sum of non-negative terms); any
    other node adds its two halves, as numpy does. Temporaries therefore
    hold at most _DIRECT_TERMS + 1 values, whatever the grid size.

    A summed node also adds the |row|^2 of positions start, ...,
    start + count - 1 into ``acc``, and the last node the last position's
    too, so every band position is added once.
    """
    lo, hi = band
    if start >= hi or start + count < lo:
        return 0.0
    if count <= _DIRECT_TERMS:
        y = np.zeros(count + 1)
        first, stop, pos = max(start, lo), min(start + count + 1, hi), lo
        for part in values:
            a, b = max(first, pos), min(stop, pos + part.size)
            if a < b:
                y[a - start : b - start] = np.abs(part[a - pos : b - pos]) ** 2
            pos += part.size
        last = start + count + (start + count == grid.n_samples - 1)
        for sl in grid.run_slices(first, min(last, hi)):
            acc[sl] += y[first - start : first - start + sl.stop - sl.start]
            first += sl.stop - sl.start
        return np.add.reduce(grid.spacing * (y[1:] + y[:-1]) / 2.0)
    half = count // 2 - count // 2 % 8
    return _pairwise_norm(values, grid, band, start, half, acc) + _pairwise_norm(
        values, grid, band, start + half, count - half, acc
    )


def _meyer_bounds(partition: Partition) -> tuple:
    centers = [partition.support_center(s.index) for s in partition.supports]
    spans = [centers[1] - centers[0], centers[-1] - centers[-2]]
    spans += [centers[p + 1] - centers[p - 1] for p in range(1, len(centers) - 1)]
    values = [2.0 / span for span in spans]
    return min(values), max(values)


def _shannon_bounds(partition: Partition) -> tuple:
    # ray supports count with the conventional width 1
    widths = [1.0 if s.is_ray else s.length for s in partition.supports]
    return 1.0 / max(widths), 1.0 / min(widths)


def analytic_bounds(params: FamilyParams, partition: Partition) -> tuple:
    """Closed-form frame bounds (a, b) where the family defines them.

    The bound statements presuppose that the filters cover the whole line, so
    partitions without both rays get (None, None), and so do the params
    None of a dual bank. Gabor has no finite upper closed form and, with
    "local" rays, no positive lower one either; its lower bound carries the
    1/width normalization of the scaled filters, so it is exp(-25 pi / 8) /
    max compact width.
    """
    if params is None or not (partition.has_left_ray and partition.has_right_ray):
        return None, None
    if params.family == LITTLEWOOD_PALEY:
        return 1.0, 1.0
    if params.family == MEYER:
        return _meyer_bounds(partition)
    if params.family == SHANNON:
        return _shannon_bounds(partition)
    if params.gabor_rays != GABOR_RAY_EXTENDED:
        return None, None
    widest = max(s.length for s in partition.supports if not s.is_ray)
    return GABOR_EDGE_ENERGY / widest, None


def frame_report(bank, epsilon: float = DEFAULT_EPSILON) -> FrameReport:
    """Assemble the full diagnostic report for a sampled bank. S and the
    norms come from the bank's one walk (:func:`_energy`), shared with
    ``dual_bank``, so the report's ``sum_squares`` is read-only."""
    epsilon = check_epsilon(epsilon)
    s, norms = _energy(bank)
    a_ana, b_ana = analytic_bounds(bank.params, bank.partition)
    return FrameReport(
        sum_squares=s,
        a_empirical=float(s.min()),
        b_empirical=float(s.max()),
        a_analytic=a_ana,
        b_analytic=b_ana,
        per_filter_norm=norms,
        singular_bins=tuple(int(b) for b in np.nonzero(s < epsilon)[0]),
    )
