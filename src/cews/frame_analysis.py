"""Frame diagnostics: the pointwise squared filter sum, empirical frame
bounds, per-filter norms, and the closed-form bounds each family admits."""

from dataclasses import dataclass

import numpy as np

from .families import (
    GABOR,
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
    closed form. ``singular_bins`` lists bins where S fell below the epsilon
    used to build the report.
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

    Each filter adds only over its band; outside it it would add an exact 0.
    """
    acc = np.zeros(bank.spectra.shape[1])
    for row, band in zip(bank.spectra, bank.bands):
        for sl in bank.grid.run_slices(*band):
            acc[sl] += np.abs(row[sl]) ** 2
    return acc


def empirical_bounds(bank) -> tuple:
    """(min, max) of the squared filter sum over the grid bins."""
    s = sum_squares(bank)
    return float(s.min()), float(s.max())


def filter_norms(bank) -> tuple:
    """Trapezoidal grid quadrature of |psi_n|^2, one value per filter.

    The integrand runs over the whole grid in ascending xi, zero outside the
    filter's band, so the pairwise sum is the same as for the dense row.
    """
    h = bank.grid.spacing
    line = np.zeros(bank.grid.n_samples)
    norms = []
    for row, (lo, hi) in zip(bank.spectra, bank.bands):
        pos = lo
        for sl in bank.grid.run_slices(lo, hi):
            stop = pos + sl.stop - sl.start
            line[pos:stop] = np.abs(row[sl]) ** 2
            pos = stop
        norms.append(float(np.trapezoid(line, dx=h)))
        line[lo:hi] = 0.0
    return tuple(norms)


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
    partitions without both rays get (None, None). Gabor has no finite upper
    closed form and, with "local" rays, no positive lower one either; its
    lower bound carries the 1/width normalization of the scaled filters, so
    it is exp(-25 pi / 8) / max compact width.
    """
    if not (partition.has_left_ray and partition.has_right_ray):
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
    """Assemble the full diagnostic report for a sampled bank."""
    epsilon = check_epsilon(epsilon)
    s = sum_squares(bank)
    a_ana, b_ana = analytic_bounds(bank.params, bank.partition)
    return FrameReport(
        sum_squares=s,
        a_empirical=float(s.min()),
        b_empirical=float(s.max()),
        a_analytic=a_ana,
        b_analytic=b_ana,
        per_filter_norm=filter_norms(bank),
        singular_bins=tuple(int(b) for b in np.nonzero(s < epsilon)[0]),
    )
