"""Adaptive wavelet filter banks on data-driven partitions of the frequency
line, with exact dual-frame reconstruction and frame diagnostics."""

from .families import (
    FAMILIES,
    FamilyParams,
    FilterBank,
    beta,
    eval_lp,
    gabor_mother,
    sample_bank,
)
from .frame_analysis import (
    GABOR_EDGE_ENERGY,
    analytic_bounds,
    empirical_bounds,
    filter_norms,
    frame_report,
    sum_squares,
)
from .partition import build_partition
from .spectral import FrequencyGrid, dft, modulate, translate
from .transform import EwtCoefficients, dual_bank, forward, inverse, inverse_tight

__version__ = "0.1.0"
