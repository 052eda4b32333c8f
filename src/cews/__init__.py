"""Adaptive wavelet filter banks on data-driven partitions of the frequency
line, with exact dual-frame reconstruction and frame diagnostics."""

from . import errors
from .families import (
    FAMILIES,
    GABOR,
    GABOR_RAY_EXTENDED,
    GABOR_RAY_LOCAL,
    LITTLEWOOD_PALEY,
    MEYER,
    SHANNON,
    FamilyParams,
    FilterBank,
    beta,
    eval_gabor,
    eval_lp,
    eval_meyer,
    eval_shannon,
    gabor_mother,
    sample_bank,
)
from .frame_analysis import (
    GABOR_EDGE_ENERGY,
    FrameReport,
    analytic_bounds,
    empirical_bounds,
    filter_norms,
    frame_report,
    sum_squares,
)
from .partition import Partition, Support, V_MODE, VSTAR_MODE, build_partition
from .spectral import FrequencyGrid, dft, modulate, translate
from .transform import EwtCoefficients, dual_bank, forward, inverse, inverse_tight

__version__ = "0.1.0"
