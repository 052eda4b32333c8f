"""The public surface of ``import cews``, and the module attributes that the
traced benchmark run patches."""

import types

import pytest

import cews
import cews.cli
import cews.io

EXPORTED = {
    "FAMILIES", "FamilyParams", "FilterBank", "beta", "eval_lp", "gabor_mother", "sample_bank",
    "GABOR_EDGE_ENERGY", "analytic_bounds", "empirical_bounds", "filter_norms", "frame_report",
    "sum_squares", "build_partition", "FrequencyGrid", "dft", "modulate", "translate",
    "EwtCoefficients", "dual_bank", "forward", "inverse", "inverse_tight", "__version__",
}

# what the benchmark's traced run replaces with timing wrappers
PATCHED = {
    cews: [
        "sample_bank", "build_partition", "FrequencyGrid", "forward", "inverse",
        "inverse_tight", "dual_bank", "frame_report",
    ],
    cews.io: [
        "sample_bank", "build_partition", "FrequencyGrid", "load_config", "realize_bank",
        "read_signal_csv", "read_signal_raw", "read_coefficients", "write_signal_csv",
        "write_coefficients",
    ],
    cews.cli: [
        "forward", "inverse", "inverse_tight", "dual_bank", "frame_report", "cmd_filters",
        "cmd_forward", "cmd_inverse", "cmd_roundtrip", "cmd_frame",
    ],
}


def test_package_exports_exactly_the_documented_names():
    public = {
        name
        for name, value in vars(cews).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public | {"__version__"} == EXPORTED
    assert isinstance(cews.__version__, str)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in PATCHED.items() for n in names]
)
def test_patched_names_resolve(module, name):
    assert callable(getattr(module, name))
