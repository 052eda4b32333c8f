import contextlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, strategies as st

# When a property fails, hypothesis's report hook imports this module, and
# with it libcst, whose import raises a DeprecationWarning. Under
# filterwarnings = error that would abort the session with INTERNALERROR,
# hiding the failing example and every later test, so import it here once.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from cews import FamilyParams, FrequencyGrid, build_partition, eval_lp
from cews.families import eval_gabor, eval_meyer, eval_shannon

PI = math.pi
INF = math.inf

# reference zero-free partition with left and right rays; boundaries exceed pi,
# so it is used analytically as-is and scaled by 1/4 for anything on a grid
EXAMPLE_BOUNDS = (-INF, -3 * PI, -PI, -PI / 3, PI / 2, 3 * PI / 2, 2 * PI, INF)


def scaled_bounds(scale=0.25, bounds=EXAMPLE_BOUNDS):
    return tuple(v * scale if math.isfinite(v) else v for v in bounds)


# finite boundaries on one side of zero, as magnitudes
side = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True)

ALL_FAMILIES = st.sampled_from(
    ["littlewood-paley", "meyer", "shannon", "gabor-local", "gabor-extended"]
)


@st.composite
def partitions_on_grid(draw, sizes=st.integers(1, 400) | st.integers(1, 8192)):
    """(partition, grid): V or Vstar, 1-3 finite boundaries on each side of
    zero at least 0.02 apart, each ray present or not, and a grid of
    ``sizes`` bins."""
    mode = draw(st.sampled_from(["V", "Vstar"]))
    finite = sorted(-v for v in draw(side)) + ([0.0] if mode == "V" else []) + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    left, right = draw(st.booleans()), draw(st.booleans())
    partition = build_partition(mode, [-INF] * left + finite + [INF] * right)
    return partition, FrequencyGrid(draw(sizes))


def make_params(partition, family):
    """The FamilyParams of an ``ALL_FAMILIES`` name; Littlewood-Paley at
    0.9 * max_gamma, the CLI's default gamma."""
    if family == "littlewood-paley":
        return FamilyParams(family, gamma=0.9 * partition.max_gamma())
    if family.startswith("gabor-"):
        return FamilyParams("gabor", gabor_rays=family.split("-")[1])
    return FamilyParams(family)


@pytest.fixture
def example_partition():
    return build_partition("Vstar", EXAMPLE_BOUNDS)


@pytest.fixture
def grid_partition():
    """The example partition shrunk into (-pi, pi) for sampling."""
    return build_partition("Vstar", scaled_bounds())


def error_payload(out, err):
    """The one JSON error line a failing CLI command must leave on stderr."""
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert isinstance(payload["error"], str) and isinstance(payload["message"], str)
    return payload


def evaluate(partition, params, n, xi):
    """The public evaluator of ``params.family`` for filter n at xi."""
    if params.family == "littlewood-paley":
        return eval_lp(partition, params.gamma, n, xi)
    if params.family == "meyer":
        return eval_meyer(partition, n, xi)
    if params.family == "shannon":
        return eval_shannon(partition, n, xi)
    return eval_gabor(partition, params.gabor_rays, n, xi)


def report_bytes(report):
    """Every field of a FrameReport, as bytes or repr, for bit-exact equality."""
    fields = (
        report.a_empirical,
        report.b_empirical,
        report.a_analytic,
        report.b_analytic,
        report.per_filter_norm,
        report.singular_bins,
    )
    return report.sum_squares.tobytes(), repr(fields)


def warns_overflow(expected):
    """Expect numpy's overflow warning inside the block, or no warning at all."""
    return pytest.warns(RuntimeWarning, match="overflow") if expected else contextlib.nullcontext()


def with_bands(bank, bands):
    """``bank`` narrowed to ``bands``, stored as ``sample_bank`` stores a
    bank: each row's band values and its zero, the value at the row's first
    bin outside its band, with no dense array. The narrowed bank equals
    ``bank`` only if each row is that zero outside its band."""
    grid, n = bank.grid, bank.grid.n_samples
    rows = []
    for row, (lo, hi) in zip(bank.spectra, bands):
        zero = row[grid.run_slices(hi, hi + 1)[0]].copy() if hi - lo < n else None
        rows.append((tuple(row[sl].copy() for sl in grid.run_slices(lo, hi)), zero))
    return replace(bank, bands=tuple(bands), rows=tuple(rows))


def whole_rows(spectra, grid):
    """A dense K×N array as ``FilterBank`` band storage, keyword arguments
    for the constructor or ``dataclasses.replace``: every band is the whole
    row, and each row's values are views of its row of ``spectra``."""
    n = grid.n_samples
    return {
        "bands": ((0, n),) * len(spectra),
        "rows": tuple((tuple(row[sl] for sl in grid.run_slices(0, n)), None) for row in spectra),
    }


def holds_dense(bank):
    """Whether the bank holds a dense K×N array, such as its built spectra."""
    return any(isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(bank).values())
