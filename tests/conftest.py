import contextlib
import json
import math
import warnings

import pytest

# When a property fails, hypothesis's report hook imports this module, and
# with it libcst, whose import raises a DeprecationWarning. Under
# filterwarnings = error that would abort the session with INTERNALERROR,
# hiding the failing example and every later test, so import it here once.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from cews import build_partition, eval_lp
from cews.families import eval_gabor, eval_meyer, eval_shannon

PI = math.pi
INF = math.inf

# reference zero-free partition with left and right rays; boundaries exceed pi,
# so it is used analytically as-is and scaled by 1/4 for anything on a grid
EXAMPLE_BOUNDS = (-INF, -3 * PI, -PI, -PI / 3, PI / 2, 3 * PI / 2, 2 * PI, INF)


def scaled_bounds(scale=0.25, bounds=EXAMPLE_BOUNDS):
    return tuple(v * scale if math.isfinite(v) else v for v in bounds)


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
