import json
import math

import pytest

from cews import build_partition

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
