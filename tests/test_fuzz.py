"""Fuzz the CLI front door with malformed configs and damaged EWTC files.

Every case is invalid by construction, so every run must fail the same way:
exit code 1 or 2, nothing on stdout and exactly one JSON error line on
stderr. Valid grid sizes stay small (N = 64), so no case allocates much.
"""

import contextlib
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cews import FAMILIES
from cews.cli import main
from cews.io import JobConfig

from conftest import error_payload

FUZZ_SETTINGS = settings(max_examples=40, deadline=None)

N = 64
BASE_CONFIG = {
    "mode": "Vstar",
    "boundaries": ["-inf", -1.2, -0.4, 0.5, 1.1, "+inf"],
    "family": "littlewood-paley",
    "n_samples": N,
}
COUNT = len(BASE_CONFIG["boundaries"]) - 1  # supports, so EWTC rows
FIELDS = {f.name for f in fields(JobConfig)}

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
not_a_number = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
not_a_bool = json_values.filter(lambda v: not isinstance(v, bool))
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])
bad_boundary = (
    st.none()
    | st.booleans()
    | st.just(math.nan)
    | st.text(max_size=8).filter(lambda t: t.strip().lower() not in ("-inf", "+inf", "inf"))
    | st.lists(json_scalars, max_size=2)
)

# one strategy per config field; each value makes the config invalid
BAD_VALUES = {
    "mode": json_values.filter(lambda v: v != "Vstar"),
    "family": json_values.filter(lambda v: v not in FAMILIES),
    "n_samples": st.integers(max_value=0) | st.integers(min_value=2**32) | not_a_number | st.floats(),
    "gamma": st.floats(min_value=0.5) | st.floats(max_value=0.0) | not_finite | not_a_number,
    "gabor_rays": json_values,  # never valid with the littlewood-paley family
    "epsilon": st.floats(max_value=0.0) | not_finite | not_a_number,
    "allow_singular": not_a_bool,
    "real_output": not_a_bool,
    "boundaries": (
        json_scalars
        | st.lists(st.floats(-3.0, 3.0), max_size=1)
        | st.tuples(st.integers(0, COUNT + 1), bad_boundary).map(
            lambda ib: BASE_CONFIG["boundaries"][: ib[0]] + [ib[1]] + BASE_CONFIG["boundaries"][ib[0]:]
        )
    ),
}


@st.composite
def bad_config_bytes(draw):
    kind = draw(st.sampled_from(["value", "missing", "unknown", "root", "truncated", "undecodable"]))
    config = dict(BASE_CONFIG)
    if kind == "value":
        field = draw(st.sampled_from(sorted(BAD_VALUES)))
        config[field] = draw(BAD_VALUES[field])
    elif kind == "missing":
        del config[draw(st.sampled_from(sorted(BASE_CONFIG)))]
    elif kind == "unknown":
        config[draw(st.text(max_size=8).filter(lambda k: k not in FIELDS))] = draw(json_values)
    elif kind == "root":
        return json.dumps(draw(json_values.filter(lambda v: not isinstance(v, dict)))).encode()
    text = json.dumps(config).encode()
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "undecodable":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe9"])) + text[cut:]
    return text


@st.composite
def damaged_coefficients(draw, blob):
    kind = draw(st.sampled_from(["truncate", "flip", "append", "poison"]))
    data = bytearray(blob)
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    if kind == "append":
        return bytes(data) + draw(st.binary(min_size=1, max_size=32))
    if kind == "flip":
        # magic, version, N, count or a support index: each change is invalid
        data[draw(st.integers(0, 16 + 4 * COUNT - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    at = 16 + 4 * COUNT + 8 * draw(st.integers(0, 2 * N * COUNT - 1))
    data[at : at + 8] = np.array([draw(not_finite)], dtype="<f8").tobytes()
    return bytes(data)


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """A directory holding a valid config, signal and EWTC file."""
    root = tmp_path_factory.mktemp("fuzz")
    config, signal, coef = root / "config.json", root / "signal.csv", root / "coef.ewtc"
    config.write_text(json.dumps(BASE_CONFIG))
    x = np.random.default_rng(0).standard_normal(N)
    signal.write_text("re\n" + "".join(f"{v!r}\n" for v in x.tolist()))
    assert run_quietly("forward", "--config", str(config), "--signal", str(signal), "--out", str(coef))[0] == 0
    return root


@FUZZ_SETTINGS
@given(data=st.data())
def test_malformed_config_fails_with_one_json_line(job, data):
    config = job / "bad-config.json"
    config.write_bytes(data.draw(bad_config_bytes()))
    code, out, err = run_quietly("frame", "--config", str(config))
    assert code in (1, 2)
    error_payload(out, err)


@FUZZ_SETTINGS
@given(data=st.data())
def test_damaged_coefficients_fail_with_one_json_line(job, data):
    coef = job / "bad.ewtc"
    coef.write_bytes(data.draw(damaged_coefficients((job / "coef.ewtc").read_bytes())))
    code, out, err = run_quietly(
        "inverse", "--config", str(job / "config.json"), "--coef", str(coef),
        "--out", str(job / "rec.csv"),
    )
    assert code in (1, 2)
    error_payload(out, err)
