"""Fuzz the CLI front door with malformed configs, damaged EWTC files and
damaged signal files.

Every config and EWTC case is invalid by construction, so every run must
fail the same way: exit code 1 or 2, nothing on stdout and exactly one JSON
error line on stderr. A damaged signal may still be a valid one (CRLF line
ends, a trailing blank line), so a signal run may also exit 0; when it fails
it fails that same way, with exit 2 for a parse error and 1 for the rest, as
README's table says. Valid grid sizes stay small (N = 64), so no case
allocates much.
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


# one signal of N complex samples, whose real parts also serve as a real one
SAMPLES = np.random.default_rng(1).standard_normal((N, 2))
# str.splitlines would end a line at each of these
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NON_FINITE_CELLS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999", "9" * 400]
HUGE_CELLS = ["1e308", "-1.7976931348623157e308", "1e300", "4.9e-324", "1e-400", *NON_FINITE_CELLS]
bad_headers = st.text(max_size=12).filter(
    lambda t: not set(t) & set("\n\r")
    and [c.strip() for c in t.split(",")] not in (["re"], ["re", "im"])
)
not_finite_bits = st.tuples(st.booleans(), st.integers(0, 2**52 - 1)).map(
    lambda sm: (sm[0] << 63) | (0x7FF << 52) | sm[1]
)


@st.composite
def damaged_signal_csv(draw):
    """(bytes, error): a signal CSV of N samples with one kind of damage, and
    the error every command must fail with, None if the damage may leave a
    valid file or one that fails later (an FFT overflow, a short file)."""
    width = draw(st.integers(1, 2))
    header = ["re", "re,im"][width - 1]
    rows = [[repr(v) for v in sample[:width]] for sample in SAMPLES.tolist()]
    kind = draw(st.sampled_from(
        ["header", "bom", "ragged", "blank", "non_finite", "line_break", "huge",
         "non_utf8", "truncate", "line_ends"]
    ))
    at, column = draw(st.integers(0, N - 1)), draw(st.integers(0, width - 1))
    error = "InputFormatError"
    if kind == "header":
        header = draw(bad_headers)
    elif kind == "bom":
        header = "\ufeff" + header
    elif kind == "ragged":
        rows[at] = rows[at][:1] * draw(st.sampled_from([1, 2, 3]).filter(lambda c: c != width))
    elif kind == "blank":
        where = draw(st.integers(0, N))
        rows.insert(where, [])
        error = None if where == N else error  # a trailing blank line is allowed
    elif kind == "non_finite":
        rows[at][column] = draw(st.sampled_from(NON_FINITE_CELLS))
    elif kind == "line_break":
        rows[at][column] = "4" + draw(st.sampled_from(LINE_BREAKS)) + "5"
    elif kind == "huge":
        for row in draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N)):
            rows[row][column] = draw(st.sampled_from(HUGE_CELLS))
        error = None
    elif kind == "line_ends":
        error = None
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([header] + [",".join(row) for row in rows]) + end
    blob = text.encode()
    if kind == "non_utf8":
        cut = draw(st.integers(0, len(blob)))
        blob = blob[:cut] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe9", b"\x80"])) + blob[cut:]
    elif kind == "truncate":
        blob, error = blob[: draw(st.integers(0, len(blob) - 1))], None
    return blob, error


@st.composite
def damaged_signal_raw(draw):
    """(bytes, error) as :func:`damaged_signal_csv`, for a raw float64 file
    of N real or interleaved complex samples."""
    flat = (SAMPLES if draw(st.booleans()) else SAMPLES[:, 0]).flatten()
    kind = draw(st.sampled_from(["size", "non_finite", "length", "huge", "empty"]))
    error = "InputFormatError"
    if kind == "non_finite":
        bits = flat.view("<u8")
        for at in draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=4)):
            bits[at] = draw(not_finite_bits)
    elif kind == "length":
        count = draw(st.integers(1, 3 * N).filter(lambda c: c not in (N, 2 * N)))
        flat, error = np.resize(flat, count), "LengthMismatch"
    elif kind == "huge":
        for at in draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=flat.size)):
            flat[at] = draw(st.sampled_from([1e308, -1.7976931348623157e308, 1e300, 5e-324]))
        error = None
    blob = flat.astype("<f8").tobytes()
    if kind == "size":
        extra = draw(st.integers(1, 7))
        blob = blob[:-extra] if draw(st.booleans()) else blob + bytes(extra)
    elif kind == "empty":
        blob = b""
    return blob, error


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


def run_on_signal(job, command, signal, *flags):
    argv = [command, "--signal", str(signal), *flags]
    if command == "detect":
        argv += ["--peaks", "2", "--out", str(job / "proposal.json")]
    else:
        argv += ["--config", str(job / "config.json")]
    if command == "forward":
        argv += ["--out", str(job / "signal.ewtc")]
    return run_quietly(*argv)


def check_signal_run(command, code, out, err, error):
    """Exit 0 with nothing on stderr (roundtrip prints its one JSON line), or
    one JSON error line: exit 2 for a parse error, 1 for the rest."""
    if code == 0:
        assert err == "" and error is None
        if command == "roundtrip":
            assert len(out.splitlines()) == 1 and all(map(math.isfinite, json.loads(out).values()))
        else:
            assert out == ""
        return
    payload = error_payload(out, err)
    assert code == (2 if payload["error"] == "InputFormatError" else 1)
    if error is not None:
        assert payload["error"] == error


SIGNAL_COMMANDS = ["forward", "roundtrip", "detect"]


@FUZZ_SETTINGS
@pytest.mark.parametrize("command", SIGNAL_COMMANDS)
@given(data=st.data())
def test_damaged_signal_csv_follows_the_exit_codes(job, command, data):
    blob, error = data.draw(damaged_signal_csv())
    signal = job / f"bad-{command}.csv"
    signal.write_bytes(blob)
    check_signal_run(command, *run_on_signal(job, command, signal), error)


@FUZZ_SETTINGS
@pytest.mark.parametrize("command", SIGNAL_COMMANDS)
@given(data=st.data())
def test_damaged_signal_raw_follows_the_exit_codes(job, command, data):
    blob, error = data.draw(damaged_signal_raw())
    if command == "detect" and error == "LengthMismatch":
        error = None  # detect takes any length
    signal = job / f"bad-{command}.bin"
    signal.write_bytes(blob)
    check_signal_run(command, *run_on_signal(job, command, signal, "--raw"), error)


@pytest.mark.parametrize("command", SIGNAL_COMMANDS)
def test_overflowing_raw_samples_exit_1(job, command):
    signal = job / "huge-signal.bin"
    signal.write_bytes(np.full(N, 1e308).astype("<f8").tobytes())
    code, out, err = run_on_signal(job, command, signal, "--raw")
    assert code == 1
    assert error_payload(out, err)["error"] == "FloatingPointError"
