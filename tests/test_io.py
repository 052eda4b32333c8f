import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cews import FamilyParams, FrequencyGrid, build_partition, forward, sample_bank
from cews.errors import FewerPeaksThanRequested, InputFormatError, LengthMismatch
from cews.io import (
    JobConfig,
    _cut_bins,
    _read_text,
    convert_hz,
    decode_boundary,
    encode_boundary,
    load_config,
    parse_config,
    propose_boundaries,
    read_coefficients,
    read_signal_csv,
    read_signal_raw,
    realize_bank,
    write_coefficients,
    write_signal_csv,
)

from conftest import INF, scaled_bounds

BASE_CONFIG = {
    "mode": "Vstar",
    "boundaries": ["-inf", -0.8, -0.2, 0.3, 0.9, "+inf"],
    "family": "littlewood-paley",
    "n_samples": 64,
}


class TestConfig:
    def test_defaults(self):
        config = parse_config(BASE_CONFIG)
        assert config.gamma is None
        assert config.gabor_rays == "extended"
        assert config.epsilon == 1e-12
        assert config.allow_singular is False
        assert config.real_output is False
        assert config.boundaries[0] == -INF and config.boundaries[-1] == INF

    def test_unknown_field(self):
        with pytest.raises(InputFormatError, match="gamm: unknown"):
            parse_config({**BASE_CONFIG, "gamm": 0.1})

    def test_bad_mode_and_family(self):
        with pytest.raises(InputFormatError, match="mode"):
            parse_config({**BASE_CONFIG, "mode": "W"})
        with pytest.raises(InputFormatError, match="family"):
            parse_config({**BASE_CONFIG, "family": "haar"})

    def test_boundary_errors_name_the_entry(self):
        with pytest.raises(InputFormatError, match=r"boundaries\[2\]"):
            parse_config({**BASE_CONFIG, "boundaries": ["-inf", -1.0, "wide", 1.0]})
        with pytest.raises(InputFormatError, match=r"boundaries\[0\]"):
            parse_config({**BASE_CONFIG, "boundaries": [True, 1.0]})

    def test_gamma_only_for_lp(self):
        parse_config({**BASE_CONFIG, "gamma": 0.05})
        with pytest.raises(InputFormatError, match="gamma"):
            parse_config({**BASE_CONFIG, "family": "meyer", "gamma": 0.05})

    def test_gabor_rays_only_for_gabor(self):
        parse_config({**BASE_CONFIG, "family": "gabor", "gabor_rays": "local"})
        with pytest.raises(InputFormatError, match="gabor_rays"):
            parse_config({**BASE_CONFIG, "gabor_rays": "local"})

    def test_n_samples_required_unless_overridden(self):
        partial = {k: v for k, v in BASE_CONFIG.items() if k != "n_samples"}
        with pytest.raises(InputFormatError, match="n_samples"):
            parse_config(partial)
        assert parse_config(partial, n_samples_override=128).n_samples == 128
        assert parse_config(BASE_CONFIG, n_samples_override=32).n_samples == 32

    @pytest.mark.parametrize("n", [8.9, 8.0, "8", True, np.bool_(True), np.float64(8.0)])
    def test_n_samples_override_must_be_an_integer(self, n):
        # a float is not truncated to a grid size, and a bool is not a count
        with pytest.raises(InputFormatError, match=r"^n_samples: expected an integer"):
            parse_config(BASE_CONFIG, n_samples_override=n)

    def test_n_samples_override_takes_an_integer_index(self):
        n_samples = parse_config(BASE_CONFIG, n_samples_override=np.int64(8)).n_samples
        assert n_samples == 8 and type(n_samples) is int

    def test_type_checks(self):
        with pytest.raises(InputFormatError):
            parse_config({**BASE_CONFIG, "epsilon": -1.0})
        with pytest.raises(InputFormatError):
            parse_config({**BASE_CONFIG, "allow_singular": "yes"})
        with pytest.raises(InputFormatError):
            parse_config({**BASE_CONFIG, "n_samples": 2.5})

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_config(path)

    def test_convert_hz(self):
        config = parse_config({**BASE_CONFIG, "boundaries": ["-inf", -100, 100, "+inf"]})
        converted = convert_hz(config, 1000.0)
        scale = 2.0 * math.pi / 1000.0
        assert converted.boundaries == (-INF, -100 * scale, 100 * scale, INF)
        with pytest.raises(InputFormatError):
            convert_hz(config, 0.0)

    def test_convert_hz_keeps_finite_boundaries_finite(self):
        # a tiny rate overflows 2 pi / rate, or a boundary times it; rays stay rays
        tiny = parse_config({**BASE_CONFIG, "boundaries": ["-inf", -1, 1, "+inf"]})
        with pytest.raises(InputFormatError, match=r"^boundaries\[1\]: -1\.0 Hz .* is -inf rad$"):
            convert_hz(tiny, 1e-310)
        large = parse_config({**BASE_CONFIG, "boundaries": [-1e10, -1e-301, 1e-301]})
        with pytest.raises(InputFormatError, match=r"^boundaries\[0\]: "):
            convert_hz(large, 1e-300)
        rays = convert_hz(tiny, 3.5e-308)
        assert rays.boundaries[0] == -INF and rays.boundaries[-1] == INF
        assert all(math.isfinite(v) for v in rays.boundaries[1:-1])
        # a huge rate underflows a tiny boundary times 2 pi / rate to +-0.0
        for mode, ends, bad in [
            ("V", ["-inf", -1e-30, 0, 1e-30, "+inf"], r"boundaries\[1\]: -1e-30 Hz .* is -0\.0 rad$"),
            ("Vstar", ["-inf", -1, 1e-30, 1, "+inf"], r"boundaries\[2\]: 1e-30 Hz .* is 0\.0 rad$"),
        ]:
            small = parse_config({**BASE_CONFIG, "mode": mode, "boundaries": ends})
            with pytest.raises(InputFormatError, match=f"^{bad}"):
                convert_hz(small, 1e300)
        # 0 Hz is 0 rad, and the smallest subnormal survives a rate of 2 pi
        kept = parse_config({**BASE_CONFIG, "mode": "V", "boundaries": ["-inf", -5e-324, 0, 1, "+inf"]})
        assert convert_hz(kept, 2.0 * math.pi).boundaries[1:3] == (-5e-324, 0.0)

    def test_realize_bank_defaults_gamma(self):
        bank = realize_bank(parse_config(BASE_CONFIG))
        assert bank.params.gamma == pytest.approx(0.9 * bank.partition.max_gamma(), rel=1e-15)

    def test_boundary_codec(self):
        assert decode_boundary("-inf", "x") == -INF
        assert decode_boundary("+inf", "x") == INF
        assert decode_boundary(0.25, "x") == 0.25
        assert encode_boundary(-INF) == "-inf"
        assert encode_boundary(INF) == "+inf"
        assert encode_boundary(0.25) == 0.25
        with pytest.raises(InputFormatError):
            decode_boundary(float("nan"), "x")


class TestSignalCsv:
    def test_round_trip_complex(self, tmp_path):
        path = tmp_path / "signal.csv"
        rng = np.random.default_rng(0)
        x = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        write_signal_csv(path, x)
        back = read_signal_csv(path, n_expected=33)
        assert np.array_equal(back, x)

    def test_rows_written_in_blocks_join_seamlessly(self, tmp_path):
        path = tmp_path / "signal.csv"
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2 * 8192 + 3) + 1j * rng.standard_normal(2 * 8192 + 3)
        write_signal_csv(path, x)
        rows = "".join(f"{v.real!r},{v.imag!r}\n" for v in x.tolist())
        assert path.read_text() == "re,im\n" + rows

    def test_real_only(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_signal_csv(path, np.arange(4, dtype=float), real_only=True)
        assert path.read_text().splitlines()[0] == "re"
        back = read_signal_csv(path)
        assert np.array_equal(back, np.arange(4, dtype=complex))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("")
        with pytest.raises(InputFormatError):
            read_signal_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("left,right\n0,0\n")
        with pytest.raises(InputFormatError, match="header"):
            read_signal_csv(path)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_signal_csv(path, np.zeros(5))
        with pytest.raises(LengthMismatch):
            read_signal_csv(path, n_expected=8)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("re\n1.0\nnope\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_signal_csv(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, newline):
        path = tmp_path / "signal.csv"
        z = np.random.default_rng(2).standard_normal((2, 9))
        lines = ["re,im"] + [f"{re!r},{im!r}" for re, im in z.T.tolist()]
        path.write_bytes((newline.join(lines) + newline).encode())
        assert np.array_equal(read_signal_csv(path, n_expected=9), z[0] + 1j * z[1])


def reference_read_signal_csv(path, n_expected=None):
    """The signal reader as a per-sample loop, an oracle for read_signal_csv."""
    lines = _read_text(path).split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise InputFormatError(f"{path}: empty signal file")
    header = [c.strip() for c in lines[0].split(",")]
    if header == ["re"]:
        has_imag = False
    elif header == ["re", "im"]:
        has_imag = True
    else:
        raise InputFormatError(f"{path}: header must be 're' or 're,im', got {lines[0]!r}")
    values = np.zeros(len(lines) - 1, dtype=complex)
    for i, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise InputFormatError(f"{path}: line {i}: expected {len(header)} columns")
        try:
            re = float(cells[0])
            im = float(cells[1]) if has_imag else 0.0
        except ValueError as exc:
            raise InputFormatError(f"{path}: line {i}: {exc}") from exc
        values[i - 2] = complex(re, im)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputFormatError(f"{path}: line {bad[0] + 2}: sample is not finite")
    if n_expected is not None and values.size != n_expected:
        raise LengthMismatch(f"{path}: {values.size} samples, expected {n_expected}")
    return values


def outcome(call, *args):
    """What a call returns, as bytes or a list of ints, or the type and
    message of the error it raises."""
    try:
        result = call(*args)
    except (InputFormatError, LengthMismatch, FewerPeaksThanRequested) as exc:
        return type(exc), str(exc)
    return result.tobytes() if isinstance(result, np.ndarray) else [int(v) for v in result]


# cells that float() reads only after str.strip, or reads in ways a
# hand-written parser might not, and cells it rejects or reads as non-finite
FINITE_CELLS = st.one_of(
    st.sampled_from([" 1.5 ", "1_0", "-0.0", "3.\r", "\x1c2.5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
BAD_CELLS = st.sampled_from(["infinity", "1e400", "nan", "0x10", "", "x"])


@st.composite
def signal_csv_texts(draw):
    """A signal file's text: a header, mostly a valid one, then lines of
    1 to 3 cells, in half the files as many as the header names, then
    blank lines. Half the files hold only cells that read as finite."""
    header = draw(st.sampled_from(["re", "re,im", " re , im\r"] * 3 + ["im", "re,im,re"]))
    width = len(header.split(","))
    widths = draw(st.sampled_from([st.just(width), st.integers(1, 3)]))
    cells = draw(st.sampled_from([FINITE_CELLS, st.one_of(FINITE_CELLS, BAD_CELLS)]))
    line = widths.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w))
    lines = draw(st.lists(line, max_size=6))
    trailing = draw(st.lists(st.sampled_from(["", " ", "\r", "\x1c"]), max_size=2))
    return "\n".join([header, *map(",".join, lines), *trailing])


@settings(max_examples=300, deadline=None)
@given(text=signal_csv_texts(), n_expected=st.one_of(st.none(), st.integers(0, 6)))
def test_signal_reader_matches_the_per_sample_loop(tmp_path_factory, text, n_expected):
    path = tmp_path_factory.mktemp("csv") / "signal.csv"
    path.write_bytes(text.encode())
    assert outcome(read_signal_csv, path, n_expected) == outcome(
        reference_read_signal_csv, path, n_expected
    )


class TestSignalRaw:
    def test_real_and_complex(self, tmp_path):
        path = tmp_path / "signal.bin"
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        path.write_bytes(x.astype("<f8").tobytes())
        assert np.array_equal(read_signal_raw(path, n_expected=16), x.astype(complex))
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        interleaved = np.empty(32)
        interleaved[0::2], interleaved[1::2] = z.real, z.imag
        path.write_bytes(interleaved.astype("<f8").tobytes())
        assert np.array_equal(read_signal_raw(path, n_expected=16), z)

    def test_bad_sizes(self, tmp_path):
        path = tmp_path / "signal.bin"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(InputFormatError):
            read_signal_raw(path)
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(LengthMismatch):
            read_signal_raw(path, n_expected=16)
        path.write_bytes(b"")
        with pytest.raises(InputFormatError):
            read_signal_raw(path)


class TestCoefficientFile:
    def make_coeffs(self, n=32):
        partition = build_partition("Vstar", scaled_bounds())
        bank = sample_bank(partition, FamilyParams("shannon"), FrequencyGrid(n))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return forward(x, bank)

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "coef.ewtc"
        coeffs = self.make_coeffs()
        write_coefficients(path, coeffs.rows, coeffs.support_indices)
        rows, indices = read_coefficients(path)
        assert indices == coeffs.support_indices
        assert np.array_equal(rows, coeffs.rows)

    def test_rows_view_the_file_bytes(self, tmp_path):
        path = tmp_path / "coef.ewtc"
        coeffs = self.make_coeffs()
        write_coefficients(path, coeffs.rows, coeffs.support_indices)
        rows, _ = read_coefficients(path)
        # read-only, as no copy is made; a big-endian host must swap bytes
        assert rows.flags.writeable == (sys.byteorder == "big")

    def test_layout_size(self, tmp_path):
        path = tmp_path / "coef.ewtc"
        coeffs = self.make_coeffs(n=32)
        write_coefficients(path, coeffs.rows, coeffs.support_indices)
        count = coeffs.rows.shape[0]
        assert path.stat().st_size == 16 + 4 * count + 16 * 32 * count
        blob = path.read_bytes()
        assert blob[:4] == b"EWTC"

    def test_read_rejects_corruption(self, tmp_path):
        path = tmp_path / "coef.ewtc"
        coeffs = self.make_coeffs(n=8)
        write_coefficients(path, coeffs.rows, coeffs.support_indices)
        blob = path.read_bytes()
        bad_magic = tmp_path / "bad_magic.ewtc"
        bad_magic.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(InputFormatError, match="magic"):
            read_coefficients(bad_magic)
        truncated = tmp_path / "truncated.ewtc"
        truncated.write_bytes(blob[:-8])
        with pytest.raises(InputFormatError, match="size"):
            read_coefficients(truncated)
        bad_version = tmp_path / "bad_version.ewtc"
        bad_version.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
        with pytest.raises(InputFormatError, match="version"):
            read_coefficients(bad_version)

    def test_write_rejects_rows_that_do_not_match_the_layout(self, tmp_path):
        path = tmp_path / "coef.ewtc"
        coeffs = self.make_coeffs(n=8)
        with pytest.raises(InputFormatError, match="2-D"):
            write_coefficients(path, coeffs.rows[0], coeffs.support_indices[:1])
        with pytest.raises(InputFormatError, match="one support index per coefficient row"):
            write_coefficients(path, coeffs.rows, coeffs.support_indices[:-1])
        assert not path.exists()


def tone(n, k, amplitude=1.0):
    return amplitude * np.cos(2.0 * np.pi * k * np.arange(n) / n)


class TestProposeBoundaries:
    def test_two_tones_get_separated(self):
        n = 256
        x = tone(n, 20) + 0.5 * tone(n, 60)
        result = propose_boundaries(x, 2)
        assert result["mode"] == "Vstar"
        bounds = result["boundaries"]
        assert bounds[0] == -INF and bounds[-1] == INF
        xi = FrequencyGrid(n).xi
        lo, hi = xi[20], xi[60]
        between = [
            v for v in bounds if math.isfinite(v) and v > 0 and lo < v < hi
        ]
        assert len(between) == 1
        # mirrored negatives
        positives = sorted(v for v in bounds if math.isfinite(v) and v > 0)
        negatives = sorted(v for v in bounds if math.isfinite(v) and v < 0)
        assert negatives == [-v for v in reversed(positives)]

    def test_single_tone_symmetric_partition(self):
        n = 128
        x = tone(n, 30)
        result = propose_boundaries(x, 1)
        bounds = result["boundaries"]
        assert len(bounds) == 4
        nu = bounds[2]
        assert bounds == [-INF, -nu, nu, INF]
        assert 0.0 < nu < FrequencyGrid(n).xi[30]

    def test_noise_with_too_many_peaks_requested(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(128)
        with pytest.raises(FewerPeaksThanRequested):
            propose_boundaries(x, 65)

    def test_complex_signal_uses_full_line(self):
        n = 256
        t = np.arange(n)
        x = np.exp(2j * np.pi * 40 * t / n) + np.exp(-2j * np.pi * 90 * t / n)
        result = propose_boundaries(x, 2)
        bounds = result["boundaries"]
        assert bounds[0] == -INF and bounds[-1] == INF
        xi = FrequencyGrid(n).xi
        inner = [v for v in bounds if math.isfinite(v)]
        assert len(inner) == 1
        assert xi[n - 90] < inner[0] < xi[40]

    def test_count_validation(self):
        with pytest.raises(InputFormatError):
            propose_boundaries(np.zeros(16), 0)

    def test_four_samples_are_enough_and_three_are_not(self):
        # a complex signal, since a 4-sample real one never has a peak to cut at
        result = propose_boundaries(np.array([1, 1j, -1, -1j]), 1)
        assert result == {"mode": "Vstar", "boundaries": [-INF, INF]}
        with pytest.raises(InputFormatError, match="at least 4 samples"):
            propose_boundaries(np.array([1, 1j, -1]), 1)

    def test_peak_next_to_the_zero_frequency_leaves_no_bin_to_cut(self):
        with pytest.raises(FewerPeaksThanRequested, match="adjacent peaks"):
            propose_boundaries(tone(16, 1), 1)

    def test_cut_lies_strictly_between_the_peaks(self):
        # peaks at bins 1 and 5; the smallest of bins 2, 3 and 4 is bin 3
        line = np.array([0.0, 5.0, 3.0, 1.0, 2.0, 6.0, 0.0])
        assert _cut_bins(line, np.arange(7), 2, anchor_first=False) == [3]


def reference_cut_bins(mag, order, count, anchor_first):
    """_cut_bins as a per-bin loop, an oracle for its array search."""
    line = mag[order]
    peaks = [
        p
        for p in range(1, len(order) - 1)
        if line[p - 1] < line[p] and line[p] > line[p + 1]
    ]
    if len(peaks) < count:
        raise FewerPeaksThanRequested(
            f"found {len(peaks)} spectral peaks, need {count}"
        )
    top = sorted(sorted(peaks, key=lambda p: line[p])[-count:])
    anchors = ([0] if anchor_first else []) + top
    cuts = []
    for a, b in zip(anchors, anchors[1:]):
        if b - a < 2:
            raise FewerPeaksThanRequested(
                "adjacent peaks leave no bin for a boundary between them"
            )
        segment = line[a + 1 : b]
        cuts.append(order[a + 1 + int(np.argmin(segment))])
    return cuts


@settings(max_examples=500, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, math.nan]), st.sampled_from([1.0, 2.0, 3.0, INF])),
        max_size=40,
    ),
    anchor_first=st.booleans(),
    data=st.data(),
)
def test_cut_bins_matches_the_per_bin_loop(steps, anchor_first, data):
    # in ascending order, mostly a valley then a crest, from few magnitudes,
    # so that many maxima tie, and more than 16 of them, where numpy's
    # default sort is unstable
    line = np.array(steps, dtype=float).ravel()
    order = np.array(data.draw(st.permutations(range(line.size))), dtype=np.intp)
    mag = np.empty_like(line)
    mag[order] = line
    count = data.draw(st.integers(1, len(steps) + 1))
    assert outcome(_cut_bins, mag, order, count, anchor_first) == outcome(
        reference_cut_bins, mag, order, count, anchor_first
    )
