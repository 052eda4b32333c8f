import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cews
import cews.io
from cews import (
    FamilyParams,
    FrequencyGrid,
    build_partition,
    dual_bank,
    forward,
    frame_report,
    inverse,
    inverse_tight,
    sample_bank,
)
from cews.cli import main
from cews.errors import EwtError
from cews.io import (
    encode_boundary,
    read_coefficients,
    read_signal_csv,
    write_coefficients,
    write_csv,
    write_signal_csv,
)

from conftest import ALL_FAMILIES, error_payload, make_params, partitions_on_grid, scaled_bounds

LP_CONFIG = {
    "mode": "Vstar",
    "boundaries": ["-inf"] + [v for v in scaled_bounds() if math.isfinite(v)] + ["+inf"],
    "family": "littlewood-paley",
    "n_samples": 4096,
}


# `cews [COMMAND] --help` at COLUMNS=100, byte for byte. Commands share argument
# groups, so this pins each command's options, their order and their help.
HELP = {
    "": """\
usage: cews [-h] {filters,forward,inverse,roundtrip,frame,detect} ...

Empirical wavelet filter banks on data-driven frequency partitions: sampling, analysis, exact
reconstruction and frame reports.

positional arguments:
  {filters,forward,inverse,roundtrip,frame,detect}
    filters             write the sampled filter bank as CSV
    forward             transform a signal into coefficients
    inverse             reconstruct a signal from coefficients
    roundtrip           forward + inverse, report the error as JSON
    frame               frame bounds and filter norms as JSON
    detect              propose partition boundaries from a signal

options:
  -h, --help            show this help message and exit
""",
    "filters": """\
usage: cews filters [-h] --config CONFIG [--n-samples N_SAMPLES] [--hz RATE] --out OUT

options:
  -h, --help            show this help message and exit
  --config CONFIG       job config JSON path
  --n-samples N_SAMPLES
                        override the config grid size
  --hz RATE             config boundaries are Hz for this sample rate; convert on load
  --out OUT             output file path
""",
    "forward": """\
usage: cews forward [-h] --config CONFIG [--n-samples N_SAMPLES] [--hz RATE] --signal SIGNAL
                    [--raw] --out OUT

options:
  -h, --help            show this help message and exit
  --config CONFIG       job config JSON path
  --n-samples N_SAMPLES
                        override the config grid size
  --hz RATE             config boundaries are Hz for this sample rate; convert on load
  --signal SIGNAL       input signal path
  --raw                 signal file is raw little-endian float64 instead of CSV
  --out OUT             output file path
""",
    "inverse": """\
usage: cews inverse [-h] --config CONFIG [--n-samples N_SAMPLES] [--hz RATE] --coef COEF --out OUT
                    [--allow-singular] [--tight A]

options:
  -h, --help            show this help message and exit
  --config CONFIG       job config JSON path
  --n-samples N_SAMPLES
                        override the config grid size
  --hz RATE             config boundaries are Hz for this sample rate; convert on load
  --coef COEF           coefficient file path
  --out OUT             output file path
  --allow-singular      zero-fill singular bins
  --tight A             reconstruct with the analysis filters scaled by 1/A instead of the dual
                        bank
""",
    "roundtrip": """\
usage: cews roundtrip [-h] --config CONFIG [--n-samples N_SAMPLES] [--hz RATE] --signal SIGNAL
                      [--raw] [--allow-singular] [--tight A]

options:
  -h, --help            show this help message and exit
  --config CONFIG       job config JSON path
  --n-samples N_SAMPLES
                        override the config grid size
  --hz RATE             config boundaries are Hz for this sample rate; convert on load
  --signal SIGNAL       input signal path
  --raw                 signal file is raw little-endian float64 instead of CSV
  --allow-singular      zero-fill singular bins
  --tight A             reconstruct with the analysis filters scaled by 1/A instead of the dual
                        bank
""",
    "frame": """\
usage: cews frame [-h] --config CONFIG [--n-samples N_SAMPLES] [--hz RATE] [--out OUT]
                  [--sum-squares]

options:
  -h, --help            show this help message and exit
  --config CONFIG       job config JSON path
  --n-samples N_SAMPLES
                        override the config grid size
  --hz RATE             config boundaries are Hz for this sample rate; convert on load
  --out OUT             output file path
  --sum-squares         include the full per-bin squared filter sum (large)
""",
    "detect": """\
usage: cews detect [-h] --signal SIGNAL [--raw] [--out OUT] --peaks K

options:
  -h, --help       show this help message and exit
  --signal SIGNAL  input signal path
  --raw            signal file is raw little-endian float64 instead of CSV
  --out OUT        output file path
  --peaks K        number of peaks
""",
}


@pytest.fixture
def config_path(tmp_path):
    def write(**overrides):
        payload = {**LP_CONFIG, **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


@pytest.fixture
def signal_path(tmp_path):
    def write(n=4096, seed=0, name="signal.csv"):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / name
        write_signal_csv(path, x)
        return str(path), x

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFilters:
    def test_shape_and_tightness(self, capsys, config_path, tmp_path):
        out = tmp_path / "filters.csv"
        code, _, _ = run(
            capsys, "filters", "--config", config_path(n_samples=8), "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "xi"
        assert len(header) == 1 + 2 * 7
        assert len(lines) == 1 + 8
        xi = [float(row.split(",")[0]) for row in lines[1:]]
        assert xi == sorted(xi)
        for row in lines[1:]:
            cells = [float(c) for c in row.split(",")[1:]]
            total = sum(re * re + im * im for re, im in zip(cells[0::2], cells[1::2]))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_rerun_is_byte_identical(self, capsys, config_path, tmp_path):
        config = config_path(n_samples=64)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "filters", "--config", config, "--out", str(first))[0] == 0
        assert run(capsys, "filters", "--config", config, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_header_names_support_indices(self, capsys, config_path, tmp_path):
        out = tmp_path / "filters.csv"
        run(capsys, "filters", "--config", config_path(n_samples=8), "--out", str(out))
        header = out.read_text().splitlines()[0]
        assert header.split(",")[1:3] == ["f-4_re", "f-4_im"]

    def test_values_are_bit_exact(self, capsys, config_path, tmp_path):
        out = tmp_path / "filters.csv"
        config = config_path(family="meyer", n_samples=255)
        assert run(capsys, "filters", "--config", config, "--out", str(out))[0] == 0
        lines = out.read_text().splitlines()[1:]
        table = np.array([[float(c) for c in line.split(",")] for line in lines])
        grid = FrequencyGrid(255)
        bank = sample_bank(build_partition("Vstar", scaled_bounds()), FamilyParams("meyer"), grid)
        order = np.argsort(grid.xi)
        spectra = bank.spectra[:, order]
        assert np.any(spectra.imag != 0.0)
        assert table[:, 0].tobytes() == grid.xi[order].tobytes()
        assert table[:, 1::2].T.tobytes() == spectra.real.tobytes()
        assert table[:, 2::2].T.tobytes() == spectra.imag.tobytes()


class TestForwardInverse:
    def test_pipeline_files(self, capsys, config_path, signal_path, tmp_path):
        config = config_path(n_samples=512)
        sig, x = signal_path(n=512)
        coef = tmp_path / "coef.ewtc"
        code, _, _ = run(
            capsys, "forward", "--config", config, "--signal", sig, "--out", str(coef)
        )
        assert code == 0
        rows, indices = read_coefficients(coef)
        partition = build_partition("Vstar", scaled_bounds())
        bank = sample_bank(
            partition,
            FamilyParams("littlewood-paley", gamma=0.9 * partition.max_gamma()),
            FrequencyGrid(512),
        )
        assert np.array_equal(rows, forward(x, bank).rows)
        assert indices == bank.support_indices

        rec_path = tmp_path / "rec.csv"
        code, _, _ = run(
            capsys, "inverse", "--config", config, "--coef", str(coef),
            "--out", str(rec_path),
        )
        assert code == 0
        rec = read_signal_csv(rec_path, n_expected=512)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-10

    def test_tight_with_a_subnormal_bound(self, capsys, config_path, tmp_path):
        # 1/A overflows for A = 1e-310, though x / A is a float
        config = config_path(boundaries=["-inf", -1.0, 0.5, "+inf"], n_samples=64)
        sig, coef, rec_path = (tmp_path / name for name in ("signal.csv", "coef.ewtc", "rec.csv"))
        x = np.random.default_rng(0).standard_normal(64) * 1e-318
        write_signal_csv(sig, x, real_only=True)
        code, _, _ = run(
            capsys, "forward", "--config", config, "--signal", str(sig), "--out", str(coef)
        )
        assert code == 0
        code, _, err = run(
            capsys, "inverse", "--config", config, "--coef", str(coef), "--tight", "1e-310",
            "--out", str(rec_path),
        )
        assert (code, err) == (0, "")
        rec = read_signal_csv(rec_path, n_expected=64)
        assert np.isfinite(rec).all()
        assert np.abs(rec - x / 1e-310).max() <= 1e-5 * np.abs(x / 1e-310).max()

    def test_raw_and_csv_read_signed_zeros_alike(self, capsys, config_path, tmp_path):
        # each -0.0 part must reach the transform from a raw file as from a CSV
        config = config_path(boundaries=["-inf", -1.0, 0.5, "+inf"], n_samples=8)
        x = np.full(8, complex(-0.0, -0.0))
        csv, raw = tmp_path / "csv-signal.csv", tmp_path / "raw-signal.bin"
        write_signal_csv(csv, x)
        raw.write_bytes(x.astype("<c16").tobytes())
        from_csv = read_signal_csv(csv, n_expected=8)
        assert cews.io.read_signal_raw(raw, n_expected=8).tobytes() == from_csv.tobytes()
        assert from_csv.tobytes() == x.tobytes()
        for signal, flags in ((csv, ()), (raw, ("--raw",))):
            code, _, err = run(
                capsys, "forward", "--config", config, "--signal", str(signal), *flags,
                "--out", str(signal.with_suffix(".ewtc")),
            )
            assert (code, err) == (0, "")
        csv_ewtc, raw_ewtc = (tmp_path / f"{kind}-signal.ewtc" for kind in ("csv", "raw"))
        assert csv_ewtc.read_bytes() == raw_ewtc.read_bytes()

    def test_forward_rerun_byte_identical(self, capsys, config_path, signal_path, tmp_path):
        config = config_path(n_samples=256)
        sig, _ = signal_path(n=256)
        a, b = tmp_path / "a.ewtc", tmp_path / "b.ewtc"
        run(capsys, "forward", "--config", config, "--signal", sig, "--out", str(a))
        run(capsys, "forward", "--config", config, "--signal", sig, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_inverse_requires_matching_layout(self, capsys, config_path, signal_path, tmp_path):
        config = config_path(n_samples=256)
        sig, _ = signal_path(n=256)
        coef = tmp_path / "coef.ewtc"
        run(capsys, "forward", "--config", config, "--signal", sig, "--out", str(coef))
        code, _, err = run(
            capsys, "inverse", "--config", config_path(n_samples=128),
            "--coef", str(coef), "--out", str(tmp_path / "rec.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "ShapeMismatch"

    def test_real_output_flag(self, capsys, config_path, tmp_path):
        config = config_path(n_samples=128, real_output=True)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128)
        sig = tmp_path / "real.csv"
        write_signal_csv(sig, x, real_only=True)
        coef = tmp_path / "coef.ewtc"
        run(capsys, "forward", "--config", config, "--signal", str(sig), "--out", str(coef))
        rec_path = tmp_path / "rec.csv"
        code, _, _ = run(
            capsys, "inverse", "--config", config, "--coef", str(coef),
            "--out", str(rec_path),
        )
        assert code == 0
        assert rec_path.read_text().splitlines()[0] == "re"
        rec = read_signal_csv(rec_path, n_expected=128)
        assert np.linalg.norm(rec.real - x) / np.linalg.norm(x) < 1e-10

    def test_raw_signal_ingestion(self, capsys, config_path, tmp_path):
        config = config_path(n_samples=64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64)
        raw = tmp_path / "signal.bin"
        raw.write_bytes(x.astype("<f8").tobytes())
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", str(raw), "--raw"
        )
        assert code == 0
        assert json.loads(out)["rel_l2_error"] < 1e-10


class TestRoundtrip:
    def test_reports_error_and_imag(self, capsys, config_path, signal_path):
        sig, _ = signal_path(n=4096)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config_path(), "--signal", sig
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"rel_l2_error", "max_imag"}
        assert payload["rel_l2_error"] <= 1e-10

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_samples_whose_squares_overflow(self, capsys, config_path, tmp_path, scale):
        # the squared norm of such a signal overflows, the signal does not
        sig = tmp_path / "signal.csv"
        x = np.random.default_rng(0).standard_normal(64) * scale
        write_signal_csv(sig, x, real_only=True)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64), "--signal", str(sig)
        )
        assert code == 0
        assert json.loads(out)["rel_l2_error"] <= 1e-10

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_samples_whose_squares_underflow(self, capsys, config_path, tmp_path, scale):
        # the squared norms underflow to 0; with A = 0.5 the tight frame gives
        # twice the signal back, off by the signal itself
        sig = tmp_path / "signal.csv"
        x = np.random.default_rng(0).standard_normal(64) * scale
        write_signal_csv(sig, x, real_only=True)
        config = config_path(n_samples=64)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", str(sig), "--tight", "0.5"
        )
        assert code == 0
        assert abs(json.loads(out)["rel_l2_error"] - 1.0) <= 1e-12

    def test_error_whose_square_overflows(self, capsys, config_path, tmp_path):
        sig = tmp_path / "signal.csv"
        write_signal_csv(sig, np.random.default_rng(0).standard_normal(64), real_only=True)
        config = config_path(n_samples=64)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", str(sig), "--tight", "1e-300"
        )
        assert code == 0
        assert abs(json.loads(out)["rel_l2_error"] / 1e300 - 1.0) <= 1e-12

    def test_subnormal_bound_reconstructs_but_its_error_ratio_overflows(
        self, capsys, config_path, tmp_path, monkeypatch
    ):
        # the reconstruction is about x / A, so |rec - x| / |x| is about 1e310
        sig = tmp_path / "signal.csv"
        write_signal_csv(sig, np.random.default_rng(0).standard_normal(64) * 1e-318, real_only=True)
        config = config_path(boundaries=["-inf", -1.0, 0.5, "+inf"], n_samples=64)
        reconstruct, recs = cews.cli._reconstruct, []

        def keep(*args):
            recs.append(reconstruct(*args))
            return recs[-1]

        monkeypatch.setattr(cews.cli, "_reconstruct", keep)
        code, out, err = run(
            capsys, "roundtrip", "--config", config, "--signal", str(sig), "--tight", "1e-310"
        )
        assert code == 1
        assert error_payload(out, err)["error"] == "FloatingPointError"
        assert len(recs) == 1 and np.isfinite(recs[0]).all()

    def test_error_beyond_the_largest_float_exits_1(
        self, capsys, config_path, tmp_path, monkeypatch
    ):
        sig = tmp_path / "signal.csv"
        write_signal_csv(sig, np.full(64, 1e-300), real_only=True)
        monkeypatch.setattr(cews.cli, "_reconstruct", lambda *_: np.full(64, 1e300 + 0j))
        code, out, err = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64), "--signal", str(sig)
        )
        assert code == 1
        assert error_payload(out, err)["error"] == "FloatingPointError"

    def test_tight_flag(self, capsys, config_path, signal_path):
        sig, _ = signal_path(n=1024)
        config = config_path(n_samples=1024)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", sig, "--tight", "1.0"
        )
        assert code == 0
        assert json.loads(out)["rel_l2_error"] <= 1e-10
        for bad in ("-1.0", "inf", "nan"):
            code, _, err = run(
                capsys, "roundtrip", "--config", config, "--signal", sig, "--tight", bad
            )
            assert code == 1
            assert json.loads(err)["error"] == "NonPositiveA"

    def test_singular_frame_policy(self, capsys, config_path, signal_path, tmp_path):
        config = config_path(
            boundaries=["-inf", -0.05, 0.05, "+inf"],
            family="gabor",
            gabor_rays="local",
            n_samples=4096,
        )
        sig, _ = signal_path(n=4096)
        code, _, err = run(capsys, "roundtrip", "--config", config, "--signal", sig)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "SingularFrame"
        assert len(payload["bins"]) > 0
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", sig, "--allow-singular"
        )
        assert code == 0
        assert "rel_l2_error" in json.loads(out)


class TestFrame:
    def test_lp_report(self, capsys, config_path):
        code, out, _ = run(capsys, "frame", "--config", config_path(n_samples=1024))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "A_emp", "B_emp", "A_analytic", "B_analytic", "per_filter_norm",
            "singular_bins",
        }
        assert payload["A_emp"] == pytest.approx(1.0, abs=1e-10)
        assert payload["B_emp"] == pytest.approx(1.0, abs=1e-10)
        assert payload["A_analytic"] == 1.0 and payload["B_analytic"] == 1.0
        assert payload["singular_bins"] == []

    def test_sum_squares_flag_and_out_file(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "frame", "--config", config_path(n_samples=256),
            "--sum-squares", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["sum_squares"]) == 256

    def test_meyer_report_matches_analytic(self, capsys, config_path):
        code, out, _ = run(
            capsys, "frame", "--config", config_path(family="meyer", n_samples=16384)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["A_emp"] == pytest.approx(payload["A_analytic"], abs=1e-3)
        assert payload["B_emp"] == pytest.approx(payload["B_analytic"], abs=1e-3)
        assert payload["A_emp"] >= payload["A_analytic"] - 1e-9


class TestDetect:
    def test_two_tone_detection(self, capsys, tmp_path):
        n = 256
        t = np.arange(n)
        x = np.cos(2 * np.pi * 20 * t / n) + 0.6 * np.cos(2 * np.pi * 60 * t / n)
        sig = tmp_path / "tones.csv"
        write_signal_csv(sig, x, real_only=True)
        code, out, _ = run(capsys, "detect", "--signal", str(sig), "--peaks", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "Vstar"
        assert payload["boundaries"][0] == "-inf"
        assert payload["boundaries"][-1] == "+inf"
        assert len(payload["boundaries"]) == 6

    def test_complex_two_tone_without_a_config_exits_1(self, capsys, tmp_path):
        # two peaks give one cut, so the Vstar proposal lacks a negative side
        t = np.arange(256)
        x = np.exp(2j * np.pi * 40 * t / 256) + np.exp(-2j * np.pi * 90 * t / 256)
        sig = tmp_path / "tones.csv"
        write_signal_csv(sig, x)
        code, out, err = run(capsys, "detect", "--signal", str(sig), "--peaks", "2")
        assert code == 1
        assert error_payload(out, err)["error"] == "VstarMissingSide"

    def test_too_many_peaks(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        sig = tmp_path / "noise.csv"
        write_signal_csv(sig, rng.standard_normal(128), real_only=True)
        code, _, err = run(capsys, "detect", "--signal", str(sig), "--peaks", "65")
        assert code == 1
        assert json.loads(err)["error"] == "FewerPeaksThanRequested"

    def test_zero_peaks_is_parse_error(self, capsys, tmp_path):
        sig = tmp_path / "noise.csv"
        write_signal_csv(sig, np.zeros(16), real_only=True)
        code, _, err = run(capsys, "detect", "--signal", str(sig), "--peaks", "0")
        assert code == 2


class TestErrorPaths:
    def test_invalid_config_exits_2(self, capsys, tmp_path, signal_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**LP_CONFIG, "mode": "diagonal"}))
        sig, _ = signal_path(n=16)
        code, _, err = run(
            capsys, "roundtrip", "--config", str(config), "--signal", sig
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputFormatError"
        assert "mode" in payload["message"]

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"gamma": "0.5"}, "gamma: expected a number, got '0.5'"),
            ({"boundaries": [1.0]}, "boundaries: at least 2 values required"),
        ],
    )
    def test_config_field_errors_exit_2(self, capsys, config_path, field, message):
        code, out, err = run(capsys, "frame", "--config", config_path(**field))
        assert code == 2
        assert error_payload(out, err) == {"error": "InputFormatError", "message": message}

    def test_empty_signal_exits_2(self, capsys, config_path, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(
            capsys, "roundtrip", "--config", config_path(), "--signal", str(empty)
        )
        assert code == 2
        assert json.loads(err)["error"] == "InputFormatError"

    def test_missing_file_exits_2(self, capsys, config_path):
        code, _, err = run(
            capsys, "roundtrip", "--config", config_path(),
            "--signal", "/nonexistent/signal.csv",
        )
        assert code == 2

    def test_validation_error_exits_1(self, capsys, config_path, signal_path):
        sig, _ = signal_path(n=64)
        config = config_path(boundaries=["-inf", 0.5, -0.5, "+inf"], n_samples=64)
        code, _, err = run(capsys, "roundtrip", "--config", config, "--signal", sig)
        assert code == 1
        assert json.loads(err)["error"] == "NotSorted"

    def test_meyer_ray_centered_at_zero_exits_1(self, capsys, config_path):
        config = config_path(boundaries=["-inf", -0.5, 0.5, "+inf"], family="meyer", n_samples=64)
        code, out, err = run(capsys, "frame", "--config", config)
        assert code == 1
        assert error_payload(out, err)["error"] == "DegenerateCenter"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_csv_sample_exits_2(self, capsys, config_path, tmp_path, token):
        sig = tmp_path / "signal.csv"
        sig.write_text("re,im\n" + "1.0,0.0\n" * 40 + f"0.5,{token}\n" + "1.0,0.0\n" * 23)
        code, out, err = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64), "--signal", str(sig)
        )
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "InputFormatError"
        assert "line 42" in payload["message"]

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_break_inside_a_cell_exits_2(self, capsys, config_path, tmp_path, separator):
        # str.splitlines ends a line at each of these, which would read the
        # cell "4<separator>5" as the two samples 4 and 5, and 64 in all
        sig = tmp_path / "signal.csv"
        text = "re\n" + "1.0\n" * 40 + f"4{separator}5\n" + "1.0\n" * 22
        sig.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64), "--signal", str(sig)
        )
        assert code == 2
        payload = error_payload(out, err)
        assert payload["error"] == "InputFormatError"
        assert "line 42: " in payload["message"]

    def test_non_finite_raw_sample_exits_2(self, capsys, config_path, tmp_path):
        x = np.ones(64)
        x[7] = np.nan
        raw = tmp_path / "signal.bin"
        raw.write_bytes(x.astype("<f8").tobytes())
        code, out, err = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64),
            "--signal", str(raw), "--raw",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputFormatError"

    def test_non_finite_coefficient_exits_2(self, capsys, config_path, signal_path, tmp_path):
        config = config_path(n_samples=64)
        sig, _ = signal_path(n=64)
        coef = tmp_path / "coef.ewtc"
        run(capsys, "forward", "--config", config, "--signal", sig, "--out", str(coef))
        rows, indices = read_coefficients(coef)
        rows = rows.copy()
        rows[2, 5] = complex(0.0, np.inf)
        write_coefficients(coef, rows, indices)
        rec = tmp_path / "rec.csv"
        code, _, err = run(
            capsys, "inverse", "--config", config, "--coef", str(coef), "--out", str(rec)
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InputFormatError"
        assert "row 2, sample 5" in payload["message"]
        assert not rec.exists()

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    def test_overflowing_signal_exits_1(self, capsys, config_path, tmp_path, command):
        sig = tmp_path / "signal.csv"
        sig.write_text("re\n" + "1e308\n" * 64)
        coef = tmp_path / "coef.ewtc"
        argv = ["--config", config_path(n_samples=64), "--signal", str(sig)]
        if command == "forward":
            argv += ["--out", str(coef)]
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert error_payload(out, err)["error"] == "FloatingPointError"
        assert not coef.exists()

    def test_allocation_failure_exits_1(self, capsys, config_path, monkeypatch):
        def exhausted(config):
            raise MemoryError("cannot allocate the bank")

        monkeypatch.setattr(cews.io, "realize_bank", exhausted)
        code, out, err = run(capsys, "frame", "--config", config_path(n_samples=64))
        assert code == 1
        assert error_payload(out, err)["error"] == "MemoryError"

    def test_n_samples_beyond_coefficient_format_exits_2(self, capsys, config_path):
        # rejected while parsing, before any grid is allocated
        code, out, err = run(
            capsys, "frame", "--config", config_path(), "--n-samples", "10000000000000"
        )
        assert code == 2
        assert "n_samples" in error_payload(out, err)["message"]

    @pytest.mark.parametrize(
        "field, value", [("epsilon", math.nan), ("epsilon", math.inf), ("gamma", math.nan)]
    )
    def test_non_finite_config_number_exits_2(self, capsys, config_path, field, value):
        code, out, err = run(
            capsys, "frame", "--config", config_path(n_samples=64, **{field: value})
        )
        assert code == 2
        assert error_payload(out, err)["message"].startswith(f"{field}:")

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_sample_rate_exits_2(self, capsys, config_path, rate):
        code, out, err = run(
            capsys, "frame", "--config", config_path(n_samples=64), "--hz", rate
        )
        assert code == 2
        assert error_payload(out, err)["error"] == "InputFormatError"

    @pytest.mark.parametrize("damaged", ["config", "signal"])
    def test_non_utf8_input_exits_2(self, capsys, config_path, signal_path, tmp_path, damaged):
        config = config_path(n_samples=64)
        sig, _ = signal_path(n=64)
        bad = Path(config if damaged == "config" else sig)
        text = bad.read_bytes()
        bad.write_bytes(text[:1] + b"\xff" + text[1:])
        code, out, err = run(capsys, "roundtrip", "--config", config, "--signal", sig)
        assert code == 2
        assert str(bad) in error_payload(out, err)["message"]

    def test_wrong_signal_length_exits_1(self, capsys, config_path, signal_path):
        sig, _ = signal_path(n=100)
        code, _, err = run(
            capsys, "roundtrip", "--config", config_path(n_samples=64), "--signal", sig
        )
        assert code == 1
        assert json.loads(err)["error"] == "LengthMismatch"


class TestFlags:
    def test_n_samples_override(self, capsys, config_path, tmp_path):
        out = tmp_path / "filters.csv"
        code, _, _ = run(
            capsys, "filters", "--config", config_path(), "--n-samples", "16",
            "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 17

    def test_hz_conversion(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "mode": "Vstar",
                    "boundaries": ["-inf", -100, 100, "+inf"],
                    "family": "shannon",
                    "n_samples": 64,
                }
            )
        )
        out = tmp_path / "filters.csv"
        code, _, _ = run(
            capsys, "filters", "--config", str(config), "--hz", "1000", "--out", str(out)
        )
        assert code == 0
        # without conversion the 100 rad boundary is outside (-pi, pi)
        code, _, err = run(
            capsys, "filters", "--config", str(config), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert json.loads(err)["error"] == "BoundaryOutsideGrid"

    def test_inverse_and_roundtrip_share_the_reconstruction_flags(self, capsys):
        # the two flags close both option lists, so the help from the last
        # --allow-singular on is theirs alone
        tails = []
        for command in ("inverse", "roundtrip"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            tails.append(" ".join(text[text.rindex("--allow-singular"):].split()))
        assert tails[0] == tails[1]
        assert tails[1] == (
            "--allow-singular zero-fill singular bins --tight A reconstruct with the "
            "analysis filters scaled by 1/A instead of the dual bank"
        )

# argparse's own messages, as one JSON line instead of usage text
USAGE_ERRORS = [
    (["inverse", "--config", "x"], "the following arguments are required: --coef, --out"),
    (
        ["filters", "--config", "x", "--out", "y", "--n-samples", "abc"],
        "argument --n-samples: invalid int value: 'abc'",
    ),
    (
        ["inverse", "--config", "x", "--coef", "c", "--out", "o", "--tight", "nope"],
        "argument --tight: invalid float value: 'nope'",
    ),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
]


class TestCommandLine:
    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        assert exit_.value.code == 0
        assert captured.err == ""
        assert captured.out == HELP[command]

    @pytest.mark.parametrize(
        "argv, message",
        USAGE_ERRORS,
        ids=["missing-required", "bad-int", "bad-float", "unknown-command", "no-command"],
    )
    def test_usage_error_is_one_json_line(self, capsys, argv, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        payload = error_payload(out, err)
        assert payload["error"] == "InputFormatError"
        # the list of choices is quoted differently across Python versions
        assert payload["message"].startswith(message)
        assert list(tmp_path.iterdir()) == []

    def test_dispatch_reads_the_command_at_call_time(self, capsys, monkeypatch):
        # the benchmark's traced run times the commands by patching cmd_*
        seen = []
        monkeypatch.setattr(cews.cli, "cmd_frame", lambda args: seen.append(args.config) or 0)
        assert run(capsys, "frame", "--config", "job.json") == (0, "", "")
        assert seen == ["job.json"]


def run_module(*argv):
    """`python -m cews ARGV` in a child that imports the package under test,
    wherever pytest found it."""
    src = str(Path(cews.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cews", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**LP_CONFIG, "n_samples": 8}))
    out = tmp_path / "filters.csv"
    proc = run_module("filters", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()


def test_module_entry_point_usage_error():
    proc = run_module("inverse", "--config", "x")
    assert proc.returncode == 2
    payload = error_payload(proc.stdout, proc.stderr)
    assert payload == {
        "error": "InputFormatError",
        "message": "the following arguments are required: --coef, --out",
    }


# -- the CLI against the library --------------------------------------------------


@st.composite
def cli_jobs(draw):
    """A valid job: partition, family parameters and grid, a real or complex
    signal with signed zeros, whose largest sample is 1, subnormal or large
    enough that its transform may overflow, and the flags: ``complex`` for
    the signal, ``real_output``, ``--allow-singular`` and ``--sum-squares``."""
    partition, grid = draw(partitions_on_grid(st.integers(1, 300)))
    params = make_params(partition, draw(ALL_FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = grid.n_samples
    flags = ("complex", "real_output", "allow_singular", "sum_squares")
    flags = draw(st.fixed_dictionaries({flag: st.booleans() for flag in flags}))
    x = rng.standard_normal(n).astype(complex)
    if flags["complex"]:
        x.imag = rng.standard_normal(n)
    x.real[rng.random(n) < 0.1] = -0.0
    # the largest |sample|
    x = x / (np.abs(x).max() or 1.0) * draw(st.sampled_from([1.0, 1e-310, 1e308]))
    return partition, params, grid, x, flags


def run_main(*argv):
    """``cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def library(compose):
    """compose() under the CLI's numpy error state, or the error it raises."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return compose()
    except (EwtError, FloatingPointError) as exc:
        return exc


@settings(max_examples=100, deadline=None)
@given(cli_jobs())
def test_cli_writes_what_the_library_composes(job):
    partition, params, grid, x, flags = job
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        config = {
            "mode": partition.mode,
            "boundaries": [encode_boundary(v) for v in partition.boundaries],
            "family": params.family,
            "n_samples": grid.n_samples,
            "real_output": flags["real_output"],
        }
        if params.gabor_rays is not None:
            config["gabor_rays"] = params.gabor_rays
        (tmp / "job.json").write_text(json.dumps(config))
        write_signal_csv(tmp / "signal.csv", x, real_only=not flags["complex"])

        def written(write):
            """The bytes a library writer leaves in a fresh file."""
            path = tmp / "expected"
            write(path)
            return path.read_bytes()

        def filters(bank):
            order = grid.order
            header, columns = ["xi"], [grid.xi[order]]
            for n, row in zip(bank.support_indices, bank.spectra[:, order]):
                header += [f"f{n}_re", f"f{n}_im"]
                columns += [row.real, row.imag]
            return written(lambda path: write_csv(path, header, columns))

        def frame(bank):
            report = frame_report(bank)
            payload = {
                "A_emp": report.a_empirical,
                "B_emp": report.b_empirical,
                "A_analytic": report.a_analytic,
                "B_analytic": report.b_analytic,
                "per_filter_norm": list(report.per_filter_norm),
                "singular_bins": list(report.singular_bins),
            }
            if flags["sum_squares"]:
                payload["sum_squares"] = [float(v) for v in report.sum_squares]
            return json.dumps(payload, allow_nan=False) + "\n"

        def coefficients(bank):
            coeffs = forward(x, bank)
            indices = coeffs.support_indices
            return written(lambda path: write_coefficients(path, coeffs.rows, indices))

        def signal(rec):
            return written(lambda path: write_signal_csv(path, rec, real_only=flags["real_output"]))

        def through_dual(bank):
            dual = dual_bank(bank, allow_singular=flags["allow_singular"])
            return signal(inverse(forward(x, bank), dual))

        def tight(bank):
            return signal(inverse_tight(forward(x, bank), bank, 1.0))

        job_args = ["--config", tmp / "job.json"]
        sum_squares = ["--sum-squares"] * flags["sum_squares"]
        signal_args = ["--signal", tmp / "signal.csv"]
        inverse_args = ["inverse", *job_args, "--coef", tmp / "c.ewtc"]
        singular = ["--allow-singular"] * flags["allow_singular"]
        commands = [
            (["filters", *job_args], tmp / "f.csv", filters),
            (["frame", *job_args, *sum_squares], None, frame),
            (["forward", *job_args, *signal_args], tmp / "c.ewtc", coefficients),
            ([*inverse_args, *singular], tmp / "d.csv", through_dual),
            ([*inverse_args, "--tight", "1.0"], tmp / "t.csv", tight),
        ]
        for argv, out, compose in commands:
            argv += [] if out is None else ["--out", out]
            # each command samples its own bank, as each CLI run does
            expected = library(lambda: compose(sample_bank(partition, params, grid)))
            code, stdout, stderr = run_main(*argv)
            if isinstance(expected, Exception):
                assert code == 1
                payload = error_payload(stdout, stderr)
                assert payload["error"] == type(expected).__name__
                assert payload["message"] == str(expected)
                if argv[0] == "forward":
                    break  # the inverses read forward's file
            else:
                assert (code, stderr) == (0, "")
                assert (stdout if out is None else out.read_bytes()) == expected
