import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cews
import cews.io
from cews import FamilyParams, FrequencyGrid, build_partition, forward, sample_bank
from cews.cli import main
from cews.io import read_coefficients, read_signal_csv, write_coefficients, write_signal_csv

from conftest import error_payload, scaled_bounds

LP_CONFIG = {
    "mode": "Vstar",
    "boundaries": ["-inf"] + [v for v in scaled_bounds() if math.isfinite(v)] + ["+inf"],
    "family": "littlewood-paley",
    "n_samples": 4096,
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

    def test_tight_flag(self, capsys, config_path, signal_path):
        sig, _ = signal_path(n=1024)
        config = config_path(n_samples=1024)
        code, out, _ = run(
            capsys, "roundtrip", "--config", config, "--signal", sig, "--tight", "1.0"
        )
        assert code == 0
        assert json.loads(out)["rel_l2_error"] <= 1e-10
        code, _, err = run(
            capsys, "roundtrip", "--config", config, "--signal", sig, "--tight", "-1.0"
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


def test_module_entry_point(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**LP_CONFIG, "n_samples": 8}))
    out = tmp_path / "filters.csv"
    # the child must import the package under test, wherever pytest found it
    src = str(Path(cews.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cews", "filters", "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert out.exists()
