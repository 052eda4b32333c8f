"""Command line front end.

Subcommands: filters | forward | inverse | roundtrip | frame | detect.
Exit codes: 0 success, 1 math/validation error, overflow or failed allocation,
2 I/O, parse or command-line error; each error is one JSON line on stderr.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as formats
from .errors import EwtError, InputFormatError, ShapeMismatch, SingularFrame
from .families import _fill, _zeros
from .frame_analysis import frame_report
from .partition import build_partition
from .transform import EwtCoefficients, dual_bank, forward, inverse, inverse_tight


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error, so that it prints as one JSON line too."""

    def error(self, message):
        raise InputFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    job, signal, coef, out, maybe_out, recon = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    job.add_argument("--config", required=True, help="job config JSON path")
    job.add_argument("--n-samples", type=int, help="override the config grid size")
    job.add_argument(
        "--hz",
        type=float,
        metavar="RATE",
        help="config boundaries are Hz for this sample rate; convert on load",
    )
    signal.add_argument("--signal", required=True, help="input signal path")
    signal.add_argument(
        "--raw", action="store_true", help="signal file is raw little-endian float64 instead of CSV"
    )
    coef.add_argument("--coef", required=True, help="coefficient file path")
    out.add_argument("--out", required=True, help="output file path")
    maybe_out.add_argument("--out", help="output file path")
    recon.add_argument("--allow-singular", action="store_true", help="zero-fill singular bins")
    recon.add_argument(
        "--tight",
        type=float,
        metavar="A",
        help="reconstruct with the analysis filters scaled by 1/A instead of the dual bank",
    )

    parser = _Parser(
        prog="cews",
        description="Empirical wavelet filter banks on data-driven frequency "
        "partitions: sampling, analysis, exact reconstruction and frame reports.",
    )
    parser.set_defaults(allow_singular=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # built per call, not at import, so that main dispatches to a patched cmd_*
    for name, summary, groups, func in (
        ("filters", "write the sampled filter bank as CSV", [job, out], cmd_filters),
        ("forward", "transform a signal into coefficients", [job, signal, out], cmd_forward),
        ("inverse", "reconstruct a signal from coefficients", [job, coef, out, recon], cmd_inverse),
        (
            "roundtrip",
            "forward + inverse, report the error as JSON",
            [job, signal, recon],
            cmd_roundtrip,
        ),
        ("frame", "frame bounds and filter norms as JSON", [job, maybe_out], cmd_frame),
        ("detect", "propose partition boundaries from a signal", [signal, maybe_out], cmd_detect),
    ):
        sub.add_parser(name, help=summary, parents=groups).set_defaults(func=func)
    sub.choices["frame"].add_argument(
        "--sum-squares",
        action="store_true",
        help="include the full per-bin squared filter sum (large)",
    )
    sub.choices["detect"].add_argument(
        "--peaks", type=int, required=True, metavar="K", help="number of peaks"
    )
    return parser


def _load_job(args):
    """The job's config, with the command line's overrides, and its bank."""
    config = formats.load_config(args.config, n_samples_override=args.n_samples)
    if args.hz is not None:
        config = formats.convert_hz(config, args.hz)
    if args.allow_singular:
        config = replace(config, allow_singular=True)
    return config, formats.realize_bank(config)


def _read_signal(args, n_expected):
    if args.raw:
        return formats.read_signal_raw(args.signal, n_expected=n_expected)
    return formats.read_signal_csv(args.signal, n_expected=n_expected)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        print(text)
    else:
        Path(out_path).write_text(text + "\n")


def _reconstruct(args, config, bank, coeffs):
    if args.tight is not None:
        return inverse_tight(coeffs, bank, args.tight)
    dual = dual_bank(bank, epsilon=config.epsilon, allow_singular=config.allow_singular)
    return inverse(coeffs, dual)


def cmd_filters(args) -> int:
    config, bank = _load_job(args)
    header, columns, order = ["xi"], [bank.grid._sorted_xi], bank.grid.order
    for n, layout in zip(bank.support_indices, bank._layout()):
        row = _zeros(order.size)
        _fill(row, *layout)
        row = row[order]
        header += [f"f{n}_re", f"f{n}_im"]
        columns += [row.real, row.imag]
    formats.write_csv(args.out, header, columns)
    return 0


def cmd_forward(args) -> int:
    config, bank = _load_job(args)
    signal = _read_signal(args, config.n_samples)
    coeffs = forward(signal, bank)
    formats.write_coefficients(args.out, coeffs.rows, coeffs.support_indices)
    return 0


def cmd_inverse(args) -> int:
    config, bank = _load_job(args)
    rows, indices = formats.read_coefficients(args.coef)
    if indices != bank.support_indices:
        raise ShapeMismatch(
            f"coefficient file indexes supports {list(indices)}, "
            f"config yields {list(bank.support_indices)}"
        )
    if rows.shape[1] != config.n_samples:
        raise ShapeMismatch(
            f"coefficient file holds {rows.shape[1]} samples, config says {config.n_samples}"
        )
    rec = _reconstruct(args, config, bank, EwtCoefficients(rows, indices))
    formats.write_signal_csv(args.out, rec, real_only=config.real_output)
    return 0


def _norm(v):
    """The l2 norm of v. np.linalg.norm squares the samples, so where it
    overflows or comes out below 1e-146, near where the squares underflow,
    the norm is taken of |v| / max|v| and scaled back."""
    try:
        norm = np.linalg.norm(v)
    except FloatingPointError:
        norm = 0.0
    if norm < 1e-146:
        moduli = np.abs(v)
        peak = moduli.max()
        if peak:
            norm = peak * np.linalg.norm(moduli / peak)
    return norm


def cmd_roundtrip(args) -> int:
    config, bank = _load_job(args)
    signal = _read_signal(args, config.n_samples)
    coeffs = forward(signal, bank)
    rec = _reconstruct(args, config, bank, coeffs)
    denom = _norm(signal)
    # numpy floats, so that a ratio beyond the largest float raises
    err = float(_norm(rec - signal) / denom) if denom else 0.0
    payload = {"rel_l2_error": err, "max_imag": float(np.abs(rec.imag).max())}
    print(json.dumps(payload, allow_nan=False))
    return 0


def cmd_frame(args) -> int:
    config, bank = _load_job(args)
    report = frame_report(bank, epsilon=config.epsilon)
    payload = {
        "A_emp": report.a_empirical,
        "B_emp": report.b_empirical,
        "A_analytic": report.a_analytic,
        "B_analytic": report.b_analytic,
        "per_filter_norm": list(report.per_filter_norm),
        "singular_bins": list(report.singular_bins),
    }
    if args.sum_squares:
        payload["sum_squares"] = [float(v) for v in report.sum_squares]
    _emit(json.dumps(payload, allow_nan=False), args.out)
    return 0


def cmd_detect(args) -> int:
    signal = _read_signal(args, n_expected=None)
    proposal = formats.propose_boundaries(signal, args.peaks)
    build_partition(proposal["mode"], proposal["boundaries"])  # refuse what no config accepts
    payload = {
        "mode": proposal["mode"],
        "boundaries": [formats.encode_boundary(v) for v in proposal["boundaries"]],
    }
    _emit(json.dumps(payload), args.out)
    return 0


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SingularFrame):
        payload["bins"] = list(exc.bins)
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow and NaN abort the command; Gabor tails underflow by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (InputFormatError, OSError) as exc:
        return _fail(exc, 2)
    except (EwtError, FloatingPointError, MemoryError) as exc:
        return _fail(exc, 1)
