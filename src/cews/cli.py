"""Command line front end.

Subcommands: filters | forward | inverse | roundtrip | frame | detect.
Exit codes: 0 success, 1 math/validation error, overflow or failed allocation,
2 I/O or parse error; errors are reported as one-line JSON objects on stderr.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as formats
from .errors import EwtError, InputFormatError, ShapeMismatch, SingularFrame
from .frame_analysis import frame_report
from .transform import EwtCoefficients, dual_bank, forward, inverse, inverse_tight


def _add_common(sub, *, config=True, signal=False, coef=False, out=False, out_required=False):
    if config:
        sub.add_argument("--config", required=True, help="job config JSON path")
        sub.add_argument(
            "--n-samples", type=int, default=None, help="override the config grid size"
        )
        sub.add_argument(
            "--hz",
            type=float,
            default=None,
            metavar="RATE",
            help="config boundaries are Hz for this sample rate; convert on load",
        )
    if signal:
        sub.add_argument("--signal", required=True, help="input signal path")
        sub.add_argument(
            "--raw",
            action="store_true",
            help="signal file is raw little-endian float64 instead of CSV",
        )
    if coef:
        sub.add_argument("--coef", required=True, help="coefficient file path")
    if out:
        sub.add_argument(
            "--out", required=out_required, default=None, help="output file path"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cews",
        description="Empirical wavelet filter banks on data-driven frequency "
        "partitions: sampling, analysis, exact reconstruction and frame reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="write the sampled filter bank as CSV")
    _add_common(p, out=True, out_required=True)
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("forward", help="transform a signal into coefficients")
    _add_common(p, signal=True, out=True, out_required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("inverse", help="reconstruct a signal from coefficients")
    _add_common(p, coef=True, out=True, out_required=True)
    p.add_argument("--allow-singular", action="store_true", help="zero-fill singular bins")
    p.add_argument(
        "--tight",
        type=float,
        default=None,
        metavar="A",
        help="reconstruct with the analysis filters scaled by 1/A instead of the dual bank",
    )
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("roundtrip", help="forward + inverse, report the error as JSON")
    _add_common(p, signal=True)
    p.add_argument("--allow-singular", action="store_true", help="zero-fill singular bins")
    p.add_argument("--tight", type=float, default=None, metavar="A")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("frame", help="frame bounds and filter norms as JSON")
    _add_common(p, out=True)
    p.add_argument(
        "--sum-squares",
        action="store_true",
        help="include the full per-bin squared filter sum (large)",
    )
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("detect", help="propose partition boundaries from a signal")
    _add_common(p, config=False, signal=True, out=True)
    p.add_argument("--peaks", type=int, required=True, metavar="K", help="number of peaks")
    p.set_defaults(func=cmd_detect)

    return parser


def _load_config(args) -> formats.JobConfig:
    config = formats.load_config(args.config, n_samples_override=args.n_samples)
    if args.hz is not None:
        config = formats.convert_hz(config, args.hz)
    if getattr(args, "allow_singular", False):
        config = replace(config, allow_singular=True)
    return config


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
    config = _load_config(args)
    bank = formats.realize_bank(config)
    order = np.argsort(bank.grid.xi)
    header, columns = ["xi"], [bank.grid.xi[order]]
    for n, row in zip(bank.support_indices, bank.spectra[:, order]):
        header += [f"f{n}_re", f"f{n}_im"]
        columns += [row.real, row.imag]
    formats.write_csv(args.out, header, columns)
    return 0


def cmd_forward(args) -> int:
    config = _load_config(args)
    bank = formats.realize_bank(config)
    signal = _read_signal(args, config.n_samples)
    coeffs = forward(signal, bank)
    formats.write_coefficients(args.out, coeffs.rows, coeffs.support_indices)
    return 0


def cmd_inverse(args) -> int:
    config = _load_config(args)
    bank = formats.realize_bank(config)
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


def cmd_roundtrip(args) -> int:
    config = _load_config(args)
    bank = formats.realize_bank(config)
    signal = _read_signal(args, config.n_samples)
    coeffs = forward(signal, bank)
    rec = _reconstruct(args, config, bank, coeffs)
    denom = float(np.linalg.norm(signal))
    err = float(np.linalg.norm(rec - signal)) / denom if denom else 0.0
    payload = {"rel_l2_error": err, "max_imag": float(np.abs(rec.imag).max())}
    print(json.dumps(payload, allow_nan=False))
    return 0


def cmd_frame(args) -> int:
    config = _load_config(args)
    bank = formats.realize_bank(config)
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
    if args.peaks < 1:
        raise InputFormatError("--peaks must be >= 1")
    signal = _read_signal(args, n_expected=None)
    proposal = formats.propose_boundaries(signal, args.peaks)
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
    args = build_parser().parse_args(argv)
    try:
        # overflow and NaN abort the command; Gabor tails underflow by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except InputFormatError as exc:
        return _fail(exc, 2)
    except EwtError as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 2)
    except (FloatingPointError, MemoryError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
