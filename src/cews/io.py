"""Job configs, signal and coefficient persistence, and the toy spectral-peak
boundary proposer.

All writers are deterministic: floats are serialized through Python's repr
(shortest round-trip form), so identical inputs produce byte-identical files.
"""

import json
import math
import struct
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import FewerPeaksThanRequested, InputFormatError, LengthMismatch
from .families import (
    FAMILIES,
    GABOR,
    GABOR_RAY_EXTENDED,
    GABOR_RAY_OPTIONS,
    LITTLEWOOD_PALEY,
    FamilyParams,
    FilterBank,
    sample_bank,
)
from .partition import MODES, VSTAR_MODE, build_partition
from .spectral import FrequencyGrid

COEF_MAGIC = b"EWTC"
COEF_VERSION = 1
MAX_N_SAMPLES = 2**32 - 1  # the EWTC header stores N as u32

DEFAULT_EPSILON = 1e-12
DEFAULT_GAMMA_FRACTION = 0.9  # CLI default gamma = fraction * max_gamma


@dataclass(frozen=True)
class JobConfig:
    """One decoded job: partition + family + grid + runtime switches."""

    mode: str
    boundaries: tuple
    family: str
    n_samples: int
    gamma: float = None
    gabor_rays: str = GABOR_RAY_EXTENDED
    epsilon: float = DEFAULT_EPSILON
    allow_singular: bool = False
    real_output: bool = False


_CONFIG_FIELDS = {f.name for f in fields(JobConfig)}


def decode_boundary(value, where: str) -> float:
    """A config boundary: a finite number, or the strings '-inf' / '+inf'."""
    if isinstance(value, str):
        token = value.strip().lower()
        if token == "-inf":
            return -math.inf
        if token in ("+inf", "inf"):
            return math.inf
        raise InputFormatError(f"{where}: expected a number or '-inf'/'+inf', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: expected a number or '-inf'/'+inf', got {value!r}")
    if not math.isfinite(value):
        raise InputFormatError(f"{where}: non-finite numbers must use '-inf'/'+inf' strings")
    return float(value)


def encode_boundary(value: float):
    if value == -math.inf:
        return "-inf"
    if value == math.inf:
        return "+inf"
    return float(value)


def _require(obj, key, kind, where=None):
    where = where or key
    if key not in obj:
        raise InputFormatError(f"{where}: required field is missing")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputFormatError(f"{where}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise InputFormatError(f"{where}: expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputFormatError(f"{where}: expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise InputFormatError(f"{where}: expected true/false, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise InputFormatError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def parse_config(obj, n_samples_override: int = None) -> JobConfig:
    """Decode a config mapping with field-precise errors."""
    if not isinstance(obj, dict):
        raise InputFormatError("config root must be a JSON object")
    for key in obj:
        if key not in _CONFIG_FIELDS:
            raise InputFormatError(f"{key}: unknown config field")

    mode = _require(obj, "mode", str)
    if mode not in MODES:
        raise InputFormatError(f"mode: must be one of {list(MODES)}, got {mode!r}")

    raw = _require(obj, "boundaries", list)
    boundaries = tuple(
        decode_boundary(v, f"boundaries[{i}]") for i, v in enumerate(raw)
    )
    if len(boundaries) < 2:
        raise InputFormatError("boundaries: at least 2 values required")

    family = _require(obj, "family", str)
    if family not in FAMILIES:
        raise InputFormatError(f"family: must be one of {list(FAMILIES)}, got {family!r}")

    if n_samples_override is not None:
        n_samples = int(n_samples_override)
    else:
        n_samples = _require(obj, "n_samples", int)
    if not 1 <= n_samples <= MAX_N_SAMPLES:
        raise InputFormatError(f"n_samples: must lie in [1, {MAX_N_SAMPLES}]")

    gamma = None
    if "gamma" in obj:
        gamma = _require(obj, "gamma", float)
        if family != LITTLEWOOD_PALEY:
            raise InputFormatError("gamma: only valid for the littlewood-paley family")

    gabor_rays = GABOR_RAY_EXTENDED
    if "gabor_rays" in obj:
        gabor_rays = _require(obj, "gabor_rays", str)
        if gabor_rays not in GABOR_RAY_OPTIONS:
            raise InputFormatError(
                f"gabor_rays: must be one of {list(GABOR_RAY_OPTIONS)}, got {gabor_rays!r}"
            )
        if family != GABOR:
            raise InputFormatError("gabor_rays: only valid for the gabor family")

    epsilon = DEFAULT_EPSILON
    if "epsilon" in obj:
        epsilon = _require(obj, "epsilon", float)
        if epsilon <= 0.0:
            raise InputFormatError("epsilon: must be > 0")

    allow_singular = _require(obj, "allow_singular", bool) if "allow_singular" in obj else False
    real_output = _require(obj, "real_output", bool) if "real_output" in obj else False

    return JobConfig(
        mode=mode,
        boundaries=boundaries,
        family=family,
        n_samples=n_samples,
        gamma=gamma,
        gabor_rays=gabor_rays,
        epsilon=epsilon,
        allow_singular=allow_singular,
        real_output=real_output,
    )


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_config(path, n_samples_override: int = None) -> JobConfig:
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(obj, n_samples_override=n_samples_override)


def convert_hz(config: JobConfig, sample_rate: float) -> JobConfig:
    """Reinterpret finite boundaries as Hz and convert to radians."""
    rate = float(sample_rate)
    if not 0.0 < rate < math.inf:
        raise InputFormatError(f"sample rate must be finite and > 0, got {rate}")
    scale = 2.0 * math.pi / rate
    converted = tuple(v * scale if math.isfinite(v) else v for v in config.boundaries)
    return replace(config, boundaries=converted)


def realize_bank(config: JobConfig) -> FilterBank:
    """Build the partition, parameters and grid of a config and sample it.

    A missing gamma for the Littlewood-Paley family defaults to
    0.9 * max_gamma(partition): the admissibility bound is a strict supremum,
    so the default leaves headroom below it.
    """
    partition = build_partition(config.mode, config.boundaries)
    if config.family == LITTLEWOOD_PALEY:
        gamma = config.gamma
        if gamma is None:
            gamma = DEFAULT_GAMMA_FRACTION * partition.max_gamma()
        params = FamilyParams(LITTLEWOOD_PALEY, gamma=gamma)
    elif config.family == GABOR:
        params = FamilyParams(GABOR, gabor_rays=config.gabor_rays)
    else:
        params = FamilyParams(config.family)
    return sample_bank(partition, params, FrequencyGrid(config.n_samples))


# -- signal files ---------------------------------------------------------------


def read_signal_csv(path, n_expected: int = None) -> np.ndarray:
    """Read a signal CSV with header 're' or 're,im'."""
    lines = _read_text(path).splitlines()
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


def write_csv(path, header, columns) -> None:
    """One header line, then one line per row of the float columns."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_signal_csv(path, values, real_only: bool = False) -> None:
    x = np.asarray(values, dtype=complex)
    if real_only:
        write_csv(path, ["re"], [x.real])
    else:
        write_csv(path, ["re", "im"], [x.real, x.imag])


def read_signal_raw(path, n_expected: int = None) -> np.ndarray:
    """Read little-endian float64 samples; 2N values mean interleaved re,im."""
    blob = Path(path).read_bytes()
    if not blob:
        raise InputFormatError(f"{path}: empty signal file")
    if len(blob) % 8:
        raise InputFormatError(f"{path}: size {len(blob)} is not a multiple of 8")
    flat = np.frombuffer(blob, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise InputFormatError(f"{path}: float64 value {bad[0]} is not finite")
    if n_expected is None:
        return flat.astype(complex)
    if flat.size == n_expected:
        return flat.astype(complex)
    if flat.size == 2 * n_expected:
        return flat[0::2] + 1j * flat[1::2]
    raise LengthMismatch(
        f"{path}: {flat.size} float64 values fit neither {n_expected} real "
        f"nor {n_expected} complex samples"
    )


# -- coefficient files ------------------------------------------------------------


def write_coefficients(path, rows, support_indices) -> None:
    """Binary coefficient layout: magic 'EWTC', u32 version=1, u32 N, u32
    support count, i32 support indices, then row-major complex128 values as
    little-endian (re, im) float64 pairs."""
    data = np.ascontiguousarray(np.asarray(rows, dtype=complex), dtype="<c16")
    if data.ndim != 2:
        raise InputFormatError("coefficient rows must form a 2-D array")
    count, n = data.shape
    if len(support_indices) != count:
        raise InputFormatError("one support index per coefficient row required")
    header = struct.pack("<4sIII", COEF_MAGIC, COEF_VERSION, n, count)
    idx = np.asarray(support_indices, dtype="<i4").tobytes()
    Path(path).write_bytes(header + idx + data.tobytes())


def read_coefficients(path):
    """Inverse of :func:`write_coefficients`; returns (rows, support_indices)."""
    blob = Path(path).read_bytes()
    if len(blob) < 16:
        raise InputFormatError(f"{path}: truncated coefficient file")
    magic, version, n, count = struct.unpack("<4sIII", blob[:16])
    if magic != COEF_MAGIC:
        raise InputFormatError(f"{path}: bad magic {magic!r}")
    if version != COEF_VERSION:
        raise InputFormatError(f"{path}: unsupported version {version}")
    expected = 16 + 4 * count + 16 * n * count
    if len(blob) != expected:
        raise InputFormatError(f"{path}: size {len(blob)} does not match layout ({expected})")
    indices = tuple(int(v) for v in np.frombuffer(blob, dtype="<i4", count=count, offset=16))
    rows = np.frombuffer(
        blob, dtype="<c16", count=n * count, offset=16 + 4 * count
    ).reshape(count, n).astype(complex)
    bad = np.flatnonzero(~np.isfinite(rows))
    if bad.size:
        row, sample = divmod(int(bad[0]), n)
        raise InputFormatError(f"{path}: row {row}, sample {sample} is not finite")
    return rows, indices


# -- boundary proposal --------------------------------------------------------------


def propose_boundaries(signal, count: int) -> dict:
    """Toy spectrum segmentation standing in for a real boundary detector.

    Finds the ``count`` largest local maxima of |DFT| and places one boundary
    at the magnitude minimum between consecutive maxima (for real signals:
    on the positive half line, anchored at the zero frequency, then mirrored
    and closed with rays). Returns a config-compatible mapping.
    """
    if count < 1:
        raise InputFormatError("peak count must be >= 1")
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size < 4:
        raise InputFormatError("boundary proposal needs at least 4 samples")
    mag = np.abs(np.fft.fft(x))
    xi = FrequencyGrid(x.size).xi
    if np.any(x.imag):
        cuts = _cut_bins(mag, np.argsort(xi), count, anchor_first=False)
        bounds = [-math.inf] + [float(xi[b]) for b in cuts] + [math.inf]
    else:
        half = (x.size - 1) // 2  # last strictly positive bin below Nyquist
        cuts = _cut_bins(mag, np.arange(half + 2), count, anchor_first=True)
        positive = [float(xi[b]) for b in cuts]
        bounds = [-math.inf] + [-v for v in reversed(positive)] + positive + [math.inf]
    return {"mode": VSTAR_MODE, "boundaries": bounds}


def _cut_bins(mag, order, count, anchor_first):
    """Bins of the magnitude minima between the top ``count`` local maxima.

    ``order`` lists candidate bins in ascending frequency; with
    ``anchor_first`` the first entry acts as a fixed anchor (the zero
    frequency) rather than a peak candidate, so ``count`` peaks yield
    ``count`` cuts instead of count - 1.
    """
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
