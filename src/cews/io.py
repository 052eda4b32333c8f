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
from .frame_analysis import DEFAULT_EPSILON
from .partition import MODES, VSTAR_MODE, build_partition
from .spectral import FrequencyGrid

COEF_MAGIC = b"EWTC"
COEF_VERSION = 1
MAX_N_SAMPLES = 2**32 - 1  # the EWTC header stores N as u32
DEFAULT_GAMMA_FRACTION = 0.9  # CLI default gamma = fraction * max_gamma
_CSV_BLOCK_ROWS = 8192  # rows formatted per write, bounding the text held at once


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


def _require(obj, key, kind):
    if key not in obj:
        raise InputFormatError(f"{key}: required field is missing")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputFormatError(f"{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise InputFormatError(f"{key}: expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputFormatError(f"{key}: expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise InputFormatError(f"{key}: expected true/false, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise InputFormatError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _one_of(key, value, options):
    if value not in options:
        raise InputFormatError(f"{key}: must be one of {list(options)}, got {value!r}")
    return value


def parse_config(obj, n_samples_override: int = None) -> JobConfig:
    """Decode a config mapping with field-precise errors."""
    if not isinstance(obj, dict):
        raise InputFormatError("config root must be a JSON object")
    for key in obj:
        if key not in _CONFIG_FIELDS:
            raise InputFormatError(f"{key}: unknown config field")

    mode = _one_of("mode", _require(obj, "mode", str), MODES)

    raw = _require(obj, "boundaries", list)
    boundaries = tuple(
        decode_boundary(v, f"boundaries[{i}]") for i, v in enumerate(raw)
    )
    if len(boundaries) < 2:
        raise InputFormatError("boundaries: at least 2 values required")

    family = _one_of("family", _require(obj, "family", str), FAMILIES)

    if n_samples_override is not None:
        n_samples = int(n_samples_override)
    else:
        n_samples = _require(obj, "n_samples", int)
    if not 1 <= n_samples <= MAX_N_SAMPLES:
        raise InputFormatError(f"n_samples: must lie in [1, {MAX_N_SAMPLES}]")

    # absent optional fields take the JobConfig defaults
    optional = {}
    if "gamma" in obj:
        optional["gamma"] = _require(obj, "gamma", float)
        if family != LITTLEWOOD_PALEY:
            raise InputFormatError("gamma: only valid for the littlewood-paley family")
    if "gabor_rays" in obj:
        rays = _require(obj, "gabor_rays", str)
        optional["gabor_rays"] = _one_of("gabor_rays", rays, GABOR_RAY_OPTIONS)
        if family != GABOR:
            raise InputFormatError("gabor_rays: only valid for the gabor family")
    if "epsilon" in obj:
        optional["epsilon"] = _require(obj, "epsilon", float)
        if optional["epsilon"] <= 0.0:
            raise InputFormatError("epsilon: must be > 0")
    for key in ("allow_singular", "real_output"):
        if key in obj:
            optional[key] = _require(obj, key, bool)
    return JobConfig(mode, boundaries, family, n_samples, **optional)


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
    """Reinterpret finite boundaries as Hz and convert them to finite
    radians, nonzero where the Hz value is: a boundary that overflows to
    +-inf or underflows to +-0.0 names its index."""
    rate = float(sample_rate)
    if not 0.0 < rate < math.inf:
        raise InputFormatError(f"sample rate must be finite and > 0, got {rate}")
    scale = 2.0 * math.pi / rate
    converted = tuple(v * scale if math.isfinite(v) else v for v in config.boundaries)
    for i, (v, w) in enumerate(zip(config.boundaries, converted)):
        if math.isfinite(v) != math.isfinite(w) or (v != 0.0 and w == 0.0):
            raise InputFormatError(f"boundaries[{i}]: {v} Hz at sample rate {rate} is {w} rad")
    return replace(config, boundaries=converted)


def realize_bank(config: JobConfig) -> FilterBank:
    """Build the partition, parameters and grid of a config and sample it.

    A missing gamma for the Littlewood-Paley family defaults to
    0.9 * max_gamma(partition): the admissibility bound is a strict supremum,
    so the default leaves headroom below it.
    """
    partition = build_partition(config.mode, config.boundaries)
    knobs = {}
    if config.family == LITTLEWOOD_PALEY:
        knobs["gamma"] = config.gamma
        if config.gamma is None:
            knobs["gamma"] = DEFAULT_GAMMA_FRACTION * partition.max_gamma()
    elif config.family == GABOR:
        knobs["gabor_rays"] = config.gabor_rays
    params = FamilyParams(config.family, **knobs)
    return sample_bank(partition, params, FrequencyGrid(config.n_samples))


# -- signal files ---------------------------------------------------------------


def read_signal_csv(path, n_expected: int = None) -> np.ndarray:
    """Read a signal CSV with header 're' or 're,im', each cell through
    ``str.strip`` and ``float`` (imaginary parts +0.0 for 're'). Lines end only
    at a line feed (``str.splitlines`` would also end one at a form feed or NEL)."""
    lines = _read_text(path).split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise InputFormatError(f"{path}: empty signal file")
    header = [c.strip() for c in lines[0].split(",")]
    if header not in (["re"], ["re", "im"]):
        raise InputFormatError(f"{path}: header must be 're' or 're,im', got {lines[0]!r}")
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise InputFormatError(f"{path}: line {i}: expected {len(header)} columns")
        try:
            samples.append(complex(*map(float, map(str.strip, cells))))
        except ValueError as exc:
            raise InputFormatError(f"{path}: line {i}: {exc}") from exc
    del lines  # the line strings go before the array is built
    values = np.array(samples, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputFormatError(f"{path}: line {bad[0] + 2}: sample is not finite")
    if n_expected is not None and values.size != n_expected:
        raise LengthMismatch(f"{path}: {values.size} samples, expected {n_expected}")
    return values


def write_csv(path, header, columns) -> None:
    """One header line, then one line per row of the float columns, formatted
    and written ``_CSV_BLOCK_ROWS`` rows at a time."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            cells = (map(repr, c[start : start + _CSV_BLOCK_ROWS].tolist()) for c in columns)
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
    if n_expected is None or flat.size == n_expected:
        return flat.astype(complex)
    if flat.size == 2 * n_expected:
        return flat.view("<c16").astype(complex)
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
    with open(path, "wb") as out:
        out.write(struct.pack("<4sIII", COEF_MAGIC, COEF_VERSION, n, count))
        out.write(np.asarray(support_indices, dtype="<i4").tobytes())
        out.write(data)  # the array's own buffer, not a bytes copy of it


def read_coefficients(path):
    """Inverse of :func:`write_coefficients`; returns (rows, support_indices).
    The rows are a read-only view of the file's bytes on a little-endian host."""
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
    ).reshape(count, n).astype(complex, copy=False)
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
    and closed with rays). Returns a mode and boundaries that need not form a
    partition: for a complex signal, ``count`` peaks give ``count - 1`` cuts.
    """
    if count < 1:
        raise InputFormatError("peak count must be >= 1")
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size < 4:
        raise InputFormatError("boundary proposal needs at least 4 samples")
    mag = np.abs(np.fft.fft(x))
    grid = FrequencyGrid(x.size)
    xi = grid.xi
    if np.any(x.imag):
        cuts = _cut_bins(mag, grid.order, count, anchor_first=False)
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
    inner = line[1:-1]
    peaks = 1 + np.flatnonzero((line[:-2] < inner) & (inner > line[2:]))
    if peaks.size < count:
        raise FewerPeaksThanRequested(
            f"found {peaks.size} spectral peaks, need {count}"
        )
    # the count largest maxima, a tie at the cut kept at its higher positions
    top = np.sort(peaks[np.argsort(line[peaks], kind="stable")[-count:]])
    anchors = ([0] if anchor_first else []) + top.tolist()
    cuts = []
    for a, b in zip(anchors, anchors[1:]):
        if b - a < 2:
            raise FewerPeaksThanRequested(
                "adjacent peaks leave no bin for a boundary between them"
            )
        segment = line[a + 1 : b]
        cuts.append(order[a + 1 + int(np.argmin(segment))])
    return cuts
