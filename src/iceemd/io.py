"""Signal and decomposition file formats, plus JSON run reports.

Signal CSV: `# key=value` comment lines carrying the sampling metadata,
then one amplitude per row (a two-column `t,amplitude` form is accepted
on read; t is checked for uniform spacing and dropped). Decomposition
CSV: the same comments plus `noise_floor` and `tool_version`, the
version of this package that wrote it, then a named column row
`t,imf1..imfK,residue`. The sample times (n - 1) / rate must be finite.
Floats are printed as `%.17g` by numpy's savetxt, so write-read is
lossless; files are UTF-8 with `\n` line endings.
"""
from __future__ import annotations

import json

import numpy as np

from . import __version__
from .errors import SignalFormatError
from .types import Decomposition, Signal

FORMAT_VERSION = "1"

_RATE_TOLERANCE = 1e-3  # relative mismatch allowed between rate and interval


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _header_number(
    path: str, meta: dict[str, tuple[int, str]], key: str, allow_zero: bool = False
) -> float | None:
    """The number a `# key=value` line states, None without such a line.

    It must be finite and positive (or zero, where allow_zero is set);
    anything else is rejected with the line number.
    """
    if key not in meta:
        return None
    lineno, value = meta[key]
    try:
        number = float(value)
    except ValueError:
        number = float("nan")
    if not (np.isfinite(number) and (number > 0 or (allow_zero and number == 0))):
        kind = "nonnegative" if allow_zero else "positive"
        raise SignalFormatError(
            f"{path}: {key} must be a {kind} number, got {value!r}", line=lineno
        )
    return number


def _undecodable_line(path: str) -> int | None:
    """The line of a file's first byte that is not UTF-8, lines counted
    as text mode counts them: a line ends at \\n, \\r\\n or \\r."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].replace(b"\r\n", b"\n")
        return head.count(b"\n") + head.count(b"\r") + 1
    return None  # the file changed since it failed to decode


def _read_file(path: str) -> tuple[dict[str, tuple[int, str]], float, list[tuple[int, str]]]:
    """Split a file into its leading `# key=value` comments and its body.

    Returns the metadata (key -> (line number, value)), the sample rate it
    states and the nonblank body lines as (line number, line). The rate
    comes from sample_rate_hz or sample_interval_s; each must be finite and
    positive with a finite reciprocal, and the two must agree when both
    are given. A file that is not UTF-8 text is a SignalFormatError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i + 1, ln) for i, ln in enumerate(fh) if ln.strip() != ""]
    except UnicodeDecodeError as exc:
        raise SignalFormatError(
            f"{path}: not UTF-8 text ({exc.reason})", line=_undecodable_line(path)
        ) from None
    meta: dict[str, tuple[int, str]] = {}
    body_start = 0
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped.startswith("#"):
            break
        body_start += 1
        key, eq, value = stripped.lstrip("#").partition("=")
        if eq:
            meta[key.strip()] = (lineno, value.strip())

    rate_hz = _header_number(path, meta, "sample_rate_hz")
    interval_s = _header_number(path, meta, "sample_interval_s")
    if rate_hz is None and interval_s is None:
        raise SignalFormatError(
            f"{path}: missing sampling metadata "
            "(need a '# sample_rate_hz=...' or '# sample_interval_s=...' line)"
        )
    for key, number in (("sample_rate_hz", rate_hz), ("sample_interval_s", interval_s)):
        if number is not None and np.isinf(1.0 / number):
            raise SignalFormatError(
                f"{path}: {key}={meta[key][1]} is too small, its reciprocal overflows",
                line=meta[key][0],
            )
    if rate_hz is None:
        rate_hz = 1.0 / interval_s
    elif interval_s is not None and abs(1.0 / rate_hz - interval_s) > _RATE_TOLERANCE * interval_s:
        raise SignalFormatError(
            f"{path}: sample_rate_hz={rate_hz} and sample_interval_s="
            f"{interval_s} contradict each other; state one of them",
            line=meta["sample_interval_s"][0],
        )
    return meta, rate_hz, lines[body_start:]


def _read_rows(path: str, rows: list[tuple[int, str]], n_columns: int) -> np.ndarray:
    """Rows of n_columns comma-separated finite numbers, as an (rows, n_columns) array."""
    values: list[float] = []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != n_columns:
            raise SignalFormatError(
                f"{path}: expected {n_columns} columns, got {len(fields)}", line=lineno
            )
        try:
            values.extend([float(f) for f in fields])
        except ValueError:
            raise SignalFormatError(
                f"{path}: non-numeric value {line.strip()!r}", line=lineno
            ) from None
    if not rows:
        raise SignalFormatError(f"{path}: no data rows")
    data = np.array(values).reshape(len(rows), n_columns)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise SignalFormatError(
            f"{path}: non-finite value", line=rows[int(np.argmin(finite))][0]
        )
    return data


def read_signal_csv(path) -> Signal:
    """Parse a signal file; see the module docstring for the format."""
    path = str(path)
    meta, rate_hz, body = _read_file(path)
    n_columns = body[0][1].count(",") + 1 if body else 1
    if n_columns not in (1, 2):
        raise SignalFormatError(
            f"{path}: expected 1 or 2 columns, got {n_columns}", line=body[0][0]
        )
    data = _read_rows(path, body, n_columns)
    amplitudes = data[:, -1].copy()

    n_samples = _header_number(path, meta, "n_samples")
    if n_samples is not None and n_samples != amplitudes.size:
        raise SignalFormatError(
            f"{path}: header says n_samples={_fmt(n_samples)}, file has {amplitudes.size}",
            line=meta["n_samples"][0],
        )
    if n_columns == 2:
        dt = np.diff(data[:, 0])
        interval = 1.0 / rate_hz
        if np.any(np.abs(dt - interval) > _RATE_TOLERANCE * interval):
            raise SignalFormatError(
                f"{path}: time column is not uniform at the stated interval {interval}"
            )
    return Signal(amplitudes, rate_hz)


def write_signal_csv(signal: Signal, path, label: str = "") -> None:
    """Write a signal in the format read_signal_csv accepts."""
    with open(str(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# sample_rate_hz={_fmt(signal.sample_rate_hz)}\n")
        fh.write(f"# n_samples={len(signal)}\n")
        if label:
            fh.write(f"# label={' '.join(label.split())}\n")
        fh.write(f"# format_version={FORMAT_VERSION}\n")
        np.savetxt(fh, signal.samples, fmt="%.17g")


def write_decomposition_csv(dec: Decomposition, path, sample_rate_hz: float) -> None:
    """Write columns t, imf1..imfK, residue with lossless float formatting;
    the header carries the decomposition's noise floor and the version of
    this package as tool_version."""
    n = dec.residue.size
    columns = [np.arange(n) / sample_rate_hz, *dec.imfs, dec.residue]
    names = ["t"] + [f"imf{k + 1}" for k in range(dec.n_imfs)] + ["residue"]
    with open(str(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# sample_rate_hz={_fmt(sample_rate_hz)}\n")
        fh.write(f"# noise_floor={_fmt(dec.noise_floor)}\n")
        fh.write(f"# tool_version={__version__}\n")
        fh.write(f"# format_version={FORMAT_VERSION}\n")
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")


def read_decomposition_csv(path) -> tuple[Decomposition, float]:
    """Read a decomposition file back; returns (decomposition, sample_rate_hz).

    A file without a `# noise_floor=` line reads with a floor of 0.
    """
    path = str(path)
    meta, rate, body = _read_file(path)
    noise_floor = _header_number(path, meta, "noise_floor", allow_zero=True) or 0.0
    if not body:
        raise SignalFormatError(f"{path}: missing column header row")
    header_lineno, header_line = body[0]
    names = [c.strip() for c in header_line.strip().split(",")]
    expected = ["t"] + [f"imf{i}" for i in range(1, len(names) - 1)] + ["residue"]
    if names != expected:
        raise SignalFormatError(
            f"{path}: expected columns {expected}, got {names}", line=header_lineno
        )
    data = _read_rows(path, body[1:], len(names))
    imfs = [data[:, k].copy() for k in range(1, len(names) - 1)]
    residue = data[:, -1].copy()
    return Decomposition(imfs=imfs, residue=residue, noise_floor=noise_floor), rate


def write_report(report: dict, path) -> None:
    """Serialize a run report with stable key order and lossless floats."""
    with open(str(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def read_report(path) -> dict:
    with open(str(path), "r", encoding="utf-8") as fh:
        return json.load(fh)
