"""Parsing and summarizing of CAN speed/pedal CSV logs.

The wire format is a three-column CSV ``time_s,signal,value`` where signal
is ``speed`` (km/h) or ``pedal`` (throttle position, percent). Rows may be
interleaved arbitrarily; parsing sorts each signal by timestamp with a
stable sort so equal-time rows keep file order.
"""

from __future__ import annotations

import functools
import gzip
import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import NoReturn

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyLog,
    MalformedRow,
    NonMonotonicTime,
    UnknownSignal,
)

HEADER = "time_s,signal,value"
SIGNALS = ("speed", "pedal")


@dataclass(frozen=True)
class _Series:
    """Timestamp-ordered samples of one signal, stored as numpy arrays."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")

    @property
    def count(self) -> int:
        return int(self.times.size)

    def __eq__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.values, other.values
        )


class SpeedSeries(_Series):
    """Vehicle speed in km/h; values are never negative."""


class PedalSeries(_Series):
    """Throttle pedal position in percent; values are never negative."""

    @property
    def idle_value(self) -> float:
        """The resting pedal level, taken as the series minimum."""
        return float(self.values.min())


@dataclass(frozen=True)
class CanLog:
    speed: SpeedSeries
    pedal: PedalSeries

    @property
    def duration_s(self) -> float:
        t0 = min(self.speed.times[0], self.pedal.times[0])
        t1 = max(self.speed.times[-1], self.pedal.times[-1])
        return float(t1 - t0)


def _build_series(cls, times: np.ndarray, values: np.ndarray, name: str):
    """Order one signal's rows, given in file order, and drop repeated times."""
    if not times.size:
        raise EmptyLog(f"no {name} rows in log")
    # a stable sort over rows in file order breaks timestamp ties by file position
    order = np.argsort(times, kind="stable")
    times = times[order]
    values = values[order]
    dup = np.nonzero(np.diff(times) == 0.0)[0]
    if dup.size:
        warnings.warn(
            f"{dup.size} duplicate {name} timestamp(s); keeping first occurrence",
            DuplicateTimestamp,
            stacklevel=3,
        )
        keep = np.ones(times.size, dtype=bool)
        keep[dup + 1] = False
        times = times[keep]
        values = values[keep]
    return cls(times=times, values=values)


def _floats(fields: list[str]) -> np.ndarray:
    """float() of every field, accepting whatever float(field.strip()) does.

    float() ignores the same padding as str.strip() except U+001F, so a
    column that float() refuses is stripped and converted once more.
    """
    try:
        return np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        return np.fromiter(map(float, map(str.strip, fields)), np.float64, len(fields))


def _raise_first_fault(lines: list[str]) -> NoReturn:
    """Raise the error for the first faulty data line of a rejected log.

    Runs only after bulk validation failed, so it builds no series; it
    applies the same checks as the bulk path, line by line in file order.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRow(f"line {lineno}: expected 3 fields, got {len(parts)}")
        t_str, signal, v_str = (p.strip() for p in parts)
        try:
            t = float(t_str)
            v = float(v_str)
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise MalformedRow(f"line {lineno}: non-finite field")
        if signal not in SIGNALS:
            raise UnknownSignal(f"line {lineno}: unknown signal {signal!r}")
        if t < 0.0:
            raise NonMonotonicTime(f"line {lineno}: negative timestamp {t}")
        if v < 0.0:
            raise MalformedRow(f"line {lineno}: negative {signal} value {v}")
    raise AssertionError("bulk validation rejected a log with no faulty line")


def parse_can_csv(raw) -> CanLog:
    """Parse CSV text, bytes, or a file object into a CanLog.

    Blank lines are skipped and fields may carry surrounding whitespace.
    The columns are converted whole; when any check fails, the error
    names the first faulty line.

    Args:
        raw: str, bytes, or a readable file object holding the CSV.

    Returns:
        CanLog with both series sorted by time and deduplicated.

    Raises:
        EmptyLog: header only, or one signal has no rows at all.
        MalformedRow: wrong column count, or a non-numeric, non-finite
            or negative value field.
        UnknownSignal: a signal other than speed/pedal.
        NonMonotonicTime: a negative timestamp.
    """
    if isinstance(raw, bytes):
        text = raw.decode("utf-8")
    elif isinstance(raw, str):
        text = raw
    else:
        text = raw.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")

    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise MalformedRow(f"first line must be the header {HEADER!r}")

    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise EmptyLog("log has a header but no data rows")
    # every row must split into exactly 3 fields, or the columns misalign
    if set(map(str.count, rows, repeat(","))) != {2}:
        _raise_first_fault(lines)
    fields = ",".join(rows).split(",")
    signals = fields[1::3]
    try:
        times = _floats(fields[0::3])
        values = _floats(fields[2::3])
    except ValueError:
        _raise_first_fault(lines)
    tokens = {tok: tok.strip() for tok in set(signals)}
    if not (
        set(tokens.values()) <= set(SIGNALS)
        and np.isfinite(times).all()
        and np.isfinite(values).all()
        and (times >= 0.0).all()
        and (values >= 0.0).all()
    ):
        _raise_first_fault(lines)

    is_speed_token = {tok: sig == "speed" for tok, sig in tokens.items()}
    is_speed = np.fromiter(map(is_speed_token.__getitem__, signals), bool, len(signals))
    speed = _build_series(SpeedSeries, times[is_speed], values[is_speed], "speed")
    pedal = _build_series(PedalSeries, times[~is_speed], values[~is_speed], "pedal")
    return CanLog(speed=speed, pedal=pedal)


def read_can_csv(path) -> CanLog:
    """Load a log from a file path; names ending in .gz are gunzipped.

    Raises MalformedRow when the file is not UTF-8 text, and whatever
    parse_can_csv raises.
    """
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"log file {path} is not UTF-8 text: {exc}") from None
    return parse_can_csv(text)


def _reprs(column: np.ndarray) -> np.ndarray:
    """repr() of every float in column, formatting each distinct one once.

    Distinct means distinct bits, so -0.0 and 0.0 keep their own spellings.
    """
    uniq, inverse = np.unique(column.view(np.int64), return_inverse=True)
    # the repr of a list of floats is the floats' reprs joined by ", "
    text = repr(uniq.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[inverse]


def to_csv(log: CanLog) -> str:
    """Serialize a CanLog back to CSV text.

    Rows are merged in (time, signal) order and floats use repr so that
    parse_can_csv(to_csv(log)) == log holds exactly.
    """
    s, p = log.speed, log.pedal
    times = np.concatenate((s.times, p.times), dtype=np.float64)
    values = np.concatenate((s.values, p.values), dtype=np.float64)
    is_pedal = np.repeat((False, True), (s.count, p.count))
    # stable: rows equal in time and signal keep series order
    order = np.lexsort((is_pedal, times))
    cells = np.empty((order.size, 4), dtype=object)
    cells[:, 0] = _reprs(times[order])
    separators = np.array([f",{sig}," for sig in SIGNALS], dtype=object)
    cells[:, 1] = separators[is_pedal[order].astype(np.intp)]
    cells[:, 2] = _reprs(values[order])
    cells[:, 3] = "\n"
    return HEADER + "\n" + "".join(cells.ravel().tolist())


def write_can_csv(log: CanLog, path) -> None:
    """Write to_csv(log) as UTF-8; names ending in .gz are gzipped.

    The gzip header's timestamp is zero, so a log always writes the same bytes.
    """
    path = str(path)
    opener = functools.partial(gzip.GzipFile, mtime=0) if path.endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(to_csv(log).encode("utf-8"))
