"""CAN log parsing, serialization, and summary stats."""
from __future__ import annotations

import gzip
import re
import time
import warnings

import numpy as np
import pytest

from canmatch import canlog
from canmatch.canlog import (
    HEADER,
    CanLog,
    PedalSeries,
    SpeedSeries,
    parse_can_csv,
    read_can_csv,
    to_csv,
    write_can_csv,
)
from canmatch.errors import (
    CanMatchError,
    DuplicateTimestamp,
    EmptyLog,
    MalformedRow,
    NoCandidates,
    NonMonotonicTime,
    UnknownSignal,
)
from canmatch.trajgraph import build_trajectory

from helpers import reference_parse_can_csv, reference_to_csv


def _log_text(rows: list[str]) -> str:
    return "\n".join([HEADER] + rows) + "\n"


def test_parse_three_row_example():
    log = parse_can_csv(_log_text(["0.0,speed,0", "0.1,speed,5.2", "0.0,pedal,14"]))
    assert log.speed.times.size == 2
    assert log.pedal.times.size == 1
    assert log.pedal.values.tolist() == [14.0]


def test_parse_header_only_is_empty():
    with pytest.raises(EmptyLog):
        parse_can_csv(HEADER + "\n")


def test_parse_requires_header():
    with pytest.raises(MalformedRow):
        parse_can_csv("0.0,speed,0\n")


def test_parse_negative_time():
    with pytest.raises(NonMonotonicTime):
        parse_can_csv(_log_text(["-1.0,speed,0"]))


def test_parse_unknown_signal():
    with pytest.raises(UnknownSignal):
        parse_can_csv(_log_text(["0.0,throttle,3"]))


def test_parse_wrong_field_count():
    with pytest.raises(MalformedRow):
        parse_can_csv(_log_text(["0.0,speed"]))


def test_parse_wrong_field_count_that_realigns_across_rows():
    # a short row and a long row together hold whole triples
    rows = ["0.0,speed,1", "0.5", "speed,2,0.0,pedal,3"]
    with pytest.raises(MalformedRow, match="line 3: expected 3 fields, got 1"):
        parse_can_csv(_log_text(rows))


def test_parse_non_numeric_field():
    with pytest.raises(MalformedRow):
        parse_can_csv(_log_text(["abc,speed,0"]))


def test_parse_negative_value():
    with pytest.raises(MalformedRow):
        parse_can_csv(_log_text(["0.0,speed,-3"]))


def test_parse_missing_signal_entirely():
    with pytest.raises(EmptyLog):
        parse_can_csv(_log_text(["0.0,speed,1", "0.1,speed,2"]))


@pytest.mark.parametrize(
    "row", ["nan,speed,1", "inf,speed,1", "0.5,pedal,-inf", "0.5,speed,NaN", "0.5,pedal,Infinity"]
)
def test_parse_rejects_non_finite_field_naming_the_line(row):
    with pytest.raises(MalformedRow, match="line 3: non-finite"):
        parse_can_csv(_log_text(["0.0,speed,1", row, "0.0,pedal,10"]))


def test_parse_accepts_bytes_and_file_objects(tmp_path):
    text = _log_text(["0.0,speed,1", "0.0,pedal,10"])
    from_bytes = parse_can_csv(text.encode())
    p = tmp_path / "log.csv"
    p.write_text(text)
    with open(p) as fh:
        from_file = parse_can_csv(fh)
    assert from_bytes == from_file


@pytest.mark.parametrize("name, opener", [("log.csv", open), ("log.csv.gz", gzip.open)])
def test_read_non_utf8_file(tmp_path, name, opener):
    p = tmp_path / name
    with opener(p, "wb") as fh:
        fh.write(_log_text(["0.0,speed,1", "0.0,pedal,\xff"]).encode("latin-1"))
    with pytest.raises(MalformedRow, match="is not UTF-8 text"):
        read_can_csv(p)


@pytest.mark.parametrize("damage", ["truncate", "corrupt", "header"])
def test_read_truncated_or_corrupt_gz_file(tmp_path, damage):
    rows = [f"{i / 10!r},speed,{i}" for i in range(2000)] + ["0.0,pedal,1"]
    log = parse_can_csv(_log_text(rows))
    whole = tmp_path / "whole.csv.gz"
    write_can_csv(log, whole)
    data = bytearray(whole.read_bytes())
    if damage == "truncate":
        del data[3000:]
    elif damage == "corrupt":
        data[200] ^= 0xFF
    else:
        data[0] ^= 0xFF  # the gzip magic number
    bad = tmp_path / "bad.csv.gz"
    bad.write_bytes(data)
    with pytest.raises(MalformedRow, match=f"{re.escape(str(bad))} is a truncated or corrupt"):
        read_can_csv(bad)


def test_duplicate_timestamp_keeps_first():
    with pytest.warns(DuplicateTimestamp):
        log = parse_can_csv(
            _log_text(["0.0,speed,1", "0.0,speed,9", "0.0,pedal,10", "0.1,speed,2"])
        )
    assert log.speed.values[0] == 1.0
    assert log.speed.times.size == 2


def test_round_trip_random_logs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        times = np.sort(rng.uniform(0, 500, size=n))
        times = np.unique(times)
        log = CanLog(
            speed=SpeedSeries(times=times, values=rng.uniform(0, 120, times.size)),
            pedal=PedalSeries(
                times=times.copy(), values=rng.uniform(5, 80, times.size)
            ),
        )
        assert parse_can_csv(to_csv(log)) == log


def test_parse_is_order_insensitive():
    rows = ["0.2,speed,3", "0.0,speed,1", "0.1,pedal,20", "0.0,pedal,10", "0.1,speed,2"]
    rng = np.random.default_rng(7)
    base = parse_can_csv(_log_text(rows))
    for _ in range(10):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert parse_can_csv(_log_text(shuffled)) == base


def test_idle_value_invariant_under_higher_samples():
    # a pedal sample above cruise leaves the resting level, and so the turn
    # events, as they were
    rows = [f"{t}.0,speed,36" for t in range(100)]
    rows += [f"{t}.0,pedal,{14 if t in (20, 50, 51, 85) else 30}" for t in range(100)]
    log = parse_can_csv(_log_text(rows))
    more = parse_can_csv(_log_text(rows + ["99.5,pedal,99"]))
    with pytest.warns(NoCandidates, match="no stop candidates"):
        turns = build_trajectory(log, min_edge_m=1.0).to_dict()
    with pytest.warns(NoCandidates, match="no stop candidates"):
        assert build_trajectory(more, min_edge_m=1.0).to_dict() == turns
    assert [n["t"] for n in turns["nodes"]] == [20.0, 51.0, 85.0]


def test_file_round_trip_plain_and_gz(tmp_path):
    log = parse_can_csv(_log_text(["0.0,speed,1", "1.0,speed,2", "0.0,pedal,10"]))
    plain = tmp_path / "a.csv"
    gzed = tmp_path / "a.csv.gz"
    write_can_csv(log, plain)
    write_can_csv(log, gzed)
    assert read_can_csv(plain) == log
    assert read_can_csv(gzed) == log
    with gzip.open(gzed, "rt") as fh:
        assert fh.readline().strip() == HEADER


def test_to_csv_matches_per_row_reference():
    # -0.0 and 0.0 compare equal but print differently; repeated values and
    # times recur across rows and across the two signals
    pool = np.array([0.0, -0.0, 0.1, 0.30000000000000004, 1 / 3, 36.0, 5e-324, 1e22, 14.0])
    rng = np.random.default_rng(8)
    for trial in range(60):
        n_s, n_p = (int(x) for x in rng.integers(1, 40, size=2))

        def column(n):
            fresh = rng.uniform(0, 120, size=n)
            return np.where(rng.random(n) < 0.6, rng.choice(pool, size=n), fresh)

        log = CanLog(
            speed=SpeedSeries(times=column(n_s), values=column(n_s)),
            pedal=PedalSeries(times=column(n_p), values=column(n_p)),
        )
        assert to_csv(log) == reference_to_csv(log)
    fixed = CanLog(
        speed=SpeedSeries(times=np.array([0.0, -0.0, 0.1]), values=np.array([-0.0, 0.0, -0.0])),
        pedal=PedalSeries(times=np.array([-0.0, 0.1]), values=np.array([0.0, 0.0])),
    )
    assert to_csv(fixed) == (
        HEADER + "\n0.0,speed,-0.0\n-0.0,speed,0.0\n-0.0,pedal,0.0\n"
        "0.1,speed,-0.0\n0.1,pedal,0.0\n"
    )
    assert to_csv(fixed) == reference_to_csv(fixed)
    empty = CanLog(speed=SpeedSeries(np.empty(0), np.empty(0)), pedal=fixed.pedal)
    assert to_csv(empty) == reference_to_csv(empty)


def test_gz_log_bytes_do_not_depend_on_the_write_time(tmp_path, monkeypatch):
    log = parse_can_csv(_log_text(["0.0,speed,1", "1.0,speed,2", "0.0,pedal,10"]))
    first, second = tmp_path / "a" / "log.csv.gz", tmp_path / "b" / "log.csv.gz"
    first.parent.mkdir()
    second.parent.mkdir()
    write_can_csv(log, first)
    later = time.time() + 1000.0
    monkeypatch.setattr(time, "time", lambda: later)
    write_can_csv(log, second)
    data = first.read_bytes()
    assert data[4:8] == bytes(4)  # the header's MTIME field
    assert second.read_bytes() == data
    assert read_can_csv(first) == log


def test_duration_property():
    log = parse_can_csv(_log_text(["1.0,speed,1", "4.5,speed,2", "1.0,pedal,10"]))
    assert log.duration_s == pytest.approx(3.5)


_PADS = ("", "", " ", "  ", "\t", " \t", "\x1f")
_NON_FINITE = ("nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity")
_FAULTS = (
    None,
    "field_count",
    "non_numeric",
    "unknown_signal",
    "negative_time",
    "negative_value",
    "non_finite",
)


def _literal(rng, x: float) -> str:
    """A literal float() reads: repr, fixed, exponent, or underscored integer."""
    form = int(rng.integers(4))
    if form == 0:
        return repr(x)
    if form == 1:
        return f"{x:.1f}"
    if form == 2:
        return f"{x:.3e}"
    i = int(x)
    return f"{i // 10}_{i % 10}" if i >= 10 else str(i)


def _random_log(rng, fault):
    """CSV text with interleaved, shuffled, padded rows; duplicate times,
    blank lines, mixed LF/CRLF endings, and at most one faulty line.

    Returns (text, line number of the faulty line or None).
    """
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    pad = lambda s: pick(_PADS) + s + pick(_PADS)
    fields = []
    for name in ("speed", "pedal"):
        n = int(rng.integers(0 if rng.random() < 0.05 else 1, 40))
        for _ in range(n):
            t = int(rng.integers(0, 3 * n)) * 0.1  # a coarse grid repeats times
            v = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 120.0))
            fields.append([_literal(rng, t), name, _literal(rng, v)])
    rng.shuffle(fields)
    bad = None
    if fault is not None and fields:
        bad = int(rng.integers(len(fields)))
        row = fields[bad]
        col = 0 if rng.random() < 0.5 else 2
        if fault == "field_count":
            row[:] = row[:2] if rng.random() < 0.5 else row + ["1"]
        elif fault == "non_numeric":
            row[col] = pick(("abc", "1.2.3", "", "0x10", "1__0"))
        elif fault == "unknown_signal":
            row[1] = pick(("throttle", "Speed", "", "spe ed"))
        elif fault == "negative_time":
            row[0] = f"-{float(row[0].replace('_', '')) + 0.5!r}"
        elif fault == "negative_value":
            row[2] = f"-{float(row[2].replace('_', '')) + 0.5!r}"
        else:
            row[col] = pick(_NON_FINITE)
    lines = [pad(HEADER)]
    bad_lineno = None
    for i, row in enumerate(fields):
        while rng.random() < 0.1:
            lines.append(pick(("", " ", "\t")))
        lines.append(",".join(pad(f) for f in row))
        if i == bad:
            bad_lineno = len(lines)
    text = "".join(line + pick(("\n", "\r\n")) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text, bad_lineno


def _outcome(parse, text):
    """What a parser made of text: its log bytes or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = parse(text)
        except CanMatchError as exc:
            result = (type(exc), str(exc))
        else:
            result = tuple(
                a.tobytes()
                for a in (log.speed.times, log.speed.values, log.pedal.times, log.pedal.values)
            )
    return result, [(w.category, str(w.message)) for w in caught]


def test_parse_matches_line_by_line_reference():
    rng = np.random.default_rng(2024)
    named_faults = 0
    for case in range(700):
        fault = _FAULTS[case % len(_FAULTS)]
        text, bad_lineno = _random_log(rng, fault)
        got = _outcome(parse_can_csv, text)
        assert got == _outcome(reference_parse_can_csv, text), (case, text)
        if bad_lineno is not None:
            kind, message = got[0]
            assert message.startswith(f"line {bad_lineno}: "), (case, message)
            named_faults += 1
    assert named_faults >= 550


# splitlines() breaks lines at \v, \f, \x1c-\x1e, \r, \n, \x85 and U+2028,
# and str.strip() removes \x1f, space and tab; the rest of the tokens are
# literal characters a field or a line may hold
_GUARD_TOKENS = (
    "\0", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\n", "\x85", "\u2028",
    " ", "\t", "_", '"', "#", ",", "-", "nan", "speed",
)


def _canonical_text(rng) -> str:
    """to_csv text of a small random log, with LF or CRLF line ends."""
    series = []
    for cls in (SpeedSeries, PedalSeries):
        n = int(rng.integers(1, 12))
        times = np.sort(rng.integers(0, 2 * n, n)) * 0.1  # repeats some times
        values = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 120.0, n))
        series.append(cls(times=times, values=values))
    text = to_csv(CanLog(*series))
    return text.replace("\n", "\r\n") if rng.random() < 0.5 else text


def _edit(rng, text: str) -> str:
    """text with 0-2 tokens of _GUARD_TOKENS inserted or put in place of a character."""
    for _ in range(int(rng.integers(3))):
        token = _GUARD_TOKENS[int(rng.integers(len(_GUARD_TOKENS)))]
        if rng.random() < 0.5:
            at = int(rng.integers(len(text) + 1))
        else:
            # next to a delimiter, where padding and line breaks change a row
            stops = [m.start() for m in re.finditer("[,\n]", text)]
            at = stops[int(rng.integers(len(stops)))] + int(rng.integers(2))
        text = text[:at] + token + text[at + int(rng.integers(2)) :]
    return text


def _count_line_scans(monkeypatch) -> list:
    """Record the text of every log parse_can_csv scans line by line."""
    scanned = []
    scan = canlog._scan_lines

    def spy(text):
        scanned.append(text)
        return scan(text)

    monkeypatch.setattr(canlog, "_scan_lines", spy)
    return scanned


def test_c_reader_guard_matches_line_by_line_reference(monkeypatch):
    scanned = _count_line_scans(monkeypatch)
    rng = np.random.default_rng(17)
    cases = 4000
    for case in range(cases):
        text = _edit(rng, _canonical_text(rng))
        got = _outcome(parse_can_csv, text)
        assert got == _outcome(reference_parse_can_csv, text), (case, text)
    assert len(scanned) <= 0.75 * cases


@pytest.mark.parametrize("body", ["", "\n", "\n\n", " \t\n", "\r\n"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_blank_body_matches_line_by_line_reference(eol, body):
    text = HEADER + eol + body
    assert _outcome(parse_can_csv, text) == _outcome(reference_parse_can_csv, text)


@pytest.mark.filterwarnings("ignore::canmatch.errors.DuplicateTimestamp")
def test_canonical_logs_never_take_the_line_scan(tmp_path, monkeypatch):
    scanned = _count_line_scans(monkeypatch)
    rng = np.random.default_rng(5)
    for trial in range(20):
        text = _canonical_text(rng).replace("\r\n", "\n")
        log = reference_parse_can_csv(text)
        crlf = tmp_path / f"crlf{trial}.csv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        write_can_csv(log, tmp_path / f"lf{trial}.csv")
        write_can_csv(log, tmp_path / f"gz{trial}.csv.gz")
        assert parse_can_csv(text.replace("\n", "\r\n")) == log
        for name in (f"lf{trial}.csv", f"crlf{trial}.csv", f"gz{trial}.csv.gz"):
            assert read_can_csv(tmp_path / name) == log
    assert scanned == []
