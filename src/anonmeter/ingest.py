"""Readings CSV and instance text formats, with exact Wh arithmetic.

load_readings is the one readings parser. The header line picks the unit:
integer Wh, or kWh with up to three decimals, parsed from the decimal
string directly (never through binary floating point), so the conversion
to Wh is exact. Incomplete matrices are rejected rather than imputed: the
attack needs every (meter, period) cell.

It works a column at a time over chunks of about _CHUNK characters, each
cut right after a "\n", "\r\n" or lone "\r", so the chunks' lines are the
text's lines. Each chunk is encoded once to UTF-8 and parsed from its
bytes, with no Python string per field, by the _readings module, which
load_readings imports on first use, so that a process that never reads a
readings CSV never compiles it. Once every chunk is read, one bincount
over the cells meter * t + period checks that each cell is filled exactly
once; only a file that fails it is sorted to find its first duplicate or
missing cell. So besides the text and the finished matrix, memory holds
one chunk's bytes and arrays and three int64 per record: no dict entry per
cell, and nothing sized n * t before the matrix is known to be complete.
Every error is the one on the lowest physical line. Errors quote outside
text through quoted, which cuts it past _QUOTED characters. Every value
and period id, here and in instance files, must be below 2**63.
"""

from __future__ import annotations

import re
from itertools import chain, islice

import numpy as np

from .model import BOUND, AnonymizedInstance, ReadingMatrix

WH_HEADER = "meter_id,period,wh"
KWH_HEADER = "meter_id,period,kwh"
_DECIMALS = {WH_HEADER: 0, KWH_HEADER: 3}  # a readings header -> its value's decimals
_CHUNK = 1 << 15  # characters parsed at a time; bounds the parser's temporaries
_EOL = re.compile(r"\r\n?|\n")  # the line breaks a chunk ends at
_UTF8 = "utf-8", "surrogatepass"  # a chunk's codec: lone surrogates pass through
_QUOTED = 64  # characters of outside text an error quotes whole


def quoted(text: str) -> str:
    """repr of outside text for an error; longer than _QUOTED, its head and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED // 2]!r}... ({len(text)} characters)"


def _encoded_chunks(text: str):
    """The text in UTF-8 a chunk at a time, each cut after an _EOL _CHUNK or more characters in.

    U+0085, U+2028 and U+2029 become "\x1e", a one-byte line break that,
    unlike "\n", never joins a "\r" before it: the lines stay the text's
    lines, and every break is one byte or "\r\n".
    """
    start = 0
    while start < len(text):
        eol = _EOL.search(text, start + _CHUNK - 1)
        end = eol.end() if eol else len(text)
        chunk = text[start:end].replace("\x85", "\x1e").replace("\u2028", "\x1e")
        yield chunk.replace("\u2029", "\x1e").encode(*_UTF8)
        start = end


def _chunks(text: str):
    """The text's lines, a list per chunk."""
    return (chunk.decode(*_UTF8).splitlines() for chunk in _encoded_chunks(text))


def load_readings(text: str) -> ReadingMatrix:
    """Parse a readings CSV, in Wh or kWh by its header line, into a complete matrix of exact Wh.

    Meters are ordered by first appearance; period identifiers are sorted
    and re-indexed densely. kWh readings have up to three decimals.
    """
    from . import _readings  # imported here: only processes that parse readings compile it

    chunks = _encoded_chunks(text)
    data = next(chunks, b"")
    starts, ends = _readings.lines(data)
    header = data[starts[0]:ends[0]].decode(*_UTF8) if starts.size else ""
    decimals = _DECIMALS.get(header.strip())
    if decimals is None:
        raise ValueError(f"line 1: expected header {WH_HEADER!r}")
    index: dict[str, int] = {}  # meter id -> its number, in order of first appearance
    spellings: dict[bytes, int] = {}  # raw meter field -> its meter's number, -1 if blank
    columns = []  # (meter numbers, period ids, values) per chunk
    first, starts, ends = 2, starts[1:], ends[1:]  # the header is no record
    while True:
        parsed, bad = _readings.parse_chunk(data, starts, ends, first, decimals, index,
                                             spellings)
        if parsed:
            columns.append(parsed)
        data = next(chunks, None)
        if bad is not None or data is None:
            break
        first += starts.size
        starts, ends = _readings.lines(data)
    if not columns:
        raise (_readings.record_error(*bad, decimals) if bad
               else ValueError("no records after the header"))
    meter, period, value = map(np.concatenate, zip(*columns))
    del columns, parsed  # freed once concatenated
    period_ids = np.unique(period)
    # searchsorted, not return_inverse: a lower peak, the same dense sorted ids
    period = np.searchsorted(period_ids, period)
    n, t = len(index), len(period_ids)
    cell = meter * t + period
    # complete iff there are n * t records and no cell is counted twice
    complete = len(cell) == n * t and np.bincount(cell).max() == 1
    if not complete:
        order = np.argsort(cell, kind="stable")
        ordered = cell[order]
        again = order[1:][ordered[1:] == ordered[:-1]]
        if again.size:
            r = int(again.min())
            lines = chain.from_iterable(_chunks(text))  # walked again: a cold path
            lineno = next(islice((no for no, raw in enumerate(lines, start=1)
                                  if raw.strip()), r + 1, None))  # past the header
            raise ValueError(f"line {lineno}: duplicate reading for meter "
                             f"{quoted(list(index)[meter[r]])}, "
                             f"period {period_ids[period[r]]}")
        gaps = np.flatnonzero(ordered != np.arange(len(ordered)))
        i, j = divmod(int(gaps[0]) if gaps.size else len(ordered), t)
    if bad is not None:
        raise _readings.record_error(*bad, decimals)
    if not complete:
        raise ValueError(f"missing reading for meter {quoted(list(index)[i])}, "
                         f"period {period_ids[j]}")
    readings = np.empty(n * t, value.dtype)
    readings[cell] = value
    del meter, period, value, cell  # the record columns, before the rows are built
    return ReadingMatrix(n=n, t=t, readings=readings.reshape(n, t))


def write_readings_csv(matrix: ReadingMatrix) -> str:
    """Render a matrix as `meter_id,period,wh` records (meters m1..mn, periods 1..t)."""
    lines = [WH_HEADER]
    for i, row in enumerate(matrix.readings):
        for j, v in enumerate(row):
            lines.append(f"m{i + 1},{j + 1},{v}")
    return "\n".join(lines) + "\n"


def select_submatrix(matrix: ReadingMatrix, n_sub: int, t_sub: int, seed: int) -> ReadingMatrix:
    """A uniformly random meter subset over a uniformly random consecutive period window.

    Values are copied exactly and selected rows keep their original order,
    so the full-size selection is the identity. Deterministic per seed (PCG64).
    """
    if not 1 <= n_sub <= matrix.n:
        raise ValueError(f"meter subset size {n_sub} not in 1..{matrix.n}")
    if not 1 <= t_sub <= matrix.t:
        raise ValueError(f"period window size {t_sub} not in 1..{matrix.t}")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows_idx = sorted(int(i) for i in rng.choice(matrix.n, size=n_sub, replace=False))
    start = int(rng.integers(0, matrix.t - t_sub + 1))
    rows = tuple(matrix.readings[i][start : start + t_sub] for i in rows_idx)
    return ReadingMatrix(n=n_sub, t=t_sub, readings=rows)


def write_instance(inst: AnonymizedInstance) -> str:
    """Render an instance in the line-oriented text format (bit-exact round trip)."""
    lines = [
        f"meters {inst.n}",
        f"periods {inst.t}",
        "totals " + " ".join(str(v) for v in inst.totals),
    ]
    for j, vals in enumerate(inst.periods, start=1):
        lines.append(f"period {j} " + " ".join(str(v) for v in vals))
    return "\n".join(lines) + "\n"


def _int_field(token: str, what: str, lineno: int, minimum: int = 0) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"line {lineno}: invalid {what} {quoted(token)}")
    # 20 digits past the leading zeros are past 2**63, and int() takes at most 4,300
    value = int(token.lstrip("0")[:20] or "0")
    if value >= BOUND:
        raise ValueError(f"line {lineno}: {what} must be below 2**63")
    if value < minimum:
        raise ValueError(f"line {lineno}: {what} must be at least {minimum}")
    return value


def parse_instance(text: str) -> AnonymizedInstance:
    """Inverse of write_instance; rejects malformed headers and arity mismatches.

    Blank lines are skipped; errors name the physical line, counted from 1.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) < 3:
        raise ValueError("instance file needs meters, periods and totals lines")

    def expect(index: int, keyword: str, arity: int | None) -> tuple[int, list[str]]:
        lineno, line = lines[index]
        tokens = line.split()
        if tokens[0] != keyword:
            raise ValueError(f"line {lineno}: expected {keyword!r} section")
        if arity is not None and len(tokens) != arity + 1:
            raise ValueError(
                f"line {lineno}: {keyword!r} expects {arity} values, got {len(tokens) - 1}"
            )
        return lineno, tokens[1:]

    lineno, tokens = expect(0, "meters", 1)
    n = _int_field(tokens[0], "meter count", lineno, minimum=1)
    lineno, tokens = expect(1, "periods", 1)
    t = _int_field(tokens[0], "period count", lineno, minimum=1)
    lineno, tokens = expect(2, "totals", n)
    totals = tuple(_int_field(tok, "total", lineno) for tok in tokens)
    if len(lines) != 3 + t:
        raise ValueError(f"expected {t} period lines, found {len(lines) - 3}")
    periods = []
    for j in range(t):
        lineno, tokens = expect(3 + j, "period", n + 1)
        idx = _int_field(tokens[0], "period index", lineno)
        if idx != j + 1:
            raise ValueError(f"line {lineno}: expected period {j + 1}, got {idx}")
        periods.append(tuple(_int_field(tok, "reading", lineno) for tok in tokens[1:]))
    return AnonymizedInstance(n=n, t=t, periods=tuple(periods), totals=totals)
