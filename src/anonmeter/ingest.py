"""Readings CSV and instance text formats, with exact Wh arithmetic.

Readings arrive either as integer Wh or as kWh with up to three decimals;
the kWh path parses the decimal string directly (never through binary
floating point), so the conversion to Wh is exact. Incomplete matrices are
rejected rather than imputed: the attack needs every (meter, period) cell.

The readings parser works a column at a time over blocks of at most _BLOCK
body lines. Each block is split into fields with one join and one split,
and each numeric column is checked and converted at once in numpy over its
ASCII bytes (in exact Python ints when a field has more digits than int64
safely holds). Once every block is read, one bincount over the cells
meter * t + period checks that each cell is filled exactly once; only a
file that fails it is sorted to find its first duplicate or missing cell.
So besides the text's lines and the finished matrix, memory holds one
block's fields and a few integers per record: no dict entry per cell, and
nothing sized n * t before the matrix is known to be complete. Every error
is the one on the lowest physical line, with the text that _parse_wh,
_parse_kwh and _check_record give for that line alone.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from typing import NoReturn

import numpy as np

from .model import AnonymizedInstance, ReadingMatrix

WH_HEADER = "meter_id,period,wh"
KWH_HEADER = "meter_id,period,kwh"
_BLOCK = 8192  # body lines parsed at a time; bounds the parser's temporaries
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _parse_wh(s: str, lineno: int) -> int:
    if not (s.isascii() and s.isdigit()):
        if s.startswith("-"):
            raise ValueError(f"line {lineno}: negative reading {s!r}")
        raise ValueError(f"line {lineno}: invalid Wh reading {s!r}")
    return int(s)


def _parse_kwh(s: str, lineno: int) -> int:
    if s.startswith("-"):
        raise ValueError(f"line {lineno}: negative reading {s!r}")
    int_part, sep, frac = s.partition(".")
    if sep and not frac:
        raise ValueError(f"line {lineno}: invalid kWh reading {s!r}")
    if not int_part and not frac:
        raise ValueError(f"line {lineno}: invalid kWh reading {s!r}")
    int_part = int_part or "0"
    digits_ok = int_part.isascii() and int_part.isdigit()
    if frac:
        digits_ok = digits_ok and frac.isascii() and frac.isdigit()
    if not digits_ok:
        raise ValueError(f"line {lineno}: invalid kWh reading {s!r}")
    if len(frac) > 3:
        raise ValueError(f"line {lineno}: more than three decimals in kWh reading {s!r}")
    frac_wh = int(frac.ljust(3, "0")) if frac else 0
    return int(int_part) * 1000 + frac_wh


def _check_record(raw: str, lineno: int, parse_value) -> NoReturn:
    """Raise the error of a malformed record line, checking its fields left to right."""
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"line {lineno}: expected 3 comma-separated fields")
    mid, period_s, value_s = (p.strip() for p in parts)
    if not mid:
        raise ValueError(f"line {lineno}: empty meter_id")
    if not (period_s.isascii() and period_s.isdigit()):
        raise ValueError(f"line {lineno}: invalid period {period_s!r}")
    parse_value(value_s, lineno)
    raise AssertionError(f"line {lineno}: record refused by the column checks only")


def _numbers(fields: list[str], decimals: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Validity of stripped decimal fields and, if all are valid, their exact values.

    A valid field is ASCII digits holding at most one '.', which must be
    followed by 1..decimals digits (so no '.' at all when decimals is 0).
    Values count units of 10**-decimals. When each fits in 18 digits,
    leading zeros included, they are computed in int64 over the fields'
    bytes; otherwise the column comes back as exact Python ints (dtype object).
    """
    m = len(fields)
    lens = np.fromiter(map(len, fields), np.int64, m)
    ends = np.cumsum(lens)
    starts = ends - lens
    # one byte per character: anything outside ASCII becomes '?', an invalid byte
    buf = np.frombuffer("".join(fields).encode("ascii", "replace"), np.uint8)
    digit = buf - np.uint8(48)
    is_digit = digit < 10
    digits_cum = np.zeros(buf.size + 1, np.int64)
    np.cumsum(is_digit, out=digits_cum[1:])
    n_digits = digits_cum[ends] - digits_cum[starts]
    dots = np.flatnonzero(buf == 46)
    dot_field = np.searchsorted(ends, dots, side="right")
    n_dots = np.bincount(dot_field, minlength=m)
    after = np.zeros(m, np.int64)  # digits after the '.'
    after[dot_field] = ends[dot_field] - 1 - dots
    valid = (n_digits > 0) & (n_digits + n_dots == lens) & (
        (n_dots == 0) | ((n_dots == 1) & (after >= 1) & (after <= decimals)))
    if not valid.all():
        return valid, None
    scale = decimals - after
    if (n_digits + scale).max() > 18:  # past int64: exact Python ints
        ints = np.array([int(f.replace(".", "")) for f in fields], dtype=object)
        return valid, ints * (10 ** scale).astype(object)
    # a digit's power of ten: the digits after it in its field, plus the field's scale
    power = np.repeat(digits_cum[ends] + scale, lens) - digits_cum[1:]
    terms = _POW10[np.where(is_digit, power, 0)] * np.where(is_digit, digit, 0)
    return valid, np.add.reduceat(terms, starts)


def _parse_block(block: list[str], decimals: int, index: dict[str, int]):
    """(meter indices, period ids, values) of lines with two commas each, and the first bad index.

    The columns cover the lines before the first invalid one (None when there
    are none); the index is None when every line is valid. Meters not yet in
    index are added in order of first appearance.
    """
    if not block:
        return None, None
    fields = list(map(str.strip, ",".join(block).split(",")))
    mids = fields[0::3]
    ok_periods, periods = _numbers(fields[1::3], 0)
    ok_values, values = _numbers(fields[2::3], decimals)
    ok = ok_periods & ok_values
    if "" in mids:
        ok[mids.index("")] = False
    if not ok.all():
        bad = int(np.argmin(ok))
        return _parse_block(block[:bad], decimals, index)[0], bad
    for mid in dict.fromkeys(mids):  # in order of first appearance
        index.setdefault(mid, len(index))
    meters = np.fromiter(map(index.__getitem__, mids), np.int64, len(mids))
    return (meters, periods, values), None


def _parse_records(text: str, header: str, decimals: int, parse_value) -> ReadingMatrix:
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"line 1: expected header {header!r}")
    index: dict[str, int] = {}
    columns = []  # (meter indices, period ids, values) per block
    bad = None  # physical line number of the first malformed record
    for start in range(1, len(lines), _BLOCK):
        block = lines[start : start + _BLOCK]
        kept = np.arange(start + 1, start + 1 + len(block))  # physical line numbers
        odd = np.flatnonzero(np.fromiter(map(str.count, block, repeat(",")), np.int64,
                                         len(block)) != 2)
        if odd.size:
            keep = np.ones(len(block), bool)
            for i in odd:
                keep[i] = False
                if block[i].strip():  # not a blank line, so a malformed record
                    bad = int(kept[i])
                    keep[i:] = False
                    break
            block = list(compress(block, keep))
            kept = kept[keep]
        parsed, cut = _parse_block(block, decimals, index)
        if parsed:
            columns.append(parsed)
        if cut is not None:
            bad = int(kept[cut])
        if bad is not None:
            break
    if columns:
        meter, period, value = (np.concatenate(col) for col in zip(*columns))
        period_ids, period = np.unique(period, return_inverse=True)
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
                lineno = next(islice((no for no, raw in enumerate(lines[1:], start=2)
                                      if raw.strip()), r, None))
                raise ValueError(f"line {lineno}: duplicate reading for meter "
                                 f"{list(index)[meter[r]]!r}, period {int(period_ids[period[r]])}")
            gaps = np.flatnonzero(ordered != np.arange(len(ordered)))
            missing = divmod(int(gaps[0]) if gaps.size else len(ordered), t)
    if bad is not None:
        _check_record(lines[bad - 1], bad, parse_value)
    if not columns:
        raise ValueError("no records after the header")
    if not complete:
        i, j = missing
        raise ValueError(f"missing reading for meter {list(index)[i]!r}, "
                         f"period {int(period_ids[j])}")
    readings = np.empty(n * t, value.dtype)
    readings[cell] = value
    return ReadingMatrix(n=n, t=t, readings=tuple(map(tuple, readings.reshape(n, t).tolist())))


def parse_readings_csv(text: str) -> ReadingMatrix:
    """Parse `meter_id,period,wh` records into a complete matrix.

    Meters are ordered by first appearance; period identifiers are sorted
    and re-indexed densely.
    """
    return _parse_records(text, WH_HEADER, 0, _parse_wh)


def parse_kwh_readings(text: str) -> ReadingMatrix:
    """Parse `meter_id,period,kwh` records (up to 3 decimals) into exact Wh."""
    return _parse_records(text, KWH_HEADER, 3, _parse_kwh)


def load_readings(text: str) -> ReadingMatrix:
    """Parse a readings CSV in either unit, dispatching on the header line."""
    # splitlines() of the text up to its first "\n" yields the same first line
    head = text.partition("\n")[0].splitlines()
    if head and head[0].strip() == KWH_HEADER:
        return parse_kwh_readings(text)
    return parse_readings_csv(text)


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


def _int_field(token: str, what: str, lineno: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"line {lineno}: invalid {what} {token!r}")
    return int(token)


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
    n = _int_field(tokens[0], "meter count", lineno)
    lineno, tokens = expect(1, "periods", 1)
    t = _int_field(tokens[0], "period count", lineno)
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
