"""Readings CSV and instance text formats, with exact Wh arithmetic.

load_readings is the one readings parser. The header line picks the unit:
integer Wh, or kWh with up to three decimals, parsed from the decimal
string directly (never through binary floating point), so the conversion
to Wh is exact. Incomplete matrices are rejected rather than imputed: the
attack needs every (meter, period) cell.

It works a column at a time over chunks of about _CHUNK characters, each
cut right after a "\n", "\r\n" or lone "\r", so the chunks' lines are the
text's lines. Per chunk, commas are counted in one numpy pass, fields come
from one join and one split, and each numeric column is checked and
converted at once in numpy over its ASCII bytes (in exact Python ints when
a field has more digits than int64 safely holds; a value of more than
_MAX_DIGITS digits is refused on its line). Once every chunk is read, one
bincount over the cells meter * t + period checks that each cell is filled
exactly once; only a file that fails it is sorted to find its first
duplicate or missing cell. So besides the text and the finished matrix,
memory holds one chunk's lines and fields and three int64 per record: no
dict entry per cell, and nothing sized n * t before the matrix is known to
be complete. Every error is the one on the lowest physical line. _numbers
is the only field grammar: _record_error words a refused line's error from
its verdicts alone. Errors quote outside text through quoted, which cuts
it past _QUOTED characters, and print period ids through _period_id, which
cuts them past _QUOTED digits.
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress, islice

import numpy as np

from .model import AnonymizedInstance, ReadingMatrix

WH_HEADER = "meter_id,period,wh"
KWH_HEADER = "meter_id,period,kwh"
_DECIMALS = {WH_HEADER: 0, KWH_HEADER: 3}  # a readings header -> its value's decimals
_CHUNK = 1 << 16  # characters parsed at a time; bounds the parser's temporaries
_EOL = re.compile(r"\r\n?|\n")  # the line breaks a chunk ends at
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# digits of a value, leading zeros included: Python's default int <-> str limit
_MAX_DIGITS = 4300
_QUOTED = 64  # characters of outside text an error quotes whole


def quoted(text: str) -> str:
    """repr of outside text for an error; longer than _QUOTED, its head and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED // 2]!r}... ({len(text)} characters)"


def _period_id(value: int) -> str:
    """A period id for an error, unquoted; past _QUOTED digits, its head and its digit count."""
    digits = str(value)
    if len(digits) <= _QUOTED:
        return digits
    return f"{digits[:_QUOTED // 2]}... ({len(digits)} digits)"


def _numbers(fields: list[str], decimals: int,
             max_digits: float = _MAX_DIGITS) -> tuple[np.ndarray, np.ndarray | None]:
    """Validity of stripped decimal fields and, if all are valid, their exact values.

    A valid field is ASCII digits holding at most one '.', which must be
    followed by 1..decimals digits (so no '.' at all when decimals is 0).
    Values count units of 10**-decimals. When each fits in 18 digits,
    leading zeros included, they are computed in int64 over the fields'
    bytes; otherwise the column comes back as exact Python ints (dtype object),
    and a field whose value has more than max_digits digits is invalid.
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
    scale = decimals - after
    wide = (n_digits + scale).max() > 18  # past int64: exact Python ints
    if wide:
        valid &= n_digits + scale <= max_digits
    if not valid.all():
        return valid, None
    if wide:
        ints = np.array([int(f.replace(".", "")) for f in fields], dtype=object)
        return valid, ints * (10 ** scale).astype(object)
    # a digit's power of ten: the digits after it in its field, plus the field's scale
    power = np.repeat(digits_cum[ends] + scale, lens) - digits_cum[1:]
    terms = _POW10[np.where(is_digit, power, 0)] * np.where(is_digit, digit, 0)
    return valid, np.add.reduceat(terms, starts)


def _accepts(field: str, decimals: int, max_digits: float = _MAX_DIGITS) -> bool:
    """_numbers' verdict on one field; the never-valid "" beside it spares the conversion."""
    return bool(_numbers([field, ""], decimals, max_digits)[0][0])


def _record_error(raw: str, lineno: int, decimals: int) -> ValueError:
    """The error of a record line the column checks refused.

    Its fields' grammar is checked left to right, then the digit bound. A
    refused value that _numbers accepts with unbounded decimals has too many.
    """
    parts = raw.split(",")
    if len(parts) != 3:
        return ValueError(f"line {lineno}: expected 3 comma-separated fields")
    mid, period, value = (p.strip() for p in parts)
    if not mid:
        return ValueError(f"line {lineno}: empty meter_id")
    if not _accepts(period, 0, math.inf):
        return ValueError(f"line {lineno}: invalid period {quoted(period)}")
    if value.startswith("-"):
        return ValueError(f"line {lineno}: negative reading {quoted(value)}")
    if not _accepts(value, decimals, math.inf):
        if decimals and _accepts(value, len(value), math.inf):
            return ValueError(
                f"line {lineno}: more than three decimals in kWh reading {quoted(value)}")
        return ValueError(
            f"line {lineno}: invalid {'kWh' if decimals else 'Wh'} reading {quoted(value)}")
    if not _accepts(period, 0):
        return ValueError(f"line {lineno}: period has more than {_MAX_DIGITS} digits")
    return ValueError(f"line {lineno}: reading has more than {_MAX_DIGITS} digits in Wh")


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


def _chunks(text: str):
    """The text's lines, a list per chunk ending at an _EOL _CHUNK or more characters in."""
    start = 0
    while start < len(text):
        eol = _EOL.search(text, start + _CHUNK - 1)
        end = eol.end() if eol else len(text)
        yield text[start:end].splitlines()
        start = end


def load_readings(text: str) -> ReadingMatrix:
    """Parse a readings CSV, in Wh or kWh by its header line, into a complete matrix of exact Wh.

    Meters are ordered by first appearance; period identifiers are sorted
    and re-indexed densely. kWh readings have up to three decimals.
    """
    chunks = _chunks(text)
    block = next(chunks, [""])
    decimals = _DECIMALS.get(block[0].strip())
    if decimals is None:
        raise ValueError(f"line 1: expected header {WH_HEADER!r}")
    block[0] = ""  # the header: numbered, then dropped as a blank line
    index: dict[str, int] = {}
    columns = []  # (meter indices, period ids, values) per chunk
    bad = None  # (text, physical line number) of the first malformed record
    first = 1  # physical line number of the chunk's first line
    while block:
        kept = np.arange(first, first + len(block))  # physical line numbers
        first += len(block)
        # one byte per character, so the "\n"s before a comma number its line
        buf = np.frombuffer("\n".join(block).encode("ascii", "replace"), np.uint8)
        line_of = np.searchsorted(np.flatnonzero(buf == 10), np.flatnonzero(buf == 44))
        odd = np.flatnonzero(np.bincount(line_of, minlength=len(block)) != 2)
        del buf, line_of  # not kept alive beside the block's fields, the parse's peak
        if odd.size:
            keep = np.ones(len(block), bool)
            for i in odd:
                keep[i] = False
                if block[i].strip():  # not a blank line, so a malformed record
                    bad = block[i], int(kept[i])
                    keep[i:] = False
                    break
            block = list(compress(block, keep))
            kept = kept[keep]
        parsed, cut = _parse_block(block, decimals, index)
        if parsed:
            columns.append(parsed)
        if cut is not None:
            bad = block[cut], int(kept[cut])
        if bad is not None:
            break
        block = next(chunks, [])
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
                lines = chain.from_iterable(_chunks(text))  # walked again: a cold path
                lineno = next(islice((no for no, raw in enumerate(lines, start=1)
                                      if raw.strip()), r + 1, None))  # past the header
                raise ValueError(f"line {lineno}: duplicate reading for meter "
                                 f"{quoted(list(index)[meter[r]])}, "
                                 f"period {_period_id(int(period_ids[period[r]]))}")
            gaps = np.flatnonzero(ordered != np.arange(len(ordered)))
            missing = divmod(int(gaps[0]) if gaps.size else len(ordered), t)
    if bad is not None:
        raise _record_error(*bad, decimals)
    if not columns:
        raise ValueError("no records after the header")
    if not complete:
        i, j = missing
        raise ValueError(f"missing reading for meter {quoted(list(index)[i])}, "
                         f"period {_period_id(int(period_ids[j]))}")
    readings = np.empty(n * t, value.dtype)
    readings[cell] = value
    return ReadingMatrix(n=n, t=t, readings=tuple(map(tuple, readings.reshape(n, t).tolist())))


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
    if len(token) > _MAX_DIGITS:
        raise ValueError(f"line {lineno}: {what} has more than {_MAX_DIGITS} digits")
    value = int(token)
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
            raise ValueError(f"line {lineno}: expected period {j + 1}, got {_period_id(idx)}")
        periods.append(tuple(_int_field(tok, "reading", lineno) for tok in tokens[1:]))
    return AnonymizedInstance(n=n, t=t, periods=tuple(periods), totals=totals)
