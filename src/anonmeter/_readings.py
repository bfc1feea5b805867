"""The byte-level readings CSV parser behind ingest.load_readings.

It parses one chunk of the text, in UTF-8, with no Python string per
field: line, comma and field bounds are numpy positions, ASCII whitespace
is cut by index arithmetic (str.strip only on a field with a non-ASCII
byte at an end), and each numeric column is checked and converted at once
by _numbers over its fields' bytes, gathered back to back (a value of
2**63 or more is refused on its line). Meter ids take one dict
lookup per run of records whose raw meter fields hold equal bytes, so a
file grouped by meter costs about one per meter and chunk, and a file
interleaved by period one per record. _numbers is the only field grammar:
record_error words a refused line's error from its verdicts alone.
"""

from __future__ import annotations

import numpy as np

from .ingest import _UTF8, quoted
from .model import BOUND

_SPACE = np.zeros(256, bool)  # the ASCII whitespace str.strip() cuts that ends no line
_SPACE[[9, 31, 32]] = True
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_ZEROED = str.maketrans("123456789", "0" * 9)  # ASCII digits to "0"


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions of the fields [starts, starts + lens), back to back."""
    return np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


def _numbers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
             decimals: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Validity of stripped decimal fields and, if all are valid, their exact values.

    The fields are the UTF-8 bytes buf[starts:ends], gathered back to back.
    A valid field is ASCII digits holding at most one '.', which must be
    followed by 1..decimals digits (so no '.' at all when decimals is 0),
    and its value, counted in units of 10**-decimals, is below BOUND.
    Values are summed in uint64 over the fields' bytes, exact modulo 2**64
    and so exact for a value below 10**19, and come back as int64.
    """
    m = len(starts)
    lens = ends - starts
    buf = buf[_spans(starts, lens)]
    ends = np.cumsum(lens)
    starts = ends - lens
    digit = buf - np.uint8(48)  # a byte outside ASCII is no digit and no '.'
    is_digit = digit < 10
    digits_cum = np.zeros(buf.size + 1, np.int64)
    np.cumsum(is_digit, out=digits_cum[1:])
    n_digits = digits_cum[ends] - digits_cum[starts]
    dots = np.flatnonzero(buf == 46)
    dot_field = np.searchsorted(ends, dots, side="right")
    n_dots = np.bincount(dot_field, minlength=m)
    after = np.zeros(m, np.int64)  # digits after the '.'
    after[dot_field] = ends[dot_field] - 1 - dots
    scale = decimals - after
    # a digit's power of ten: the digits after it in its field, plus the field's scale
    # (a '.' counts 0, and so does a leading zero, whose power may be past _POW10)
    power = np.repeat(digits_cum[ends] + scale, lens) - digits_cum[1:]
    terms = np.zeros(buf.size + 1, np.uint64)  # a 0 after the last field, which may be empty
    np.take(_POW10, power, mode="clip", out=terms[:-1])
    terms[:-1] *= digit * is_digit
    values = np.add.reduceat(terms, starts)
    valid = (n_digits > 0) & (n_digits + n_dots == lens) & (values < BOUND) & (
        (n_dots == 0) | ((n_dots == 1) & (after >= 1) & (after <= decimals)))
    # a nonzero digit of power 19 or more (in a field of over 19 digits) is past 2**63
    if (n_digits + scale).max() > 19:
        high = np.flatnonzero((power > 18) & (digit - np.uint8(1) < 9))
        valid[np.searchsorted(ends, high, side="right")] = False
    return valid, values.view(np.int64) if valid.all() else None


def _accepts(field: str, decimals: int) -> bool:
    """_numbers' verdict on one field."""
    buf = np.frombuffer(field.encode(*_UTF8), np.uint8)
    return bool(_numbers(buf, np.array([0]), np.array([buf.size]), decimals)[0][0])


def record_error(raw: str, lineno: int, decimals: int) -> ValueError:
    """The error of a record line the column checks refused.

    Its fields' grammar is checked left to right on copies whose ASCII
    digits are all 0 (the grammar kept, the value inside the bound), then
    the bound, period before reading. A refused value that _numbers accepts
    with unbounded decimals has too many.
    """
    parts = raw.split(",")
    if len(parts) != 3:
        return ValueError(f"line {lineno}: expected 3 comma-separated fields")
    mid, period, value = (p.strip() for p in parts)
    if not mid:
        return ValueError(f"line {lineno}: empty meter_id")
    if not _accepts(period.translate(_ZEROED), 0):
        return ValueError(f"line {lineno}: invalid period {quoted(period)}")
    if value.startswith("-"):
        return ValueError(f"line {lineno}: negative reading {quoted(value)}")
    zeroed = value.translate(_ZEROED)
    if not _accepts(zeroed, decimals):
        if decimals and _accepts(zeroed, len(value)):
            return ValueError(
                f"line {lineno}: more than three decimals in kWh reading {quoted(value)}")
        return ValueError(
            f"line {lineno}: invalid {'kWh' if decimals else 'Wh'} reading {quoted(value)}")
    if not _accepts(period, 0):
        return ValueError(f"line {lineno}: period must be below 2**63")
    return ValueError(f"line {lineno}: reading must be below 2**63 Wh")


def lines(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the lines of a chunk, cut where str.splitlines() cuts them."""
    buf = np.frombuffer(b"\0" + data + b"\0", np.uint8)  # a byte before and after the chunk
    # a break is "\n", "\v", "\f", "\r", "\x1c", "\x1d" or "\x1e" (see ingest._encoded_chunks),
    # or a "\r\n", which ends at its "\n"
    last = np.flatnonzero((buf - np.uint8(10) < 4) | (buf - np.uint8(28) < 3))
    last = last[(buf[last] != 13) | (buf[last + 1] != 10)] - 1  # offsets in data
    ends = last - ((buf[last + 1] == 10) & (buf[last] == 13))  # a "\r\n" starts 1 earlier
    starts = np.append(0, last + 1)
    ends = np.append(ends, len(data))
    if starts[-1] == len(data):  # no text after the last break
        return starts[:-1], ends[:-1]
    return starts, ends


def _strip(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Field bounds with whitespace cut off both ends, as str.strip() cuts it.

    ASCII whitespace is cut by index arithmetic: each bound moves inward to
    the nearest other byte, and the comma before every field keeps the
    search in its line. A field whose first or last byte is then outside
    ASCII is decoded and cut by str.strip().
    """
    if (_SPACE[np.take(buf, starts, mode="clip")] | _SPACE[buf[ends - 1]]).any():
        solid = np.append(np.flatnonzero(~_SPACE[buf]), buf.size)  # the other bytes
        starts = np.minimum(solid[np.searchsorted(solid, starts)], ends)
        ends = np.maximum(solid[np.searchsorted(solid, ends) - 1] + 1, starts)
    edge = np.flatnonzero((np.take(buf, starts, mode="clip") | buf[ends - 1]) > 127)
    if edge.size:
        starts, ends = starts.copy(), ends.copy()
    for i in edge.tolist():
        field = data[starts[i]:ends[i]].decode(*_UTF8)
        starts[i] = ends[i] - len(field.lstrip().encode(*_UTF8))
        ends[i] = starts[i] + len(field.strip().encode(*_UTF8))
    return starts, ends


def _meters(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
            index: dict[str, int], spellings: dict[bytes, int]) -> np.ndarray:
    """The meter number of each raw meter field [starts, ends), or -1 where it strips to "".

    A run of records whose raw fields hold equal bytes takes one lookup in
    spellings, keyed by those bytes. A new spelling is decoded and stripped
    once, and a new id is numbered in index in order of first appearance.
    """
    lens = ends - starts
    head = np.append(True, lens[1:] != lens[:-1])  # records that start a run
    same = np.flatnonzero(~head)  # as long as the field before: compared byte by byte
    differ = buf[_spans(starts[same], lens[same])] != buf[_spans(starts[same - 1], lens[same])]
    head[np.repeat(same, lens[same])[differ]] = True
    heads = np.flatnonzero(head)
    # the heads' fields, each followed by an FF byte, which UTF-8 never holds
    lens = lens[heads] + 1
    joined = buf[_spans(starts[heads], lens)]
    joined[np.cumsum(lens) - 1] = 0xFF
    keys = joined.tobytes().split(b"\xff")[:-1]
    for key in dict.fromkeys(keys):
        if key not in spellings:
            mid = key.decode(*_UTF8).strip()
            spellings[key] = index.setdefault(mid, len(index)) if mid else -1
    numbers = np.fromiter(map(spellings.__getitem__, keys), np.int64, len(keys))
    return np.repeat(numbers, np.diff(np.append(heads, starts.size)))


def parse_chunk(data: bytes, starts: np.ndarray, ends: np.ndarray, first: int, decimals: int,
                index: dict[str, int], spellings: dict[bytes, int]):
    """(meter numbers, period ids, values) of a chunk's records, and its first malformed line.

    data is the chunk in UTF-8, starts and ends bound the lines to parse,
    and first is the number of the first. The columns (None if empty) cover
    the records before the first malformed line, whose (text, number) comes
    second (None when every line is a valid record or blank).
    """
    if not starts.size:
        return None, None
    buf = np.frombuffer(data, np.uint8)
    commas = np.flatnonzero(buf[starts[0]:] == 44) + starts[0]
    upto = np.searchsorted(commas, ends)  # the commas before each line's end
    count = np.diff(upto, prepend=0)
    bad, cut = None, starts.size
    for i in np.flatnonzero(count != 2).tolist():
        raw = data[starts[i]:ends[i]].decode(*_UTF8)
        if raw.strip():  # not a blank line, so a malformed record
            bad, cut = (raw, first + i), i
            break
    records = np.flatnonzero(count[:cut] == 2)  # the lines with two commas
    if not records.size:
        return None, bad
    comma1, comma2 = commas[upto[records] - 2], commas[upto[records] - 1]
    meters = _meters(data, buf, starts[records], comma1, index, spellings)
    periods = _strip(data, buf, comma1 + 1, comma2)
    values = _strip(data, buf, comma2 + 1, ends[records])
    ok_periods, period_ids = _numbers(buf, *periods, 0)
    ok_values, readings = _numbers(buf, *values, decimals)
    ok = ok_periods & ok_values & (meters >= 0)
    if not ok.all():  # parsed again up to the first invalid record
        line = int(records[np.argmin(ok)])
        bad = data[starts[line]:ends[line]].decode(*_UTF8), first + line
        args = data, starts[:line], ends[:line], first, decimals, index, spellings
        return parse_chunk(*args)[0], bad
    return (meters, period_ids, readings), bad
