"""Readings CSV and instance text formats, with exact Wh arithmetic.

Readings arrive either as integer Wh or as kWh with up to three decimals;
the kWh path parses the decimal string directly (never through binary
floating point), so the conversion to Wh is exact. Incomplete matrices are
rejected rather than imputed: the attack needs every (meter, period) cell.
"""

from __future__ import annotations

import numpy as np

from .model import AnonymizedInstance, ReadingMatrix

WH_HEADER = "meter_id,period,wh"
KWH_HEADER = "meter_id,period,kwh"


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


def _parse_records(text: str, header: str, parse_value) -> ReadingMatrix:
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"line 1: expected header {header!r}")
    cells: dict[tuple[str, int], int] = {}
    meters: list[str] = []
    seen = set()
    period_ids = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields")
        mid, period_s, value_s = (p.strip() for p in parts)
        if not mid:
            raise ValueError(f"line {lineno}: empty meter_id")
        if not (period_s.isascii() and period_s.isdigit()):
            raise ValueError(f"line {lineno}: invalid period {period_s!r}")
        pid = int(period_s)
        wh = parse_value(value_s, lineno)
        key = (mid, pid)
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate reading for meter {mid!r}, period {pid}")
        cells[key] = wh
        if mid not in seen:
            seen.add(mid)
            meters.append(mid)
        period_ids.add(pid)
    if not cells:
        raise ValueError("no records after the header")
    ordered_periods = sorted(period_ids)
    rows = []
    for mid in meters:
        row = []
        for pid in ordered_periods:
            if (mid, pid) not in cells:
                raise ValueError(f"missing reading for meter {mid!r}, period {pid}")
            row.append(cells[(mid, pid)])
        rows.append(tuple(row))
    return ReadingMatrix(n=len(meters), t=len(ordered_periods), readings=tuple(rows))


def parse_readings_csv(text: str) -> ReadingMatrix:
    """Parse `meter_id,period,wh` records into a complete matrix.

    Meters are ordered by first appearance; period identifiers are sorted
    and re-indexed densely.
    """
    return _parse_records(text, WH_HEADER, _parse_wh)


def parse_kwh_readings(text: str) -> ReadingMatrix:
    """Parse `meter_id,period,kwh` records (up to 3 decimals) into exact Wh."""
    return _parse_records(text, KWH_HEADER, _parse_kwh)


def load_readings(text: str) -> ReadingMatrix:
    """Parse a readings CSV in either unit, dispatching on the header line."""
    first = text.splitlines()[0].strip() if text.splitlines() else ""
    if first == KWH_HEADER:
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
