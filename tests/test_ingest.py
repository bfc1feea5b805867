"""CSV parsing, kWh conversion exactness, selection and instance round trips."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import readings_loop

from anonmeter import demo, ingest
from anonmeter.ingest import (
    KWH_HEADER,
    WH_HEADER,
    load_readings,
    parse_instance,
    parse_kwh_readings,
    parse_readings_csv,
    select_submatrix,
    write_instance,
    write_readings_csv,
)
from anonmeter.model import ReadingMatrix


def demo_csv():
    lines = ["meter_id,period,wh"]
    for i, row in enumerate(demo.READINGS):
        for j, v in enumerate(row):
            lines.append(f"sm{i + 1},{j + 1},{v}")
    return "\n".join(lines) + "\n"


def test_parse_demo_readings():
    matrix = parse_readings_csv(demo_csv())
    assert matrix.n == 3 and matrix.t == 9
    assert matrix.row_sums() == (991, 473, 926)
    assert matrix.readings == demo.READINGS


def test_meters_ordered_by_first_appearance_periods_sorted():
    text = "meter_id,period,wh\nb,2,20\nb,1,10\na,1,1\na,2,2\n"
    matrix = parse_readings_csv(text)
    assert matrix.readings == ((10, 20), (1, 2))


def test_single_record_file():
    matrix = parse_readings_csv("meter_id,period,wh\nx,5,42\n")
    assert matrix.n == 1 and matrix.t == 1
    assert matrix.readings == ((42,),)


def test_duplicate_cell_error_names_the_cell():
    text = "meter_id,period,wh\na,1,5\na,1,6\n"
    with pytest.raises(ValueError, match=r"line 3.*duplicate.*'a'.*1"):
        parse_readings_csv(text)


def test_missing_cell_rejected():
    text = "meter_id,period,wh\na,1,5\na,2,6\nb,1,7\n"
    with pytest.raises(ValueError, match="missing reading"):
        parse_readings_csv(text)


def test_malformed_line_reports_line_number():
    text = "meter_id,period,wh\na,1,5\na,2\n"
    with pytest.raises(ValueError, match="line 3"):
        parse_readings_csv(text)


def test_negative_and_bad_values_rejected():
    with pytest.raises(ValueError, match="negative"):
        parse_readings_csv("meter_id,period,wh\na,1,-5\n")
    with pytest.raises(ValueError, match="invalid"):
        parse_readings_csv("meter_id,period,wh\na,1,5.5\n")
    with pytest.raises(ValueError, match="header"):
        parse_readings_csv("meter,period,wh\na,1,5\n")


def test_kwh_conversion_examples():
    assert parse_kwh_readings("meter_id,period,kwh\na,1,0.362\n").readings == ((362,),)
    assert parse_kwh_readings("meter_id,period,kwh\na,1,0.000\n").readings == ((0,),)
    assert parse_kwh_readings("meter_id,period,kwh\na,1,2\n").readings == ((2000,),)
    assert parse_kwh_readings("meter_id,period,kwh\na,1,1.5\n").readings == ((1500,),)


def test_kwh_too_many_decimals():
    with pytest.raises(ValueError, match="three decimals"):
        parse_kwh_readings("meter_id,period,kwh\na,1,1.2345\n")


def test_kwh_malformed_values():
    for bad in ("1.", ".", "1e3", "-0.5", "abc"):
        with pytest.raises(ValueError):
            parse_kwh_readings(f"meter_id,period,kwh\na,1,{bad}\n")


@settings(max_examples=200, deadline=None)
@given(
    whole=st.integers(min_value=0, max_value=10**5),
    frac=st.text(alphabet="0123456789", min_size=0, max_size=3),
)
def test_kwh_conversion_exact_for_any_3_decimal_string(whole, frac):
    from decimal import Decimal

    text = f"{whole}.{frac}" if frac else str(whole)
    expected = int(Decimal(text) * 1000)  # exact decimal arithmetic oracle
    matrix = parse_kwh_readings(f"meter_id,period,kwh\na,1,{text}\n")
    assert matrix.readings[0][0] == expected


def test_load_readings_dispatches_on_header():
    assert load_readings("meter_id,period,wh\na,1,5\n").readings == ((5,),)
    assert load_readings("meter_id,period,kwh\na,1,0.005\n").readings == ((5,),)



def reference_load(text):
    """load_readings by the per-line reference loop, dispatching on the whole first line."""
    lines = text.splitlines()
    if lines and lines[0].strip() == KWH_HEADER:
        return readings_loop(text, KWH_HEADER, ingest._parse_kwh)
    return readings_loop(text, WH_HEADER, ingest._parse_wh)


def outcome(parse, text):
    """The parsed matrix, or the text of the ValueError the parse raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


METER_IDS = ["m1", "m2", "x", "0", "\u00e9", "\u96fb\u8868", "a\u00a0b"]
PADS = ["", " ", "\t", "\xa0", " \t\xa0"]
BLANKS = ["", "  ", "\t", "\xa0"]
BAD_VALUES = ["5.", ".", "1.2345", "-1", "1_0", "\u0661", "1e3", "", "+1", "1.2.3", "1 2", "0x1"]
BAD_PERIODS = ["-1", "1.0", "x", "", "\u0661", "1e3", "+1"]
MUTATIONS = ["drop", "duplicate", "bad_value", "bad_period", "empty_meter", "two_fields",
             "four_fields"]


def zeros(draw):
    return "0" * draw(st.integers(0, 2))


def kwh_text(draw, wh):
    """One of the spellings of wh Wh in kWh: optional leading zeros, 0-3 decimals, '.5'."""
    whole, frac = divmod(wh, 1000)
    decimals = draw(st.sampled_from([d for d in range(4) if frac % 10 ** (3 - d) == 0]))
    head = zeros(draw) + str(whole)
    if whole == 0 and decimals and draw(st.booleans()):
        head = ""
    return head + (f".{frac:03d}"[: decimals + 1] if decimals else "")


@st.composite
def readings_csvs(draw):
    """A readings CSV in either unit, valid or broken by a few mutations, messily spelled."""
    kwh = draw(st.booleans())
    meters = draw(st.lists(st.sampled_from(METER_IDS), min_size=1, max_size=3, unique=True))
    periods = draw(st.lists(st.integers(0, 10**20), min_size=1, max_size=3, unique=True))
    records = []
    for mid in meters:
        for pid in periods:
            wh = draw(st.one_of(st.integers(0, 3000), st.integers(2**63 - 2, 2**64),
                                st.integers(2**64, 10**25)))
            value = kwh_text(draw, wh) if kwh else zeros(draw) + str(wh)
            records.append([mid, zeros(draw) + str(pid), value])
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        whole = [rec for rec in records if len(rec) == 3]
        if not whole:
            break
        rec = draw(st.sampled_from(whole))
        if mutation == "drop":
            records.remove(rec)
        elif mutation == "duplicate":
            records.append([rec[0], "0" + rec[1], rec[2]])
        elif mutation == "bad_value":
            rec[2] = draw(st.sampled_from(BAD_VALUES))
        elif mutation == "bad_period":
            rec[1] = draw(st.sampled_from(BAD_PERIODS))
        elif mutation == "empty_meter":
            rec[0] = ""
        elif mutation == "two_fields":
            del rec[2]
        else:
            rec.append("1")
    lines = [draw(st.sampled_from(PADS)) + (KWH_HEADER if kwh else WH_HEADER)]
    for rec in draw(st.permutations(records)):
        lines += draw(st.lists(st.sampled_from(BLANKS), max_size=1))
        lines.append(",".join(draw(st.sampled_from(PADS)) + f + draw(st.sampled_from(PADS))
                              for f in rec))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None)
@given(text=readings_csvs(), block=st.sampled_from([1, 2, 3, 8192]))
def test_parser_matches_line_loop(text, block):
    with mock.patch.object(ingest, "_BLOCK", block):
        assert outcome(load_readings, text) == outcome(reference_load, text)


@pytest.mark.parametrize("field", [*BAD_VALUES, "007", ".5", "0.5", "00.250", "1.000", "12.34",
                                   str(2**63 - 1), str(2**63), "9" * 18, "9" * 19, str(2**64),
                                   "0" * 30 + "1", "\u00b2", "\uff11"])
@pytest.mark.parametrize("header", [WH_HEADER, KWH_HEADER])
def test_field_spellings_match_line_loop(header, field):
    for text in (f"{header}\na,1,1\na,2, {field} \n", f"{header}\na,1,1\na,{field},1\n"):
        assert outcome(load_readings, text) == outcome(reference_load, text)


def padded_csv(rng, n, t, kwh=False):
    """Lines of a valid shuffled n x t readings CSV with blank lines between some records."""
    records = [f"m{i} , {j} ,{v // 1000}.{v % 1000:03d}" if kwh else f"m{i},{j}, {v}"
               for i in range(n) for j in range(t)
               for v in [int(rng.integers(0, 5000))]]
    lines = [KWH_HEADER if kwh else WH_HEADER]
    for k in rng.permutation(len(records)):
        if rng.random() < 0.2:
            lines.append("  ")
        lines.append(records[k])
    return lines


def record_line(lines, k):
    """Index in lines of the k-th record line (0-based), skipping blank lines."""
    return [i for i, ln in enumerate(lines) if ln.strip()][k + 1]


@pytest.mark.parametrize("kwh", [False, True])
def test_blocks_report_the_lowest_line(monkeypatch, kwh):
    monkeypatch.setattr(ingest, "_BLOCK", 4)
    rng = np.random.default_rng(5)
    lines = padded_csv(rng, 5, 6, kwh)
    late, early = record_line(lines, 25), record_line(lines, 6)

    def check(broken, expected):
        text = "\n".join(broken) + "\n"
        got = outcome(load_readings, text)
        assert got == outcome(reference_load, text)
        assert got.startswith(expected)

    # the first error sits in a later block
    broken = lines.copy()
    broken[late] = "m0,1,-7"
    check(broken, f"ValueError: line {late + 1}: negative reading")
    # a duplicate in an earlier block than a format error
    broken[early] = broken[record_line(lines, 0)]
    check(broken, f"ValueError: line {early + 1}: duplicate reading")
    # a format error before a duplicate
    broken = lines.copy()
    broken[early] = "m0,x,1"
    broken[late] = broken[record_line(lines, 0)]
    check(broken, f"ValueError: line {early + 1}: invalid period 'x'")
    # two duplicates: the lower line is reported
    broken = lines.copy()
    broken[late] = broken[record_line(lines, 1)]
    broken[early] = broken[record_line(lines, 0)]
    check(broken, f"ValueError: line {early + 1}: duplicate reading")
    # a duplicate and a format error in one block
    monkeypatch.setattr(ingest, "_BLOCK", 8192)
    broken = lines.copy()
    broken[late] = "m0,1,1,1"
    broken[early] = broken[record_line(lines, 0)]
    check(broken, f"ValueError: line {early + 1}: duplicate reading")
    monkeypatch.setattr(ingest, "_BLOCK", 4)
    # every block valid, the matrix equal to the reference's
    text = "\n".join(lines)
    assert load_readings(text) == reference_load(text)


def test_parser_peak_memory_at_most_line_loop():
    rng = np.random.default_rng(8)
    values = rng.integers(0, 5000, size=(100, 1000))
    text = KWH_HEADER + "\n" + "".join(
        f"m{i + 1},{j + 1},{v // 1000}.{v % 1000:03d}\n"
        for i, row in enumerate(values.tolist()) for j, v in enumerate(row))
    peaks = []
    for parse in (load_readings, reference_load):
        tracemalloc.start()
        try:
            matrix = parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert matrix.readings == tuple(map(tuple, values.tolist()))
    assert peaks[0] <= peaks[1]


def test_sparse_file_reports_missing_cell_without_a_dense_table():
    # 3000 meters x 3000 periods named, one cell each filled: 9 * 10**6 cells
    text = WH_HEADER + "\n" + "".join(f"m{k},{k},{k}\n" for k in range(3000))
    tracemalloc.start()
    try:
        got = outcome(load_readings, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == outcome(reference_load, text)
    assert got == "ValueError: missing reading for meter 'm0', period 1"
    assert peak < 2**23  # a count per cell would take 72 MB

def test_wide_readings_stay_exact():
    wh = 1234567890123456789012345  # 25 digits, far past int64
    matrix = parse_readings_csv(f"meter_id,period,wh\na,1,{wh}\na,2,07\n")
    assert matrix.readings == ((wh, 7),)
    assert parse_readings_csv(write_readings_csv(matrix)) == matrix
    # 22 digits with the decimals, and a period id past int64
    matrix = parse_kwh_readings(f"meter_id,period,kwh\na,{10**20},1234567890123456789.012\n"
                                "a,1,.5\n")
    assert matrix.readings == ((500, 1234567890123456789012),)
    assert parse_readings_csv(write_readings_csv(matrix)) == matrix

def test_readings_csv_round_trip():
    matrix = ReadingMatrix.from_rows(demo.READINGS)
    assert parse_readings_csv(write_readings_csv(matrix)) == matrix


def test_select_full_submatrix_is_identity():
    matrix = ReadingMatrix.from_rows(demo.READINGS)
    assert select_submatrix(matrix, 3, 9, seed=123) == matrix


def test_select_submatrix_rows_and_window():
    rng = np.random.default_rng(9)
    rows = [[int(v) for v in rng.integers(0, 100, size=10)] for _ in range(5)]
    matrix = ReadingMatrix.from_rows(rows)
    sub = select_submatrix(matrix, 2, 3, seed=4)
    assert sub.n == 2 and sub.t == 3
    originals = [tuple(r) for r in rows]
    for row in sub.readings:
        # each row must be a consecutive slice of some original row
        assert any(
            row == orig[s : s + 3]
            for orig in originals
            for s in range(len(orig) - 2)
        )


def test_select_submatrix_deterministic():
    matrix = ReadingMatrix.from_rows(demo.READINGS)
    assert select_submatrix(matrix, 2, 4, seed=5) == select_submatrix(matrix, 2, 4, seed=5)


def test_select_submatrix_rejects_oversize():
    matrix = ReadingMatrix.from_rows(demo.READINGS)
    with pytest.raises(ValueError):
        select_submatrix(matrix, 4, 9, seed=0)
    with pytest.raises(ValueError):
        select_submatrix(matrix, 3, 10, seed=0)


def test_instance_format_and_round_trip():
    inst = demo.instance()
    text = write_instance(inst)
    lines = text.splitlines()
    assert lines[0] == "meters 3"
    assert lines[1] == "periods 9"
    assert lines[2] == "totals 991 473 926"
    assert lines[3] == "period 1 117 104 362"
    assert parse_instance(text) == inst


def test_instance_totals_arity_error():
    text = "meters 3\nperiods 1\ntotals 1 2\nperiod 1 1 1 1\n"
    with pytest.raises(ValueError, match="totals"):
        parse_instance(text)


def test_instance_period_arity_and_index_errors():
    with pytest.raises(ValueError, match="period"):
        parse_instance("meters 2\nperiods 1\ntotals 1 2\nperiod 1 1\n")
    with pytest.raises(ValueError, match="expected period 1"):
        parse_instance("meters 2\nperiods 1\ntotals 1 2\nperiod 2 1 2\n")
    with pytest.raises(ValueError, match="section"):
        parse_instance("m 2\nperiods 1\ntotals 1 2\nperiod 1 1 2\n")


def test_instance_errors_name_physical_lines():
    text = "meters 2\n\nperiods 2\n\ntotals 3 4\nperiod 1 1 x\nperiod 2 2 4\n"
    with pytest.raises(ValueError, match="^line 6: invalid reading 'x'$"):
        parse_instance(text)
    with pytest.raises(ValueError, match="^line 3: expected 'periods' section$"):
        parse_instance("meters 2\n  \nperiod 2\ntotals 3 4\n")


def test_instance_wrong_period_count():
    with pytest.raises(ValueError, match="period lines"):
        parse_instance("meters 1\nperiods 2\ntotals 5\nperiod 1 5\n")
