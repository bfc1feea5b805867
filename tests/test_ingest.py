"""CSV parsing, kWh conversion exactness, selection and instance round trips."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_kwh, parse_wh, readings_loop

from anonmeter import demo, ingest
from anonmeter.ingest import (
    KWH_HEADER,
    WH_HEADER,
    load_readings,
    parse_instance,
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
    matrix = load_readings(demo_csv())
    assert matrix.n == 3 and matrix.t == 9
    assert matrix.row_sums() == (991, 473, 926)
    assert matrix.readings == demo.READINGS


def test_meters_ordered_by_first_appearance_periods_sorted():
    text = "meter_id,period,wh\nb,2,20\nb,1,10\na,1,1\na,2,2\n"
    matrix = load_readings(text)
    assert matrix.readings == ((10, 20), (1, 2))


def test_single_record_file():
    matrix = load_readings("meter_id,period,wh\nx,5,42\n")
    assert matrix.n == 1 and matrix.t == 1
    assert matrix.readings == ((42,),)


def test_duplicate_cell_error_names_the_cell():
    text = "meter_id,period,wh\na,1,5\na,1,6\n"
    with pytest.raises(ValueError, match=r"line 3.*duplicate.*'a'.*1"):
        load_readings(text)


def test_missing_cell_rejected():
    text = "meter_id,period,wh\na,1,5\na,2,6\nb,1,7\n"
    with pytest.raises(ValueError, match="missing reading"):
        load_readings(text)


def test_malformed_line_reports_line_number():
    text = "meter_id,period,wh\na,1,5\na,2\n"
    with pytest.raises(ValueError, match="line 3"):
        load_readings(text)


def test_negative_and_bad_values_rejected():
    with pytest.raises(ValueError, match="negative"):
        load_readings("meter_id,period,wh\na,1,-5\n")
    with pytest.raises(ValueError, match="invalid"):
        load_readings("meter_id,period,wh\na,1,5.5\n")
    with pytest.raises(ValueError, match="header"):
        load_readings("meter,period,wh\na,1,5\n")


def test_kwh_conversion_examples():
    assert load_readings("meter_id,period,kwh\na,1,0.362\n").readings == ((362,),)
    assert load_readings("meter_id,period,kwh\na,1,0.000\n").readings == ((0,),)
    assert load_readings("meter_id,period,kwh\na,1,2\n").readings == ((2000,),)
    assert load_readings("meter_id,period,kwh\na,1,1.5\n").readings == ((1500,),)


def test_kwh_too_many_decimals():
    with pytest.raises(ValueError, match="three decimals"):
        load_readings("meter_id,period,kwh\na,1,1.2345\n")


def test_kwh_malformed_values():
    for bad in ("1.", ".", "1e3", "-0.5", "abc"):
        with pytest.raises(ValueError):
            load_readings(f"meter_id,period,kwh\na,1,{bad}\n")


@settings(max_examples=200, deadline=None)
@given(
    whole=st.integers(min_value=0, max_value=10**5),
    frac=st.text(alphabet="0123456789", min_size=0, max_size=3),
)
def test_kwh_conversion_exact_for_any_3_decimal_string(whole, frac):
    from decimal import Decimal

    text = f"{whole}.{frac}" if frac else str(whole)
    expected = int(Decimal(text) * 1000)  # exact decimal arithmetic oracle
    matrix = load_readings(f"meter_id,period,kwh\na,1,{text}\n")
    assert matrix.readings[0][0] == expected


def test_load_readings_dispatches_on_header():
    assert load_readings("meter_id,period,wh\na,1,5\n").readings == ((5,),)
    assert load_readings("meter_id,period,kwh\na,1,0.005\n").readings == ((5,),)



def reference_load(text):
    """load_readings by the per-line reference loop, dispatching on the whole first line."""
    lines = text.splitlines()
    if lines and lines[0].strip() == KWH_HEADER:
        return readings_loop(text, KWH_HEADER, parse_kwh)
    return readings_loop(text, WH_HEADER, parse_wh)


def outcome(parse, text):
    """The parsed matrix, or the text of the ValueError the parse raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


# "\u00fc" has the UTF-8 length of "\u00e9"; a lone surrogate only passes as surrogatepass
METER_IDS = ["m1", "m2", "x", "0", "\u00e9", "\u00fc", "\ud800", "\u96fb\u8868", "a\u00a0b"]
PADS = ["", " ", "\t", "\xa0", " \t\xa0", "\u3000", "\x1f"]
BLANKS = ["", "  ", "\t", "\xa0"]
BAD_VALUES = ["5.", ".", "1.2345", "-1", "1_0", "\u0661", "1e3", "", "+1", "1.2.3", "1 2", "0x1"]
BAD_PERIODS = ["-1", "1.0", "x", "", "\u0661", "1e3", "+1"]
MUTATIONS = ["drop", "duplicate", "bad_value", "bad_period", "empty_meter", "two_fields",
             "four_fields"]


def zeros(draw):
    # 20 zeros put a value of any size past 19 digits
    return "0" * draw(st.sampled_from([0, 1, 2, 20]))


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
    # values and period ids up to 2**63 - 1, or past it as well
    top = draw(st.sampled_from([2**63 - 1, 2**63, 10**25]))
    periods = draw(st.lists(st.one_of(st.integers(0, 10**4), st.integers(2**63 - 3, top)),
                            min_size=1, max_size=3, unique=True))
    records = []
    for mid in meters:
        for pid in periods:
            wh = draw(st.one_of(st.integers(0, 3000), st.integers(2**63 - 3000, top)))
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
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None)
@given(text=readings_csvs(), chunk=st.sampled_from([1, 2, 3, 7, 40, ingest._CHUNK]))
def test_parser_matches_line_loop(text, chunk):
    with mock.patch.object(ingest, "_CHUNK", chunk):
        assert outcome(load_readings, text) == outcome(reference_load, text)


@pytest.mark.parametrize("chunk", [7, 40, ingest._CHUNK])
def test_record_order_and_meter_spellings_give_one_matrix(monkeypatch, chunk):
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    ids = ["m1", "m2", "\u00e9", "\u00fc"]  # the last two: UTF-8 fields of equal length
    values = np.random.default_rng(3).integers(0, 5000, size=(len(ids), 6)).tolist()
    grouped = [(i, j, ids[i]) for i in range(len(ids)) for j in range(6)]
    interleaved = [(i, j, ids[i]) for j in range(6) for i in range(len(ids))]
    # one id in two raw spellings in turn, so no two records in a row share their bytes
    respelled = [(i, j, f" {mid}" if j % 2 else f"{mid} ") for i, j, mid in grouped]
    for records in (grouped, interleaved, respelled):
        text = WH_HEADER + "\n" + "".join(f"{mid},{j + 1},{values[i][j]}\n"
                                          for i, j, mid in records)
        assert load_readings(text) == reference_load(text) == ReadingMatrix.from_rows(values)


@given(text=st.text(alphabet="a,\n\r\x0b\x0c\x1c\x85\u2028"),
       chunk=st.sampled_from([1, 2, 3, 7, 40]))
def test_chunks_hold_exactly_the_lines_of_the_text(text, chunk):
    with mock.patch.object(ingest, "_CHUNK", chunk):
        assert [ln for lines in ingest._chunks(text) for ln in lines] == text.splitlines()


@pytest.mark.parametrize("field", [*BAD_VALUES, "007", ".5", "0.5", "00.250", "1.000", "12.34",
                                   str(2**63 - 1), str(2**63), "9" * 18, "9" * 19, str(2**64),
                                   "0" * 30 + "1", "\u00b2", "\uff11", ".1234", "0.0000",
                                   "1.2345x", "-.5", "-", "1..2", "\u0661.5", "1.\u0662"])
@pytest.mark.parametrize("header", [WH_HEADER, KWH_HEADER])
def test_field_spellings_match_line_loop(header, field):
    for text in (f"{header}\na,1,1\na,2, {field} \n", f"{header}\na,1,1\na,{field},1\n"):
        assert outcome(load_readings, text) == outcome(reference_load, text)


def test_refused_fields_are_worded_without_converting_them():
    huge = "1" * 5000  # more digits than int() converts by default
    assert outcome(load_readings, f"{KWH_HEADER}\na,1,1.{huge}\n") == (
        f"ValueError: line 2: more than three decimals in kWh reading '1.{huge[:30]}'"
        "... (5002 characters)")
    assert outcome(load_readings, f"{WH_HEADER}\na,{huge},x\nb,y,1\n") == (
        "ValueError: line 2: invalid Wh reading 'x'")


def test_quoted_cuts_only_text_past_64_characters():
    assert ingest.quoted("a'b") == repr("a'b")
    assert ingest.quoted("x" * 64) == repr("x" * 64)
    assert ingest.quoted("x" * 65) == f"{'x' * 32!r}... (65 characters)"


@pytest.mark.parametrize("chunk", [1, 8192])
def test_fields_past_the_digit_bound_are_refused_on_their_line(monkeypatch, chunk):
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    huge = "1" * 5000  # more digits than int() converts by default
    # an earlier line's error is not hidden by a later line's long field
    assert outcome(load_readings, f"{WH_HEADER}\na,1,x\nb,{huge},1\n") == (
        "ValueError: line 2: invalid Wh reading 'x'")
    assert outcome(load_readings, f"{WH_HEADER}\na,1,5\nb,{huge},1\nc,x,1\n") == (
        "ValueError: line 3: period must be below 2**63")
    assert outcome(load_readings, f"{WH_HEADER}\na,1,5\nb,1,{huge}\n") == (
        "ValueError: line 3: reading must be below 2**63 Wh")
    # a line's grammar comes before the bound, and its period's bound before its reading's
    assert outcome(load_readings, f"{WH_HEADER}\na,{huge},x\n") == (
        "ValueError: line 2: invalid Wh reading 'x'")
    assert outcome(load_readings, f"{KWH_HEADER}\na,{huge},{huge}\n") == (
        "ValueError: line 2: period must be below 2**63")


@pytest.mark.parametrize("chunk", [1, 8192])
def test_csv_values_and_period_ids_are_below_2_63(monkeypatch, chunk):
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    top = 2**63 - 1
    for header, value in ((WH_HEADER, str(top)), (KWH_HEADER, "9223372036854775.807")):
        # leading zeros are free, in a period id and in a value
        text = f"{header}\na,{'0' * 30}{top},{'0' * 30}{value}\na,1,{'0' * 30}1\n"
        matrix = load_readings(text)
        assert matrix.readings == ((10**3 if header == KWH_HEADER else 1, top),)
        assert load_readings(write_readings_csv(matrix)) == matrix
    for header, value in ((WH_HEADER, str(top + 1)), (KWH_HEADER, "9223372036854775.808"),
                          (KWH_HEADER, "9223372036854776")):
        assert outcome(load_readings, f"{header}\na,1,2\nb,1,{value}\n") == (
            "ValueError: line 3: reading must be below 2**63 Wh")
    assert outcome(load_readings, f"{WH_HEADER}\na,1,2\na,{top + 1},3\n") == (
        "ValueError: line 3: period must be below 2**63")
    # the largest period id prints whole
    assert outcome(load_readings, f"{WH_HEADER}\na,{top},5\na,0{top},6\n") == (
        f"ValueError: line 3: duplicate reading for meter 'a', period {top}")
    assert outcome(load_readings, f"{WH_HEADER}\na,1,5\na,{top},6\nb,1,7\n") == (
        f"ValueError: missing reading for meter 'b', period {top}")


def test_instance_fields_past_the_digit_bound_name_their_line():
    huge = "1" * 5000
    with pytest.raises(ValueError, match=r"^line 3: total must be below 2\*\*63$"):
        parse_instance(f"meters 1\nperiods 1\ntotals {huge}\nperiod 1 5\n")
    with pytest.raises(ValueError, match=r"^line 5: reading must be below 2\*\*63$"):
        parse_instance(f"meters 1\nperiods 1\ntotals 5\n\nperiod 1 {huge}\n")
    with pytest.raises(ValueError, match=r"^line 4: period index must be below 2\*\*63$"):
        parse_instance(f"meters 1\nperiods 1\ntotals 5\nperiod {huge} 5\n")


def test_instance_values_and_period_indices_are_below_2_63():
    top = 2**63 - 1
    inst = parse_instance(f"meters 2\nperiods 1\ntotals {top} {'0' * 30}0\nperiod 1 0 {top}\n")
    assert inst.totals == (top, 0) and inst.periods == ((0, top),)
    for text, line, what in (
            (f"meters 1\nperiods 1\ntotals {top + 1}\nperiod 1 5\n", 3, "total"),
            (f"meters 1\nperiods 1\ntotals 5\nperiod 1 {top + 1}\n", 4, "reading"),
            (f"meters 1\nperiods 1\ntotals 5\nperiod {top + 1} 5\n", 4, "period index"),
            (f"meters 1\nperiods {top + 1}\ntotals 5\nperiod 1 5\n", 2, "period count")):
        with pytest.raises(ValueError, match=rf"^line {line}: {what} must be below 2\*\*63$"):
            parse_instance(text)
    # a period index in range but out of order prints whole
    with pytest.raises(ValueError, match=rf"^line 4: expected period 1, got {top}$"):
        parse_instance(f"meters 1\nperiods 1\ntotals 5\nperiod {'0' * 30}{top} 5\n")


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
    monkeypatch.setattr(ingest, "_CHUNK", 40)
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
    monkeypatch.setattr(ingest, "_CHUNK", 8192)
    broken = lines.copy()
    broken[late] = "m0,1,1,1"
    broken[early] = broken[record_line(lines, 0)]
    check(broken, f"ValueError: line {early + 1}: duplicate reading")
    monkeypatch.setattr(ingest, "_CHUNK", 40)
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
    for parse, data in ((load_readings, text), (reference_load, text),
                        (load_readings, text.replace("\n", "\r"))):
        tracemalloc.start()
        try:
            matrix = parse(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert matrix.readings == tuple(map(tuple, values.tolist()))
    assert peaks[0] <= peaks[1]
    # the text's list of lines alone takes 6.66 MiB, whatever its line breaks
    assert max(peaks[0], peaks[2]) < 8 * 2**20


def test_parser_peak_memory_on_the_benchmark_file():
    # 100 meters x 1000 periods of Exp(100 Wh) in kWh, as perfbench's ingest file:
    # the peak is the record columns, 4.6 MiB (6.2 MiB with np.unique's return_inverse)
    rng = np.random.default_rng(0)
    values = np.floor(rng.exponential(100.0, size=(100, 1000)) + 0.5).astype(np.int64)
    text = KWH_HEADER + "\n" + "".join(
        f"m{i + 1},{j + 1},{v // 1000}.{v % 1000:03d}\n"
        for i, row in enumerate(values.tolist()) for j, v in enumerate(row))
    load_readings(text[:1000].rsplit("\n", 1)[0])  # imports the byte parser untraced
    tracemalloc.start()
    try:
        matrix = load_readings(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.readings == tuple(map(tuple, values.tolist()))
    assert peak < 5.5 * 2**20


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


def test_readings_csv_round_trip():
    matrix = ReadingMatrix.from_rows(demo.READINGS)
    assert load_readings(write_readings_csv(matrix)) == matrix


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
