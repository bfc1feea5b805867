"""CSV parsing, kWh conversion exactness, selection and instance round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonmeter import demo
from anonmeter.ingest import (
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
