"""Ground truth, anonymization and round-trip behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonmeter import demo
from anonmeter.model import (
    AnonymizedInstance,
    GroundTruth,
    PermutationRecord,
    ReadingMatrix,
    anonymize,
    build_ground_truth,
    recover_matrix,
)


def test_demo_totals():
    gt = demo.ground_truth()
    assert gt.totals == (991, 473, 926)


def test_single_cell_matrix():
    gt = build_ground_truth(ReadingMatrix.from_rows([[5]]))
    assert gt.totals == (5,)


def test_random_matrix_totals_match_direct_summation():
    rng = np.random.default_rng(123)
    rows = [[int(v) for v in rng.integers(0, 1000, size=6)] for _ in range(4)]
    gt = build_ground_truth(ReadingMatrix.from_rows(rows))
    # oracle: plain per-row summation, independent of row_sums
    expected = tuple(sum(row) for row in rows)
    assert gt.totals == expected


def test_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        ReadingMatrix(n=2, t=2, readings=((1, 2),))  # missing row
    with pytest.raises(ValueError):
        ReadingMatrix(n=1, t=3, readings=((1, 2),))  # short row
    with pytest.raises(ValueError):
        ReadingMatrix.from_rows([[1, -2]])  # negative
    with pytest.raises(ValueError):
        ReadingMatrix.from_rows([[1, 2.5]])  # non-integer


@pytest.mark.parametrize("value, expected", [
    (True, 1), (False, 0), (np.int64(7), 7), (np.uint8(255), 255), (2**70, 2**70),
])
def test_integer_like_readings_become_plain_ints(value, expected):
    m = ReadingMatrix.from_rows([[3, value]])
    assert m.readings == ((3, expected),)
    assert [type(v) for v in m.readings[0]] == [int, int]


@pytest.mark.parametrize("value, message", [
    (-2, "readings[0][1] is negative: -2"),
    (np.int64(-2), "readings[0][1] is negative: -2"),
    (2.5, "readings[0][1] is not an integer: 2.5"),
    (2.0, "readings[0][1] is not an integer: 2.0"),
    ("3", "readings[0][1] is not an integer: '3'"),
])
def test_bad_readings_name_their_cell(value, message):
    with pytest.raises(ValueError) as exc:
        ReadingMatrix.from_rows([[3, value]])
    assert str(exc.value) == message


def test_ground_truth_rejects_wrong_totals():
    m = ReadingMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        GroundTruth(matrix=m, totals=(3, 8))


def test_anonymize_single_meter_is_identity():
    gt = build_ground_truth(ReadingMatrix.from_rows([[7, 0, 3]]))
    inst, record = anonymize(gt, seed=99)
    assert inst.periods == ((7,), (0,), (3,))
    assert record.perms == ((0,), (0,), (0,))


def test_anonymize_demo_preserves_period_multisets():
    inst, _ = anonymize(demo.ground_truth(), seed=5)
    matrix = demo.ground_truth().matrix
    for j in range(matrix.t):
        assert sorted(inst.periods[j]) == sorted(matrix.column(j))
    assert inst.totals == (991, 473, 926)


def test_anonymize_deterministic_per_seed():
    gt = demo.ground_truth()
    a1, r1 = anonymize(gt, seed=21)
    a2, r2 = anonymize(gt, seed=21)
    assert a1 == a2 and r1 == r2
    a3, _ = anonymize(gt, seed=22)
    assert a3 != a1  # 3 meters x 9 periods: same shuffle astronomically unlikely


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rs: len({len(r) for r in rs}) == 1),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_recovers_matrix(rows, seed):
    gt = build_ground_truth(ReadingMatrix.from_rows(rows))
    inst, record = anonymize(gt, seed=seed)
    assert recover_matrix(inst, record) == gt.matrix
    assert sum(inst.totals) == sum(v for p in inst.periods for v in p)


def test_instance_rejects_conservation_violation():
    with pytest.raises(ValueError):
        AnonymizedInstance(n=2, t=1, periods=((1, 2),), totals=(1, 1))


def test_instance_rejects_wrong_arity():
    with pytest.raises(ValueError):
        AnonymizedInstance(n=2, t=1, periods=((1, 2, 3),), totals=(3, 3))


def test_instances_need_a_period_and_a_meter():
    with pytest.raises(ValueError, match="^period count must be positive, got 0$"):
        AnonymizedInstance(n=2, t=0, periods=(), totals=(0, 0))
    with pytest.raises(ValueError, match="^meter count must be positive, got 0$"):
        AnonymizedInstance(n=0, t=1, periods=((),), totals=())


def test_permutation_record_rejects_non_bijection():
    with pytest.raises(ValueError):
        PermutationRecord(perms=((0, 0),))
