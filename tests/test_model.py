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
from anonmeter.stats import sample_reading_matrix


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
    (True, 1), (False, 0), (np.int64(7), 7), (np.uint8(255), 255),
    (2**63 - 1, 2**63 - 1),
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
    (2**63, "readings[0][1] must be below 2**63"),
    (np.uint64(2**63), "readings[0][1] must be below 2**63"),
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


def per_period_anonymize(gt, seed):
    """The shuffle as t successive rng.permutation(n) draws, placed one reading at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m = gt.matrix
    perms, periods = [], []
    for j in range(m.t):
        pos = tuple(int(x) for x in rng.permutation(m.n))
        vals = [0] * m.n
        for i in range(m.n):
            vals[pos[i]] = m.readings[i][j]
        perms.append(pos)
        periods.append(tuple(vals))
    inst = AnonymizedInstance(n=m.n, t=m.t, periods=tuple(periods), totals=gt.totals)
    return inst, PermutationRecord(perms=tuple(perms))


@pytest.mark.parametrize("n", [1, 2, 16, 32])
@pytest.mark.parametrize("t", [3, 15, 60])
def test_anonymize_draws_as_one_permutation_per_period(n, t):
    for seed in range(5):
        gt = build_ground_truth(sample_reading_matrix(n, t, 100.0, 300.0, seed=seed))
        assert anonymize(gt, seed=seed) == per_period_anonymize(gt, seed)


def test_anonymize_places_the_largest_readings_exactly():
    top = 2**63 - 1
    gt = build_ground_truth(ReadingMatrix.from_rows([[top - 6, 1, 5], [3, top - 3, 0]]))
    assert gt.totals == (top, top)
    inst, record = anonymize(gt, seed=7)
    assert (inst, record) == per_period_anonymize(gt, 7)
    assert recover_matrix(inst, record) == gt.matrix


def test_totals_are_below_2_63():
    with pytest.raises(ValueError, match=r"^meter 2's total must be below 2\*\*63 Wh$"):
        build_ground_truth(ReadingMatrix.from_rows([[1, 2], [2**63 - 6, 6]]))
    with pytest.raises(ValueError, match=r"^totals\[1\] must be below 2\*\*63$"):
        AnonymizedInstance(n=2, t=1, periods=((2**63 - 1, 1),), totals=(0, 2**63))
    with pytest.raises(ValueError, match=r"^periods\[0\]\[0\] must be below 2\*\*63$"):
        AnonymizedInstance(n=2, t=1, periods=((2**63, 0),), totals=(2**63 - 1, 1))
    inst = AnonymizedInstance(n=2, t=1, periods=((2**63 - 1, 0),), totals=(0, 2**63 - 1))
    assert inst.totals == (0, 2**63 - 1)


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


@pytest.mark.parametrize("perm, message", [
    ((0.9, 1.2), "perms[1][0] is not an integer: 0.9"),
    (("1", "0"), "perms[1][0] is not an integer: '1'"),
    ((1.0, 0), "perms[1][0] is not an integer: 1.0"),
    ((0, -1), "perms[1][1] is negative: -1"),
])
def test_permutation_record_refuses_non_integer_positions(perm, message):
    with pytest.raises(ValueError) as exc:
        PermutationRecord(perms=((1, 0), perm))
    assert str(exc.value) == message
    record = PermutationRecord(perms=((np.int64(1), False), [0, 1]))
    assert record.perms == ((1, 0), (0, 1))
    assert [type(x) for p in record.perms for x in p] == [int] * 4


@pytest.mark.parametrize("width", [2, 4])
def test_recover_matrix_refuses_permutations_of_another_width(width):
    inst, record = anonymize(build_ground_truth(ReadingMatrix.from_rows(demo.READINGS)), 0)
    assert inst.n == 3
    perms = list(record.perms)
    perms[1] = tuple(range(width))
    message = f"^record period 1 has {width} positions, instance has 3$"
    with pytest.raises(ValueError, match=message):
        recover_matrix(inst, PermutationRecord(perms=tuple(perms)))


# ---------------------------------------------------------------------------
# containers from int64 arrays
# ---------------------------------------------------------------------------

def outcome(make, cells):
    """make(cells), or the text of the ValueError it raises."""
    try:
        return make(cells)
    except ValueError as exc:
        return str(exc)


def containers(arr, form):
    """Every container built from one (n, t) matrix, its cells passed through form."""
    n, t = arr.shape
    sums = [sum(row) for row in arr.tolist()]
    totals = np.array(sums, dtype=np.int64 if max(sums) < 2**63 else object)
    perms = np.argsort(arr, axis=0, kind="stable").T  # per period, a permutation of 0..n-1
    matrix = ReadingMatrix(n=n, t=t, readings=form(arr))
    return (
        matrix,
        outcome(lambda c: GroundTruth(matrix=matrix, totals=c), form(totals)),
        outcome(lambda c: AnonymizedInstance(n=n, t=t, periods=c, totals=form(totals)),
                form(arr.T)),
        PermutationRecord(perms=form(perms)),
    )


def held(value):
    """Every value a container holds, flattened."""
    if isinstance(value, str):
        return []
    cells = [value.readings] if isinstance(value, ReadingMatrix) else []
    cells += [value.matrix.readings, [value.totals]] if isinstance(value, GroundTruth) else []
    cells += [value.periods, [value.totals]] if isinstance(value, AnonymizedInstance) else []
    cells += [value.perms] if isinstance(value, PermutationRecord) else []
    return [v for block in cells for row in block for v in row]


int64_cells = st.one_of(st.just(0), st.just(2**63 - 1), st.integers(0, 2**63 - 1),
                        st.integers(0, 1000))


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 6)), data=st.data())
def test_containers_from_int64_arrays_equal_those_from_their_lists(shape, data):
    # n = 1, t = 1, all zeros and 2**63 - 1 are all drawn; row sums past
    # 2**63 are refused alike on both paths
    cells = data.draw(st.lists(int64_cells, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    arr = np.array(cells, dtype=np.int64).reshape(shape)
    from_array = containers(arr, lambda a: a)
    assert from_array == containers(arr, lambda a: a.tolist())
    assert all(type(v) is int for c in from_array for v in held(c))


def test_zero_and_largest_cells_build_every_container():
    for arr in (np.zeros((1, 1), np.int64), np.zeros((3, 4), np.int64),
                np.array([[2**63 - 1]], np.int64), np.array([[2**63 - 1, 0]], np.int64)):
        built = containers(arr, lambda a: a)
        assert not any(isinstance(c, str) for c in built)
        assert built == containers(arr, lambda a: a.tolist())


def rows23(c):
    return ReadingMatrix(n=2, t=3, readings=c)


def periods32(c):
    return AnonymizedInstance(n=2, t=3, periods=c, totals=(3, 3))


def record(c):
    return PermutationRecord(perms=c)


def truth(c):
    return GroundTruth(matrix=ReadingMatrix.from_rows([[1, 2], [3, 4]]), totals=c)


GOOD = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)


@pytest.mark.parametrize("make, cells, message", [
    (rows23, np.array([[1, 2, 3], [4, 5, -6]]), "readings[1][2] is negative: -6"),
    (rows23, GOOD.astype(np.float64), "readings[0][0] is not an integer: 1.0"),
    (rows23, np.array([[1, 2, 3], [4, 2**63, 6]], dtype=np.uint64),
     "readings[1][1] must be below 2**63"),
    (lambda c: ReadingMatrix(n=1, t=3, readings=c), np.array([1, 2, 3]),
     "expected 1 meter rows, got 3"),
    (rows23, GOOD[:, :, None], "readings[0][0] is not an integer: [1]"),
    (rows23, np.array([[1, 2, 3], [4, 5]], dtype=object), "meter row 1 has 2 readings, expected 3"),
    (rows23, np.ones((3, 3), np.int64), "expected 2 meter rows, got 3"),
    (rows23, np.ones((2, 4), np.int64), "meter row 0 has 4 readings, expected 3"),
    (periods32, np.array([[1, 2], [0, -1], [1, 1]]), "periods[1][1] is negative: -1"),
    (periods32, np.full((3, 2), 0.5), "periods[0][0] is not an integer: 0.5"),
    (periods32, np.array([[1, 2], [2**63, 0], [1, 1]], dtype=np.uint64),
     "periods[1][0] must be below 2**63"),
    (periods32, np.ones((3, 3), np.int64), "period 0 has 3 values, expected 2"),
    (periods32, np.ones((2, 2), np.int64), "expected 3 period lists, got 2"),
    (periods32, np.ones((3, 2, 1), np.int64), "periods[0][0] is not an integer: [1]"),
    (record, np.array([[1, 0], [1, 1]]), "perms[1] is not a permutation of 0..1"),
    (record, np.array([[1, 0], [0, -1]]), "perms[1][1] is negative: -1"),
    (record, np.array([[1.0, 0.0]]), "perms[0][0] is not an integer: 1.0"),
    (record, np.array([[0, 2**63]], dtype=np.uint64), "perms[0][1] must be below 2**63"),
    (record, np.array([[1, 0], [0, 3, 1]], dtype=object), "perms[1] is not a permutation of 0..2"),
    (truth, np.array([3, -7]), "totals[1] is negative: -7"),
    (truth, np.array([3.0, 7.0]), "totals[0] is not an integer: 3.0"),
])
def test_bad_arrays_are_refused_as_their_lists_are(make, cells, message):
    assert outcome(make, cells) == outcome(make, cells.tolist()) == message


@pytest.mark.parametrize("make, cells", [
    (rows23, GOOD.astype(bool)),
    (rows23, GOOD.astype(np.uint64)),
    (rows23, GOOD.astype(np.uint8)),
    (periods32, np.array([[1, 2], [2, 1], [0, 0]], dtype=np.uint64)),
    (record, np.array([[True, False]])),
    (truth, np.array([3, 7], dtype=np.uint64)),
])
def test_odd_integer_dtypes_convert_as_their_lists_do(make, cells):
    built = make(cells)
    assert built == make(cells.tolist())
    assert all(type(v) is int for v in held(built))


@pytest.mark.parametrize("seed, periods, totals, perms", [
    (0, ((503, 235, 101), (820, 732, 31), (280, 508, 4), (1, 2, 392)), (138, 1907, 1564),
     ((2, 0, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0))),
    (1, ((72, 112, 239), (165, 8, 301), (528, 16, 420), (158, 232, 297)), (686, 963, 899),
     ((0, 1, 2), (2, 0, 1), (1, 0, 2), (2, 0, 1))),
    (7, ((98, 478, 107), (189, 228, 620), (149, 2, 108), (26, 98, 516)), (501, 1245, 873),
     ((0, 2, 1), (1, 2, 0), (0, 1, 2), (0, 2, 1))),
])
def test_anonymize_is_pinned_per_seed(seed, periods, totals, perms):
    gt = build_ground_truth(sample_reading_matrix(3, 4, 100.0, 300.0, seed=seed))
    inst, record_ = anonymize(gt, seed)
    assert (inst.periods, inst.totals, record_.perms) == (periods, totals, perms)
    assert all(type(v) is int for v in held(inst) + held(record_) + held(gt))
