"""DP counting against exhaustive oracles and the worked example."""

import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from anonmeter import demo, mcssp
from anonmeter.mcssp import (
    NoSolutionsError,
    ResourceGuard,
    ResourceLimitError,
    _dot,
    _primes,
    backward_counts,
    forward_counts,
    marginal_counts,
)
from anonmeter.model import AnonymizedInstance, ReadingMatrix, anonymize, build_ground_truth
from anonmeter.stats import sample_reading_matrix


def test_forward_demo_total_is_22():
    table = forward_counts(demo.instance(), 991)
    assert table.stages[0] == {0: 1}
    assert table.stages[-1].get(991) == 22
    assert table.total_solutions == 22


def test_backward_demo_total_is_22():
    table = backward_counts(demo.instance(), 991)
    assert table.stages[-1] == {0: 1}
    assert table.stages[0].get(991) == 22


def test_forward_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    inst, _ = oracles.random_anonymized(rng, n=4, t=7, vmax=60)
    table = forward_counts(inst, inst.totals[0])
    assert table.total_solutions == oracles.count_solutions(inst.periods, inst.totals[0])


def test_backward_total_equals_forward_total():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst, _ = oracles.random_anonymized(rng, n=int(rng.integers(1, 5)),
                                            t=int(rng.integers(1, 8)), vmax=80)
        target = inst.totals[0]
        assert backward_counts(inst, target).total_solutions == \
            forward_counts(inst, target).total_solutions


def test_no_zero_counts_and_keys_bounded():
    inst, _ = oracles.random_anonymized(np.random.default_rng(13), n=3, t=6, vmax=50)
    for table in (forward_counts(inst, inst.totals[0]), backward_counts(inst, inst.totals[0])):
        for stage in table.stages:
            for key, count in stage.items():
                assert count > 0
                assert 0 <= key <= table.target


def test_demo_marginals_match_tally():
    mc = marginal_counts(demo.instance(), 0)
    assert mc.total_solutions == 22
    assert mc.target_total == 991
    assert mc.counts == goldens.MARGINAL_COUNT_ROWS
    assert mc.counts[0] == (1, 0, 21)
    assert mc.counts[3] == (7, 8, 7)


def test_single_meter_marginals_are_all_one():
    inst = AnonymizedInstance(n=1, t=4, periods=((3,), (0,), (9,), (1,)), totals=(13,))
    mc = marginal_counts(inst, 0)
    assert mc.total_solutions == 1
    assert mc.counts == ((1,), (1,), (1,), (1,))


def test_marginals_match_oracle_on_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 8))
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=100)
        target = inst.totals[0]
        mc = marginal_counts(inst, 0)
        assert mc.total_solutions == oracles.count_solutions(inst.periods, target)
        assert mc.counts == oracles.marginal_grid(inst.periods, target)


def test_row_sums_equal_total_on_random_instances():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, 13))
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=40)
        mc = marginal_counts(inst, 0)
        for row in mc.counts:
            assert sum(row) == mc.total_solutions


def test_ground_truth_selection_always_counted():
    rng = np.random.default_rng(16)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 8))
        inst, record = oracles.random_anonymized(rng, n=n, t=t, vmax=60)
        mc = marginal_counts(inst, 0)
        assert mc.total_solutions >= 1
        for j in range(t):
            assert mc.counts[j][record.perms[j][0]] >= 1


def test_equal_values_get_equal_counts():
    inst = AnonymizedInstance(
        n=3, t=3,
        periods=((5, 5, 9), (1, 2, 1), (4, 4, 4)),
        totals=(10, 11, 14),
    )
    mc = marginal_counts(inst, 0)
    assert mc.counts[0] == (6, 6, 0)
    assert mc.counts[1] == (6, 0, 6)
    assert mc.counts[2] == (4, 4, 4)
    assert mc.total_solutions == 12


def test_infeasible_target_counts_zero_but_marginals_raise():
    inst = AnonymizedInstance(n=2, t=2, periods=((3, 4), (3, 4)), totals=(13, 1))
    assert forward_counts(inst, 13).total_solutions == 0
    with pytest.raises(NoSolutionsError):
        marginal_counts(inst, 0)


def test_forward_rejects_negative_target():
    with pytest.raises(ValueError):
        forward_counts(demo.instance(), -1)


def test_marginals_rejects_bad_meter_index():
    with pytest.raises(ValueError):
        marginal_counts(demo.instance(), 3)


def test_enumeration_count_agrees_with_dp():
    rng = np.random.default_rng(18)
    for _ in range(10):
        inst, _ = oracles.random_anonymized(rng, n=3, t=5, vmax=60)
        sels = oracles.all_selections(inst.periods, inst.totals[0])
        assert len(sels) == forward_counts(inst, inst.totals[0]).total_solutions


def test_guard_trips_on_tiny_entry_budget():
    guard = ResourceGuard(max_entries=3)
    with pytest.raises(ResourceLimitError):
        marginal_counts(demo.instance(), 0, guard=guard)


def test_guard_trips_on_expired_deadline():
    guard = ResourceGuard(deadline=0.0)  # monotonic clock is always past 0
    with pytest.raises(ResourceLimitError):
        marginal_counts(demo.instance(), 0, guard=guard)


def logged_solve(trip_at=None):
    """The demo's plan, and the log of a residue-table solve of it.

    The log holds each table allocation (with its width), each time check and
    the start of each sweep, in order; a check numbered trip_at raises.
    """
    log, plans = [], []

    class Guard(ResourceGuard):
        def check_time(self):
            log.append(("check",))
            if log.count(("check",)) == trip_at:
                raise ResourceLimitError("wall-clock budget exceeded")

    def plan(*args, plan=mcssp._plan):
        plans.append(plan(*args))
        return plans[-1]

    def table(width, primes, table=mcssp._table):
        log.append(("table", width))
        return table(width, primes)

    def sweep(table, tables, taps, primes, guard, transposed=False, sweep=mcssp._sweep):
        log.append(("sweep", "backward" if transposed else "forward"))
        yield from sweep(table, tables, taps, primes, guard, transposed)

    with mock.patch.object(mcssp, "_moduli", _primes), mock.patch.object(mcssp, "_plan", plan), \
            mock.patch.object(mcssp, "_table", table), mock.patch.object(mcssp, "_sweep", sweep):
        try:
            marginal_counts(demo.instance(), 0, guard=Guard())
        except ResourceLimitError:
            log.append(("raised",))
    return plans[0], log


def test_tables_and_time_checks_come_in_pass_order():
    # the backward pass allocates stages 0..t, stage 0's first, then checks
    # the clock once per period; the forward pass allocates stages 0..t-1 as
    # it goes, checking once per stage after stage 0, and never builds stage
    # t: 2t - 1 checks per solve
    plan, log = logged_solve()
    t, widths = demo.instance().t, [w for _, w in plan]
    assert len(widths) == t + 1 and widths != widths[::-1]
    expected = [
        *[("table", w) for w in widths], ("sweep", "backward"), *[("check",)] * t,
        ("table", widths[0]), ("sweep", "forward"),
        *[entry for w in widths[1:t] for entry in (("table", w), ("check",))],
    ]
    assert log == expected
    assert log.count(("check",)) == 2 * t - 1 == 17
    # a guard tripping on the first check past the backward pass's t raises
    # from the forward pass, which has built stage 1
    _, tripped = logged_solve(trip_at=t + 1)
    first_forward_check = [i for i, entry in enumerate(expected) if entry == ("check",)][t]
    assert expected[first_forward_check - 2 : first_forward_check] == [
        ("sweep", "forward"), ("table", widths[1])]
    assert tripped == expected[: first_forward_check + 1] + [("raised",)]


def test_guard_budgets_constructor():
    guard = ResourceGuard.from_budgets(4.0, 600.0)
    assert guard.max_entries == int(4.0 * 2**30 / 96)
    assert guard.deadline is not None


# ---------------------------------------------------------------------------
# differential tests against the exact-integer dict DP in oracles
# ---------------------------------------------------------------------------

def instance_with_target(periods, n, target):
    """An instance over these periods whose meter 0 totals target where totals allow it."""
    periods = tuple(map(tuple, periods))
    total = sum(map(sum, periods))
    first = target if n > 1 and target <= total else total
    totals = ((first, total - first) + (0,) * (n - 2))[:n]
    return AnonymizedInstance(n=n, t=len(periods), periods=periods, totals=totals)


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def small_primes(bound, n):
    """The fewest odd primes from 3 up whose product exceeds bound: counts wrap every one."""
    k = next(k for k in range(len(SMALL_PRIMES) + 1) if math.prod(SMALL_PRIMES[:k]) > bound)
    return SMALL_PRIMES[:k]


# every table representation the kernel can take: exact int64 counts where
# n**t fits, residues modulo the solver's primes, and residues modulo primes
# small enough that stage sums, dot products and the CRT wrap on every instance
REPRESENTATIONS = (mcssp._moduli, _primes, small_primes)


def assert_matches_dict_dp(inst, target):
    periods = inst.periods
    n_total, rows = oracles.dict_marginals(periods, target)
    for moduli in REPRESENTATIONS:
        with mock.patch.object(mcssp, "_moduli", moduli):
            fwd = forward_counts(inst, target)
            bwd = backward_counts(inst, target)
            assert list(fwd.stages) == oracles.dict_stages(periods, target)
            assert list(bwd.stages) == oracles.dict_stages(periods[::-1], target)[::-1]
            assert fwd.total_solutions == bwd.total_solutions == n_total
            if inst.totals[0] == target:
                if n_total == 0:
                    with pytest.raises(NoSolutionsError):
                        marginal_counts(inst, 0)
                else:
                    mc = marginal_counts(inst, 0)
                    assert (mc.total_solutions, mc.counts) == (n_total, rows)


def test_counts_spanning_several_primes_match_dict_dp():
    # n**t = 2**75 takes four residue primes; N past 48 bits needs three of them
    rng = np.random.default_rng(21)
    inst, _ = oracles.random_anonymized(rng, n=32, t=15, vmax=20)
    mc = marginal_counts(inst, 0)
    assert mc.total_solutions.bit_length() > 2 * 24
    assert (mc.total_solutions, mc.counts) == oracles.dict_marginals(inst.periods, inst.totals[0])


def test_target_above_2_15_matches_dict_dp():
    # readings in steps of 1000 Wh but one, so the gcd is 1: windows span
    # several 2**14-term dot-product chunks while sums still collide, so
    # counts pass one prime when held as residues
    small, _ = oracles.random_anonymized(np.random.default_rng(22), n=8, t=12, vmax=7)
    periods = [[1000 * v for v in p] for p in small.periods]
    periods[0][0] += 1
    target = 1000 * small.totals[0]
    assert target > 2**15
    inst = instance_with_target(periods, 8, target)
    assert_matches_dict_dp(inst, target)
    assert marginal_counts(inst, 0).total_solutions.bit_length() > 24


def test_coarse_readings_match_dict_dp_at_fine_cost():
    # readings in steps of 1000 Wh are counted in units of 1000 Wh: same
    # counts as the dict DP, same table bytes as the unscaled instance
    small, _ = oracles.random_anonymized(np.random.default_rng(24), n=8, t=12, vmax=7)
    inst = AnonymizedInstance(
        n=8, t=12,
        periods=tuple(tuple(1000 * v for v in p) for p in small.periods),
        totals=tuple(1000 * v for v in small.totals),
    )
    assert_matches_dict_dp(inst, inst.totals[0])
    fine, coarse = ResourceGuard(), ResourceGuard()
    marginal_counts(small, 0, guard=fine)
    marginal_counts(inst, 0, guard=coarse)
    assert coarse.entries == fine.entries
    # a target between two multiples of the step has no solution
    off_grid = inst.totals[0] + 500
    assert_matches_dict_dp(instance_with_target(inst.periods, 8, off_grid), off_grid)


def test_primes_are_prefixes_of_one_list():
    few, many = _primes(2**30), _primes(2**300)
    assert many[: len(few)] == few
    for bound, primes in ((2**30, few), (2**300, many)):
        assert math.prod(primes[:-1]) <= bound < math.prod(primes)
        assert all(p < 2**24 and all(p % d for d in range(2, 4097)) for p in primes)


@pytest.mark.parametrize("n", [1, 128, 129, 1000])
def test_primes_keep_int32_stage_sums_exact(n):
    t = 60
    primes = _primes(n**t, n)
    assert all(n * (p - 1) <= 2**31 - 1 for p in primes)
    assert math.prod(primes) > n**t
    if n <= 128:  # the limit only bites past 128 meters
        assert primes == _primes(n**t)


def test_primes_run_out_for_absurd_meter_counts():
    with pytest.raises(ValueError):
        _primes(2**100, 2**29)  # only the prime 3 lies below the limit


def test_many_meters_match_dict_dp():
    # 200 meters, about 67 copies of each reading: held as residues, stage
    # sums would pass int32 with primes near 2**24
    inst, _ = oracles.random_anonymized(np.random.default_rng(26), n=200, t=6, vmax=2)
    for moduli in REPRESENTATIONS:
        with mock.patch.object(mcssp, "_moduli", moduli):
            mc = marginal_counts(inst, 0)
        assert mc.total_solutions.bit_length() == 44
        assert (mc.total_solutions, mc.counts) == oracles.dict_marginals(
            inst.periods, inst.totals[0])


@pytest.mark.parametrize("n, t", [(2, 62), (2, 63), (2, 64), (8, 20), (8, 21)])
def test_count_bound_picks_exact_or_residue_tables(n, t):
    # all readings equal: every selection is a solution, so N = n**t and each
    # position is selected by n**(t - 1) of them; int64 holds every count up
    # to 2**63 - 1, and n**t = 2**63 takes the residue path
    inst = AnonymizedInstance(n=n, t=t, periods=((5,) * n,) * t, totals=(5 * t,) * n)
    primes, dtypes = [], set()

    def sweep(table, tables, taps, moduli, guard, transposed=False, sweep=mcssp._sweep):
        # one call per pass, the backward pass's first
        primes.append(moduli)
        for table in sweep(table, tables, taps, moduli, guard, transposed):
            dtypes.add((table.dtype, table.ndim))
            yield table

    with mock.patch.object(mcssp, "_sweep", sweep):
        mc = marginal_counts(inst, 0)
    assert mc.total_solutions == n**t
    assert mc.counts == ((n ** (t - 1),) * n,) * t
    assert len(primes) == 2 and primes[0] == primes[1]
    assert (primes[0] == ()) == (n**t < 2**63)
    # exact counts are one int64 row per stage, residues one int32 row per prime
    assert dtypes == ({(np.dtype(np.int64), 1)} if primes[0] == () else {(np.dtype(np.int32), 2)})


def test_chunked_dot_product_never_overflows():
    primes = [2**24 - 3, 2**24 - 5]  # the top residue, p - 1, in every term
    mods = np.array(primes, dtype=np.int64)
    width = 3 * 2**14 + 5
    worst = np.array([[p - 1] * width for p in primes], dtype=np.int64)
    expected = [(p - 1) ** 2 * width % p for p in primes]
    assert _dot(worst, worst, mods).tolist() == expected


readings = st.sampled_from([0, 0, 1, 2, 3, 7, 50, 900])


@st.composite
def period_grids(draw):
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1, 1, 10, 1000]))  # readings in coarser steps
    if draw(st.booleans()):  # every period holds the same values
        row = [scale * v for v in draw(st.lists(readings, min_size=n, max_size=n))]
        return [row] * t, n
    return [[scale * v for v in draw(st.lists(readings, min_size=n, max_size=n))]
            for _ in range(t)], n


@given(grid=period_grids(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_dict_dp_on_edge_cases(grid, data):
    periods, n = grid
    total = sum(map(sum, periods))
    sums = sorted({sum(sel) for sel in itertools.product(*periods)})
    target = data.draw(st.sampled_from([0, 1, 15, total, total + 1] + sums))
    assert_matches_dict_dp(instance_with_target(periods, n, target), target)


@st.composite
def permuted_instances(draw):
    """An instance with unequal period spreads, a target for meter 0 and a period permutation."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1, 10, 1000]))  # gcd > 1 for most draws at 10 and 1000
    caps = draw(st.lists(st.sampled_from([0, 1, 3, 50, 900]), min_size=t, max_size=t))
    periods = [[scale * draw(st.integers(0, cap)) for _ in range(n)] for cap in caps]
    sums = sorted({sum(sel) for sel in itertools.product(*periods)})
    step = math.gcd(*itertools.chain(*periods)) or 1
    # past the least selection sum by 1 Wh: on no multiple of a gcd above 1
    off_grid = step > 1 and draw(st.booleans())
    target = sums[0] + 1 if off_grid else draw(st.sampled_from(sums))
    return instance_with_target(periods, n, target), draw(st.permutations(range(t)))


@given(drawn=permuted_instances())
@settings(max_examples=300, deadline=None)
def test_marginals_do_not_depend_on_period_order(drawn):
    inst, perm = drawn
    permuted = AnonymizedInstance(
        n=inst.n, t=inst.t, periods=tuple(inst.periods[j] for j in perm), totals=inst.totals
    )
    n_total, rows = oracles.dict_marginals(inst.periods, inst.totals[0])
    if n_total == 0:
        for instance in (inst, permuted):
            with pytest.raises(NoSolutionsError):
                marginal_counts(instance, 0)
        return
    mc, mp = marginal_counts(inst, 0), marginal_counts(permuted, 0)
    assert (mc.total_solutions, mc.counts) == (n_total, rows)
    assert mp.total_solutions == n_total
    assert tuple(mp.counts[perm.index(j)] for j in range(inst.t)) == rows


@given(grid=period_grids(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_backward_windows_are_the_forward_plan(grid, data):
    # both passes walk the one tap plan, the backward pass over exactly the
    # forward plan's windows; on the readings' gcd grid and in reach, those
    # windows mirrored about the target are the ones a plan of the reversed
    # periods lays out, so the live peak charged from the one plan is that of
    # both passes; any other target has no solution
    periods, n = grid
    step = math.gcd(*itertools.chain(*periods)) or 1
    lo, hi = sum(map(min, periods)), sum(map(max, periods))
    inst = instance_with_target(periods, n, data.draw(st.integers(max(lo - step, 0), hi + step)))
    target = inst.totals[0]
    planned, calls = [], []

    def tapped(values, plan, step, taps=mcssp._taps):
        planned.append((values, plan, taps(values, plan, step)))
        return planned[-1][2]

    def sweep(table, tables, period_taps, primes, guard, transposed=False, sweep=mcssp._sweep):
        widths = []  # of the tables the pass yields, in its own order
        calls.append((period_taps, transposed, widths))
        for table in sweep(table, tables, period_taps, primes, guard, transposed):
            widths.append(table.shape[-1])
            yield table

    with mock.patch.object(mcssp, "_taps", tapped), mock.patch.object(mcssp, "_sweep", sweep):
        try:
            marginal_counts(inst, 0)
        except NoSolutionsError:
            assert len(calls) == 1  # refused after the backward pass alone
            assert target not in {sum(sel) for sel in itertools.product(*periods)}
        else:
            assert len(calls) == 2
    values, plan, taps = planned[0]
    assert len(planned) == 1
    # the backward pass first, transposed over every stage of the plan from
    # stage t, then the forward pass over stages 0..t-1, both on its taps
    widths = [w for _, w in plan]
    assert [c[1] for c in calls] == [True, False][: len(calls)]
    backward_taps, _, backward_widths = calls[0]
    assert len(backward_taps) == len(taps) and all(map(operator.is_, backward_taps[::-1], taps))
    assert backward_widths[::-1] == widths
    if len(calls) == 2:
        forward_taps, _, forward_widths = calls[1]
        assert forward_taps is taps and forward_widths == widths[:-1]
    if target % step or not lo <= target <= hi:
        assert len(calls) == 1
    else:
        bounds = mcssp._units(inst.periods, target)[1]
        back = mcssp._plan([(min(v) // step, max(v) // step) for v in values[::-1]], bounds)
        assert [(bounds[1] - first - w + 1, w) for first, w in back[::-1]] == plan


def reachable_sums(periods):
    sums = {0}
    for vals in periods:
        sums = {s + v for s in sums for v in set(vals)}
    return sorted(sums)


@st.composite
def long_grids(draw):
    """Two meters over 64 periods cycling through a few readings: n**t = 2**64 takes residues."""
    scale = draw(st.sampled_from([1, 10]))
    rows = draw(st.lists(st.lists(st.sampled_from([0, 1, 1, 3, 7]), min_size=2, max_size=2),
                         min_size=1, max_size=3))
    return [[scale * v for v in rows[k % len(rows)]] for k in range(64)], 2


@given(grid=st.one_of(period_grids(), long_grids()), data=st.data())
@settings(max_examples=200, deadline=None)
def test_backward_stages_match_dict_dp(grid, data):
    # backward stage j at partial sum s counts the selections over periods
    # j..t-1 that take s to the target: the dict DP over the reversed periods
    # at target - s, column by column, in every table representation
    periods, n = grid
    total = sum(map(sum, periods))
    target = data.draw(st.sampled_from([0, 1, 15, total, total + 1] + reachable_sums(periods)))
    bwd = oracles.dict_stages(periods[::-1], target)[::-1]
    step, bounds, values, ranges = mcssp._units(periods, target)
    plan = mcssp._plan(ranges, bounds)
    taps = mcssp._taps(values, plan, step)
    for moduli in REPRESENTATIONS:
        primes = moduli(n ** len(periods), n)
        # the transposed sweep from stage t's ones, over the forward windows
        start = mcssp._table(plan[-1][1], primes)
        start += 1
        tables = (mcssp._table(w, primes) for _, w in plan[-2::-1])
        sweep = mcssp._sweep(start, tables, taps[::-1], primes, ResourceGuard(), transposed=True)
        stages = list(sweep)[::-1]
        assert len(stages) == len(periods) + 1
        for j, ((lo, width), table) in enumerate(zip(plan, stages)):
            assert mcssp._crt(table.T, primes) == [
                bwd[j].get(target - step * (lo + i), 0) for i in range(width)]


def c11_instance():
    matrix = sample_reading_matrix(32, 60, 100.0, 100.0, seed=0)
    return anonymize(build_ground_truth(matrix), seed=1)[0]


def test_c11_window_work_is_pinned(monkeypatch):
    # one plan of 241,556 columns over stages 0..t serves both passes, with
    # 13 primes: a change to the period order, the window bounds or the table
    # representation moves them, the live peak charged from them and the
    # elements the passes add and multiply, without any timing
    plans, taps = [], []

    def recorded(*args, plan=mcssp._plan):
        plans.append(plan(*args))
        return plans[-1]

    def tapped(*args, tap=mcssp._taps):
        taps.append(tap(*args))
        return taps[-1]

    elements = {"slice-add": 0, "dot": 0}

    def walk(table, tables, period_taps, primes, guard, transposed=False, sweep=mcssp._sweep):
        # each pass adds one slice per tap, over every row of its tables; the
        # backward pass walks the plan's period taps last period first
        assert period_taps == (taps[-1][::-1] if transposed else taps[-1])
        elements["slice-add"] += len(primes) * sum(
            b - a for period in period_taps for *_, a, b in period)
        return sweep(table, tables, period_taps, primes, guard, transposed)

    def dot(a, b, mods, dot=mcssp._dot):
        elements["dot"] += a.size
        return dot(a, b, mods)

    monkeypatch.setattr(mcssp, "_plan", recorded)
    monkeypatch.setattr(mcssp, "_taps", tapped)
    monkeypatch.setattr(mcssp, "_sweep", walk)
    monkeypatch.setattr(mcssp, "_dot", dot)
    guard = ResourceGuard()
    marginal_counts(c11_instance(), 0, guard=guard)
    assert [sum(width for _, width in p) for p in plans] == [241_556]
    assert len(taps) == 1
    assert len(_primes(32**60, 32)) == 13
    assert guard.entries == 150_223
    # both passes' slice-adds, and the taps' dot products, over 13 rows
    assert elements == {"slice-add": 180_069_994, "dot": 90_034_997}


def test_over_budget_solve_is_refused_before_any_table():
    # one entry short of the c11 live peak, the solve is refused from its plan
    # alone: its traced peak (89,444 bytes measured) stays under half of the
    # widest c11 stage table, 5,963 columns x 13 primes x 4 bytes
    inst = c11_instance()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="live peak"):
            marginal_counts(inst, 0, guard=ResourceGuard(max_entries=150_222))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_963 * 13 * 4 // 2


def assert_charge_bounds_traced_peak(n, t):
    rng = np.random.default_rng(23)
    rows = rng.exponential(100.0, size=(n, t)).round().astype(int).tolist()
    inst, _ = anonymize(build_ground_truth(ReadingMatrix.from_rows(rows)), seed=23)
    guard = ResourceGuard()
    tracemalloc.start()
    try:
        marginal_counts(inst, 0, guard=guard)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < peak <= guard.entries * 96 <= 1.25 * peak


def test_guard_estimate_bounds_traced_peak():
    # residue tables: the live-peak charge bounds the traced peak from both
    # sides (1.05x measured)
    assert_charge_bounds_traced_peak(32, 30)


def test_guard_estimate_bounds_traced_peak_of_exact_counts():
    # 4**30 = 2**60: exact int64 tables, charged without copies (1.02x measured)
    assert mcssp._moduli(4**30, 4) == ()
    assert_charge_bounds_traced_peak(4, 30)
