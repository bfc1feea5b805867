"""Joint permutation solver against brute force, the recursive reference and the worked example."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from anonmeter import demo, joint
from anonmeter.joint import agreed_assignments, solve_joint
from anonmeter.model import AnonymizedInstance


def value_grids(sols):
    return {sols.value_grid(s) for s in range(len(sols.solutions))}


def test_demo_has_exactly_three_solutions():
    sols = solve_joint(demo.instance())
    assert sols.exhausted
    assert len(sols.solutions) == 3
    assert sols.raw_count == 3  # no within-period duplicates in the demo
    assert value_grids(sols) == goldens.JOINT_VALUE_GRIDS


def test_single_meter_has_single_identity_solution():
    inst = AnonymizedInstance(n=1, t=3, periods=((2,), (0,), (5,)), totals=(7,))
    sols = solve_joint(inst)
    assert sols.exhausted
    assert sols.solutions == (((0,), (0,), (0,)),)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        t = int(rng.integers(1, 5))
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=30)
        sols = solve_joint(inst)
        assert sols.exhausted
        assert value_grids(sols) == oracles.joint_value_grids(inst.periods, inst.totals)


def test_every_solution_satisfies_all_totals():
    sols = solve_joint(demo.instance())
    for grid in value_grids(sols):
        for i, row in enumerate(grid):
            assert sum(row) == demo.TOTALS[i]


def test_recorded_assignment_appears_among_solutions():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 5))
        inst, record = oracles.random_anonymized(rng, n=n, t=t, vmax=40)
        truth = tuple(
            tuple(inst.periods[j][record.perms[j][i]] for j in range(t))
            for i in range(n)
        )
        sols = solve_joint(inst)
        assert sols.exhausted
        assert truth in value_grids(sols)


def test_projection_into_relaxed_solutions():
    rng = np.random.default_rng(33)
    for _ in range(15):
        inst, _ = oracles.random_anonymized(rng, n=3, t=4, vmax=40)
        sols = solve_joint(inst)
        relaxed = set(oracles.all_selections(inst.periods, inst.totals[0]))
        for sol in sols.solutions:
            meter1_selection = tuple(sol[j][0] for j in range(inst.t))
            assert meter1_selection in relaxed


def test_work_cap_flags_partial_results():
    sols = solve_joint(demo.instance(), work_limit=10)
    assert not sols.exhausted
    assert sols.expansions > 10
    with pytest.raises(ValueError):
        agreed_assignments(sols)


def test_work_limit_must_be_positive():
    with pytest.raises(ValueError):
        solve_joint(demo.instance(), work_limit=0)


def test_demo_agreement_matches_deduced_values():
    agreed = agreed_assignments(solve_joint(demo.instance()))
    by_meter = {}
    for a in agreed:
        by_meter.setdefault(a.meter, {})[a.period] = a.value
    assert by_meter == goldens.AGREED_BY_METER


def test_singleton_solution_agrees_everywhere():
    inst = AnonymizedInstance(n=1, t=2, periods=((4,), (6,)), totals=(10,))
    agreed = agreed_assignments(solve_joint(inst))
    assert {(a.meter, a.period, a.value) for a in agreed} == {(0, 0, 4), (0, 1, 6)}


def test_agreement_rejects_empty_set():
    inst = AnonymizedInstance(n=2, t=1, periods=((3, 5),), totals=(7, 1))
    sols = solve_joint(inst)
    assert sols.exhausted and not sols.solutions
    with pytest.raises(ValueError):
        agreed_assignments(sols)


def test_period_search_order_does_not_change_results():
    # periods with many duplicates are deferred by the heuristic; results must
    # still come back in canonical period order with correct assignments
    inst = AnonymizedInstance(
        n=2, t=3,
        periods=((5, 5), (1, 9), (2, 3)),
        totals=(5 + 1 + 2, 5 + 9 + 3),
    )
    sols = solve_joint(inst)
    assert sols.exhausted
    expected = oracles.joint_value_grids(inst.periods, inst.totals)
    assert value_grids(sols) == expected


# ---------------------------------------------------------------------------
# block search against the recursive full-permutation reference
# ---------------------------------------------------------------------------

def reference(inst, work_limit=10**8):
    return oracles.joint_dfs(inst.periods, inst.totals, work_limit)


def observed(sols):
    return sols.solutions, sols.raw_count, sols.exhausted, sols.expansions


@st.composite
def joint_instances(draw):
    """Shuffled readings with small, repeated or zero values; sometimes totals moved apart."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 6))
    vmax = draw(st.sampled_from([0, 1, 3, 30, 200]))
    rows = [[draw(st.integers(0, vmax)) for _ in range(t)] for _ in range(n)]
    totals = [sum(r) for r in rows]
    if n > 1 and draw(st.booleans()):
        # keep the grand total, usually leaving no joint solution
        a, b = draw(st.permutations(range(n)))[:2]
        shift = draw(st.integers(0, totals[a]))
        totals[a] -= shift
        totals[b] += shift
    periods = []
    for j in range(t):
        order = draw(st.permutations(range(n)))
        periods.append(tuple(rows[i][j] for i in order))
    return AnonymizedInstance(n=n, t=t, periods=tuple(periods), totals=tuple(totals))


@given(inst=joint_instances(), block=st.sampled_from([1, 2, 5, joint._BLOCK]))
@settings(max_examples=200, deadline=None)
def test_block_search_matches_recursive_reference(inst, block):
    # tiny blocks split every depth of these trees into many sibling blocks
    limit = 2_000
    with mock.patch.object(joint, "_BLOCK", block):
        sols = solve_joint(inst, work_limit=limit)
    solutions, raw_count, exhausted, expansions = reference(inst, limit)
    assert sols.exhausted == exhausted
    if exhausted:
        assert observed(sols) == (solutions, raw_count, exhausted, expansions)
    else:
        assert sols.expansions > limit


@given(inst=joint_instances())
@settings(max_examples=200, deadline=None)
def test_grids_are_the_value_grids_of_the_solutions_in_order(inst):
    limit = 2_000
    sols = solve_joint(inst, work_limit=limit)
    solutions, _, exhausted, _ = reference(inst, limit)
    if exhausted:
        assert sols.solutions == solutions
    assert len(sols.grids) == len(sols.solutions)
    for s, perms in enumerate(sols.solutions):
        grid = tuple(tuple(inst.periods[j][perms[j][i]] for j in range(inst.t))
                     for i in range(inst.n))
        assert sols.grids[s] == sols.value_grid(s) == grid


def test_block_search_matches_reference_past_one_block():
    # seeded so that some node's children (6,480 and 7,500) fill more than one default block
    for seed, n, t, vmax in ((2, 4, 5, 2), (0, 3, 9, 5)):
        inst, _ = oracles.random_anonymized(np.random.default_rng(seed), n=n, t=t, vmax=vmax)
        sols = solve_joint(inst)
        assert sols.exhausted and sols.raw_count > joint._BLOCK
        assert observed(sols) == reference(inst)


def test_collect_keeps_the_first_solution_per_grid_and_rechecks_totals():
    values = np.array([[1, 1], [2, 3]])  # canonical periods; the first repeats a value
    twins = [[[0, 1], [0, 1]], [[1, 0], [0, 1]]]  # one value grid, two permutation tuples
    first = {}
    joint._collect(values, (3, 4), np.array(twins[::-1] + twins, np.uint8), first)
    assert first == {((1, 2), (1, 3)): ((1, 0), (0, 1))}
    joint._collect(values, (3, 4), np.array(twins, np.uint8), first)
    assert first == {((1, 2), (1, 3)): ((1, 0), (0, 1))}  # a stored grid keeps its solution
    swapped = [[0, 1], [1, 0]]  # meter 0 would sum 1 + 3 against its total 3
    with pytest.raises(AssertionError, match="violating total 0"):
        joint._collect(values, (3, 4), np.array(twins + [swapped] + twins, np.uint8), {})


@pytest.mark.parametrize("inst", [
    AnonymizedInstance(n=1, t=3, periods=((2,), (0,), (5,)), totals=(7,)),
    AnonymizedInstance(n=2, t=3, periods=((1, 4), (3, 3), (0, 2)), totals=(5, 8)),
    AnonymizedInstance(n=2, t=3, periods=((1, 4), (3, 3), (0, 2)), totals=(6, 7)),
    AnonymizedInstance(n=2, t=2, periods=((1, 4), (2, 0)), totals=(7, 0)),
], ids=["n1", "n2", "n2-none", "n2-bounds"])
def test_last_meter_takes_the_one_position_left(inst):
    # with n <= 2 every placed meter is a period's last, or its only other one
    assert observed(solve_joint(inst)) == reference(inst)


def test_implied_position_past_255():
    # n = 24 stores positions in uint8, but a period's positions sum to 276
    inst = AnonymizedInstance(n=24, t=1, periods=(tuple(range(23, -1, -1)),),
                              totals=tuple(range(24)))
    sols = solve_joint(inst, work_limit=math.factorial(24))
    assert sols.exhausted
    assert sols.raw_count == 1
    assert sols.expansions == math.factorial(24)
    assert sols.solutions == ((tuple(range(23, -1, -1)),),)
    assert sols.grids == (tuple((v,) for v in range(24)),)


def test_capped_runs_keep_their_partial_sets():
    # pinned before the last meter of a period was placed by its implied position
    sols = solve_joint(parity_trap(8), work_limit=10**5)
    assert observed(sols) == ((), 0, False, 112_728)
    inst = AnonymizedInstance(
        n=4, t=5, totals=(9, 6, 5, 5),
        periods=((2, 0, 2, 0), (2, 1, 2, 2), (0, 1, 2, 2), (2, 0, 1, 1), (2, 1, 1, 1)))
    sols = solve_joint(inst, work_limit=10**5)
    assert (sols.expansions, sols.raw_count, len(sols.solutions), sols.exhausted) == (
        100_104, 12_222, 38, False)
    assert hashlib.sha256(repr(sols.solutions).encode()).hexdigest() == (
        "6b7e06f7bea09e5e49ccb9372e902773a2ef71ed91f02d1fd54482c3043eec30")


def test_inconsistent_instance_has_no_solutions_and_reference_expansions():
    inst = AnonymizedInstance(n=3, t=2, periods=((1, 3, 5), (5, 3, 1)), totals=(3, 5, 10))
    sols = solve_joint(inst)
    assert sols.exhausted and sols.solutions == () and sols.raw_count == 0
    assert observed(sols) == reference(inst)


def test_work_limit_at_exact_cost_exhausts():
    rng = np.random.default_rng(35)
    for n, t in ((3, 5), (4, 4)):
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=50)
        cost = reference(inst)[3]
        assert solve_joint(inst, work_limit=cost).exhausted
        capped = solve_joint(inst, work_limit=cost - 1)
        assert not capped.exhausted
        assert capped.expansions > cost - 1


def parity_trap(t):
    """n = 4 over t periods of (0, 0, 2, 2) with two odd totals.

    There is no solution, but the min/max bounds cannot see parity, so the
    tree only dies at the last period: far too large to exhaust.
    """
    return AnonymizedInstance(n=4, t=t, periods=((0, 0, 2, 2),) * t,
                              totals=(t - 1, t + 1, t, t))


def test_capped_search_reports_expansions_past_the_limit():
    sols = solve_joint(parity_trap(8), work_limit=10**5)
    assert not sols.exhausted
    assert sols.expansions > 10**5
    assert sols.expansions % 24 == 0


def test_peak_memory_does_not_grow_with_work_limit():
    inst = parity_trap(12)
    peaks = []
    for limit in (10**6, 10**7):
        tracemalloc.start()
        try:
            sols = solve_joint(inst, work_limit=limit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not sols.exhausted
    assert peaks[1] < 2 * peaks[0]


def test_readings_beyond_int64_are_rejected():
    big = 2**63
    with pytest.raises(ValueError, match=r"2\*\*63"):  # no instance holds them
        AnonymizedInstance(n=2, t=1, periods=((big, 0),), totals=(big, 0))
    # the largest int64 readings still solve exactly, with bounds past int64
    top = 2**63 - 1
    inst = AnonymizedInstance(n=2, t=2, periods=((top, 0), (0, top)), totals=(top, top))
    sols = solve_joint(inst)
    assert sols.exhausted
    assert value_grids(sols) == {((top, 0), (0, top)), ((0, top), (top, 0))}
