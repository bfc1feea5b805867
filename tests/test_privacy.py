"""Probability conversion, entropy values and revealed-position reporting."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldens
import oracles
from anonmeter import demo
from anonmeter.mcssp import MarginalCounts, marginal_counts
from anonmeter.model import AnonymizedInstance
from anonmeter.privacy import (
    PeriodDistribution,
    entropy_report,
    marginal_probabilities,
    period_entropy,
    revealed_positions,
)


@pytest.fixture(scope="module")
def demo_marginals():
    return marginal_counts(demo.instance(), 0)


def test_demo_probabilities(demo_marginals):
    dists = marginal_probabilities(demo_marginals)
    assert dists[0].probabilities == pytest.approx((1 / 22, 0.0, 21 / 22), abs=1e-15)
    assert dists[3].probabilities == pytest.approx((7 / 22, 8 / 22, 7 / 22), abs=1e-15)


def test_single_meter_probabilities():
    inst = AnonymizedInstance(n=1, t=2, periods=((4,), (6,)), totals=(10,))
    for d in marginal_probabilities(marginal_counts(inst, 0)):
        assert d.probabilities == (1.0,)


def test_probabilities_reject_zero_solutions():
    mc = MarginalCounts(target_meter=0, target_total=1, total_solutions=0, counts=((0,),))
    with pytest.raises(ValueError):
        marginal_probabilities(mc)


def test_entropy_near_determined_period():
    h = period_entropy(PeriodDistribution(period=0, probabilities=(21 / 22, 1 / 22)))
    assert h == pytest.approx(0.2668, abs=5e-4)


def test_fully_identified_period_is_positive_zero():
    # -fsum of the one term 1.0 * log2(1.0) is -0.0, which must not be kept
    h = period_entropy(PeriodDistribution(period=0, probabilities=(0.0, 1.0)))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_entropy_balanced_period():
    h = period_entropy(PeriodDistribution(period=0, probabilities=(7 / 22, 8 / 22, 7 / 22)))
    assert h == pytest.approx(1.582, abs=5e-4)


def test_entropy_closed_forms():
    uniform = PeriodDistribution(period=0, probabilities=(0.125,) * 8)
    assert period_entropy(uniform) == pytest.approx(3.0, abs=1e-12)
    degenerate = PeriodDistribution(period=0, probabilities=(1.0,) + (0.0,) * 7)
    assert period_entropy(degenerate) == 0.0


def test_demo_entropy_report(demo_marginals):
    report = entropy_report(demo_marginals)
    assert report.per_period[0] == pytest.approx(0.2668, abs=5e-4)
    assert report.per_period[3] == pytest.approx(1.582, abs=5e-4)
    assert report.max_entropy == pytest.approx(math.log2(3))
    assert report.average == pytest.approx(sum(report.per_period) / 9, abs=1e-12)
    assert report.total_solutions == 22


def test_single_meter_report_is_all_zero():
    inst = AnonymizedInstance(n=1, t=3, periods=((2,), (0,), (5,)), totals=(7,))
    report = entropy_report(marginal_counts(inst, 0))
    assert report.per_period == (0.0, 0.0, 0.0)
    assert report.average == 0.0
    assert report.max_entropy == 0.0


def test_report_average_matches_enumeration_recomputation():
    rng = np.random.default_rng(41)
    inst, _ = oracles.random_anonymized(rng, n=4, t=6, vmax=60)
    report = entropy_report(marginal_counts(inst, 0))
    # recompute from the explicit solution list
    sels = oracles.all_selections(inst.periods, inst.totals[0])
    entropies = []
    for j in range(inst.t):
        tally = Counter(sel[j] for sel in sels)
        probs = [tally.get(k, 0) / len(sels) for k in range(inst.n)]
        entropies.append(-sum(p * math.log2(p) for p in probs if p > 0))
    assert report.average == pytest.approx(sum(entropies) / len(entropies), abs=1e-12)
    for h_dp, h_enum in zip(report.per_period, entropies):
        assert h_dp == pytest.approx(h_enum, abs=1e-12)


def test_entropy_bounds_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        inst, _ = oracles.random_anonymized(rng, n=n, t=int(rng.integers(1, 7)), vmax=30)
        report = entropy_report(marginal_counts(inst, 0))
        for h in report.per_period:
            assert -1e-12 <= h <= math.log2(n) + 1e-9


def test_uniform_counts_reach_max_entropy():
    mc = MarginalCounts(target_meter=0, target_total=9, total_solutions=4,
                        counts=((1, 1, 1, 1),))
    report = entropy_report(mc)
    assert report.per_period[0] == pytest.approx(2.0, abs=1e-12)


def test_scaling_counts_leaves_entropy_unchanged():
    base = marginal_counts(demo.instance(), 0)
    scale = 10**30  # forces the high-precision division path
    scaled = MarginalCounts(
        target_meter=base.target_meter,
        target_total=base.target_total,
        total_solutions=base.total_solutions * scale,
        counts=tuple(tuple(c * scale for c in row) for row in base.counts),
    )
    assert entropy_report(scaled).per_period == entropy_report(base).per_period
    assert [d.probabilities for d in marginal_probabilities(scaled)] == \
        [d.probabilities for d in marginal_probabilities(base)]


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6)
    .filter(lambda cs: sum(cs) > 0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_entropy_invariant_under_position_relabeling(counts, seed):
    total = sum(counts)
    rng = np.random.default_rng(seed)
    shuffled = list(counts)
    rng.shuffle(shuffled)
    d1 = PeriodDistribution(period=0, probabilities=tuple(c / total for c in counts))
    d2 = PeriodDistribution(period=0, probabilities=tuple(c / total for c in shuffled))
    assert period_entropy(d1) == pytest.approx(period_entropy(d2), abs=1e-12)


# rows of n counts with zeros, a single position and repeated counts; each
# row is scaled to the lcm of the row sums, so every row sums to the same N
_COUNT = st.one_of(st.just(0), st.integers(min_value=0, max_value=3),
                   st.integers(min_value=0, max_value=10**6))


@st.composite
def _marginals(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(_COUNT, min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    n_total = math.lcm(*map(sum, rows))
    counts = tuple(tuple(c * (n_total // sum(r)) for c in r) for r in rows)
    return MarginalCounts(target_meter=0, target_total=0, total_solutions=n_total, counts=counts)


@settings(max_examples=100, deadline=None)
@given(mc=_marginals())
@example(mc=MarginalCounts(target_meter=0, target_total=0, total_solutions=3, counts=((3,),)))
@example(mc=MarginalCounts(target_meter=0, target_total=0, total_solutions=6,
                           counts=((0, 3, 3), (2, 2, 2), (0, 0, 6))))
def test_entropy_report_equals_period_entropy_bit_for_bit(mc):
    # scaled by 10**30 and 2**1100, c / N is a big-integer division, and
    # c and N are past any float at 2**1100
    for scale in (1, 10**30, 2**1100):
        scaled = MarginalCounts(
            target_meter=0, target_total=0, total_solutions=mc.total_solutions * scale,
            counts=tuple(tuple(c * scale for c in row) for row in mc.counts),
        )
        expected = tuple(period_entropy(d) for d in marginal_probabilities(scaled))
        assert entropy_report(scaled).per_period == expected


@pytest.mark.parametrize(("counts", "n_total", "row"), [
    (((1, 1), (2,)), 2, 1),  # ragged: the second row has one count
    (((10**12 - 1, 0),), 10**12, 0),  # one short of N, within any float tolerance
    (((3, -1), (1, 1)), 2, 0),  # a negative count
    (((1, 1), ()), 2, 1),  # an empty row
])
def test_malformed_counts_are_refused_exactly(counts, n_total, row):
    mc = MarginalCounts(target_meter=0, target_total=0, total_solutions=n_total, counts=counts)
    for read in (entropy_report, marginal_probabilities, lambda m: revealed_positions(m, 0.5)):
        with pytest.raises(ValueError, match=rf"^counts\[{row}\] "):
            read(mc)


def test_revealed_positions_demo(demo_marginals):
    hits = revealed_positions(demo_marginals, 0.95)
    assert any(p == 0 and k == 2 and abs(v - 21 / 22) < 1e-12 for p, k, v in hits)


def test_revealed_at_threshold_one_matches_column_tally(demo_marginals):
    # derive the fully determined periods from the frozen solution rows
    expected = []
    rows = sorted(goldens.RELAXED_VALUE_ROWS)
    inst = demo.instance()
    for j in range(inst.t):
        tally = Counter(row[j] for row in rows)
        for value, count in tally.items():
            if count == len(rows):
                for k, v in enumerate(inst.periods[j]):
                    if v == value:
                        expected.append((j, k, 1.0))
    hits = revealed_positions(demo_marginals, 1.0)
    assert hits == sorted(expected)


def test_revealed_everything_for_single_meter():
    inst = AnonymizedInstance(n=1, t=3, periods=((2,), (0,), (5,)), totals=(7,))
    mc = marginal_counts(inst, 0)
    assert revealed_positions(mc, 1.0) == [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]


def test_revealed_threshold_validation(demo_marginals):
    with pytest.raises(ValueError):
        revealed_positions(demo_marginals, 0.0)
    with pytest.raises(ValueError):
        revealed_positions(demo_marginals, 1.5)


def test_revealed_positions_compare_exact_counts_past_float_precision():
    # meter 1 takes 0 of period 1 in every solution but one, which takes 29;
    # N is past 2**53, so c / N rounds to 1.0 although c < N
    inst = AnonymizedInstance(n=2, t=60, periods=((0, 29),) + ((1, 2),) * 59,
                              totals=(88, 118))
    mc = marginal_counts(inst, 0)
    assert mc.total_solutions == 59_132_290_782_430_713 > 2**53
    assert mc.counts[0] == (mc.total_solutions - 1, 1)
    assert mc.counts[0][0] / mc.total_solutions == 1.0
    assert revealed_positions(mc, 1.0) == []
    hits = revealed_positions(mc, 0.99)
    assert hits[0] == (0, 0, 1.0)
    assert all(j > 0 for j, _, _ in hits[1:])


def test_revealed_threshold_is_read_as_the_decimal_it_prints_as():
    # 0.95 and 0.1 are stored a little above 19/20 and 1/10, and 0.7 a little
    # below 7/10: a count of exactly that share is kept, one short of it is not
    mc = MarginalCounts(target_meter=0, target_total=0, total_solutions=20,
                        counts=((19, 1), (2, 18), (14, 6)))
    assert revealed_positions(mc, 0.95) == [(0, 0, 0.95)]
    assert revealed_positions(mc, 0.9) == [(0, 0, 0.95), (1, 1, 0.9)]
    assert revealed_positions(mc, 0.7) == [(0, 0, 0.95), (1, 1, 0.9), (2, 0, 0.7)]
    assert [k for j, k, _ in revealed_positions(mc, 0.1) if j == 1] == [0, 1]


def test_distribution_validation():
    with pytest.raises(ValueError):
        PeriodDistribution(period=0, probabilities=(0.5, 0.4))  # sums to 0.9
    with pytest.raises(ValueError):
        PeriodDistribution(period=0, probabilities=(1.5, -0.5))
