"""Synthetic generation, estimators and the Cramer-von Mises ranking."""

import math
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonmeter.stats import (
    DistributionSpec,
    FitResult,
    cvm_statistic,
    fit_exponential,
    fit_normal,
    rank_distributions,
    sample_reading_matrix,
    unbiased_rate,
)

EXP100 = DistributionSpec(family="exponential", mean=100.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec(family="exponential", mean=0.0)
    with pytest.raises(ValueError):
        DistributionSpec(family="normal", mean=5.0)  # missing sd
    with pytest.raises(ValueError):
        DistributionSpec(family="normal", mean=5.0, sd=0.0)
    with pytest.raises(ValueError):
        DistributionSpec(family="weibull", mean=5.0)


@pytest.mark.parametrize("kwargs", [
    {"family": "exponential", "mean": math.inf},
    {"family": "exponential", "mean": math.nan},
    {"family": "normal", "mean": math.inf, "sd": 1.0},
    {"family": "normal", "mean": math.nan, "sd": 1.0},
    {"family": "normal", "mean": 5.0, "sd": math.inf},
])
def test_spec_refuses_non_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="finite"):
        DistributionSpec(**kwargs)


def test_draws_beyond_int64_raise():
    for means in ((100.0, 1e19), (1e300, 1e300)):
        with pytest.raises(ValueError, match=r"below 2\*\*63 Wh"):
            sample_reading_matrix(2, 3, *means, seed=1)


@pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_sample_matrix_refuses_bad_means(bad):
    for means in ((bad, 100.0), (100.0, bad)):
        with pytest.raises(ValueError, match="mean must be positive and finite"):
            sample_reading_matrix(2, 3, *means, seed=1)


def per_row_draws(n, t, target_mean, others_mean, seed):
    """The documented derivation, one meter row at a time: each row reads the next t
    uniforms of one PCG64 stream through the exponential inverse CDF, rounded half up."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for i in range(n):
        wh = np.floor(-(target_mean if i == 0 else others_mean) * np.log1p(-rng.random(t)) + 0.5)
        rows.append(tuple(int(v) for v in wh.tolist()))
    return tuple(rows)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
@pytest.mark.parametrize("n, t, target_mean, others_mean", [
    (1, 1, 100.0, 100.0),
    (1, 30, 500.0, 100.0),
    (4, 9, 500.0, 100.0),
    (8, 15, 100.0, 100.0),
    (3, 200, 0.25, 1e6),
])
def test_sample_matrix_matches_per_row_draws(n, t, target_mean, others_mean, seed):
    m = sample_reading_matrix(n, t, target_mean, others_mean, seed=seed)
    assert (m.n, m.t) == (n, t)
    assert m.readings == per_row_draws(n, t, target_mean, others_mean, seed)


def test_exponential_cdf_values():
    got = EXP100.cdf(np.array([-1.0, 0.0, 100.0]))
    assert got.dtype == np.float64 and got[:2].tolist() == [0.0, 0.0]
    assert got[2] == pytest.approx(1 - math.exp(-1), abs=1e-15)


def test_normal_cdf_values():
    spec = DistributionSpec(family="normal", mean=10.0, sd=2.0)
    assert spec.cdf(np.array([10.0])).tolist() == [pytest.approx(0.5, abs=1e-15)]


# negative values, both zeros, tiny and huge values
CDF_POINTS = np.array([-1e300, -750.0, -30.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1e-9,
                       0.5, 1.0, 69.3, 100.0, 740.0, 3.6e4, 1e300])


@pytest.mark.parametrize("mean", [1e-3, 1.0, 100.0, 1e6])
def test_exponential_cdf_matches_expm1_elementwise(mean):
    points = CDF_POINTS.copy()
    got = DistributionSpec(family="exponential", mean=mean).cdf(points)
    want = [-math.expm1(-x / mean) if x > 0 else 0.0 for x in CDF_POINTS.tolist()]
    assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0)
    assert np.array_equal(points, CDF_POINTS)  # the input is left as it was


@pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (10.0, 2.0), (300.0, 40.0), (-5.0, 1e-3)])
def test_normal_cdf_matches_normaldist_elementwise(mean, sd):
    # the points themselves, and both tails out to where the CDF underflows or reaches 1
    points = np.concatenate([CDF_POINTS, mean + sd * np.array([-40.0, -38.0, -9.0, -1.0,
                                                               0.0, 1.0, 9.0, 40.0])])
    given = points.copy()
    got = DistributionSpec(family="normal", mean=mean, sd=sd).cdf(points).tolist()
    assert np.array_equal(points, given)
    z = [(mean - x) / (sd * math.sqrt(2)) for x in points.tolist()]
    assert got == pytest.approx([0.5 * math.erfc(v) for v in z], rel=1e-15, abs=0)
    # NormalDist may compute 0.5 * (1 + erf(-z)) instead (Python 3.11 does), which
    # cancels in the lower tail: there it is exact only to about 2**-54
    dist = statistics.NormalDist(mean, sd)
    assert got == pytest.approx([dist.cdf(x) for x in points.tolist()], rel=1e-15, abs=2**-53)


def test_sample_matrix_means_match_spec():
    m = sample_reading_matrix(2, 10**4, 100.0, 100.0, seed=202)
    for row in m.readings:
        assert 95 <= sum(row) / len(row) <= 105


def test_sample_matrix_deterministic():
    a = sample_reading_matrix(3, 50, 100.0, 100.0, seed=7)
    b = sample_reading_matrix(3, 50, 100.0, 100.0, seed=7)
    c = sample_reading_matrix(3, 50, 100.0, 100.0, seed=8)
    assert a == b
    assert a != c


def test_sample_matrix_target_row_uses_target_spec():
    m = sample_reading_matrix(4, 2000, 1000.0, 100.0, seed=3)
    assert sum(m.readings[0]) / 2000 > 800
    for row in m.readings[1:]:
        assert sum(row) / 2000 < 200


def test_sample_matrix_equal_specs_rows_exchangeable():
    m = sample_reading_matrix(6, 4000, 100.0, 100.0, seed=5)
    means = [sum(row) / len(row) for row in m.readings]
    assert max(means) - min(means) < 15  # common band around 100


def test_sample_matrix_validation():
    for n, t in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="need n >= 1 and t >= 1"):
            sample_reading_matrix(n, t, 100.0, 100.0, seed=1)


def test_fit_exponential_constant_samples():
    assert fit_exponential([100, 100, 100, 100]).mean == 100.0


def test_fit_exponential_two_point_mean():
    assert fit_exponential([50, 150]).mean == 100.0


def test_fit_exponential_simulation():
    rng = np.random.default_rng(77)
    draws = rng.exponential(200.0, size=10**4)
    assert 190 <= fit_exponential(draws).mean <= 210


def test_fit_exponential_errors():
    with pytest.raises(ValueError):
        fit_exponential([5])
    with pytest.raises(ValueError):
        fit_exponential([0, 0, 0])
    with pytest.raises(ValueError):
        fit_exponential([-1, 5])


def test_unbiased_rate_two_point():
    # m=2, mean 100: (2-1)/(2*100)
    assert unbiased_rate([50, 150]) == pytest.approx(1 / 200, abs=1e-15)


def test_fit_normal_two_point():
    spec = fit_normal([1, 3])
    assert spec.mean == 2.0
    assert spec.sd == pytest.approx(math.sqrt(2), abs=1e-12)


def test_fit_normal_zero_variance_error():
    with pytest.raises(ValueError):
        fit_normal([5, 5, 5])


def test_fit_normal_simulation():
    rng = np.random.default_rng(78)
    draws = rng.normal(100.0, 20.0, size=10**4)
    spec = fit_normal(draws)
    assert 98 <= spec.mean <= 102
    assert 19 <= spec.sd <= 21


def test_cvm_floor_on_exact_quantile_grid():
    m = 40
    xs = [-100.0 * math.log(1 - (2 * i - 1) / (2 * m)) for i in range(1, m + 1)]
    assert cvm_statistic(xs, EXP100) == pytest.approx(1 / (12 * m), abs=1e-12)


def test_cvm_single_sample_at_median():
    median = 100.0 * math.log(2)
    assert cvm_statistic([median], EXP100) == pytest.approx(1 / 12, abs=1e-12)


def test_cvm_matches_direct_formula_evaluation():
    rng = np.random.default_rng(79)
    xs = sorted(float(v) for v in rng.exponential(100.0, size=5))
    m = len(xs)
    # independent evaluation: accumulate the displayed sum term by term
    total = 1.0 / (12.0 * m)
    for i, x in enumerate(xs, start=1):
        f = 1.0 - math.exp(-x / 100.0)
        total += ((2 * i - 1) / (2 * m) - f) ** 2
    assert cvm_statistic(xs, EXP100) == pytest.approx(total, abs=1e-12)


def test_cvm_calls_the_cdf_once_on_the_sorted_samples():
    calls = []

    def spy(spec, x, cdf=DistributionSpec.cdf):
        calls.append(x.tolist())
        return cdf(spec, x)

    with mock.patch.object(DistributionSpec, "cdf", spy):
        assert cvm_statistic([300.0, 10.0, 50.0], EXP100) > 0
    assert calls == [[10.0, 50.0, 300.0]]


def test_cvm_permutation_invariant():
    rng = np.random.default_rng(80)
    xs = list(rng.exponential(100.0, size=50))
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert cvm_statistic(xs, EXP100) == cvm_statistic(shuffled, EXP100)


def test_fit_result_rejects_below_floor():
    with pytest.raises(ValueError):
        FitResult(spec=EXP100, cvm=0.0, sample_size=10)


def test_rank_prefers_exponential_for_exponential_draws():
    rng = np.random.default_rng(81)
    draws = rng.exponential(100.0, size=10**4)
    ranked = rank_distributions(draws)
    assert ranked[0].spec.family == "exponential"
    assert ranked[0].cvm <= ranked[1].cvm


def test_rank_prefers_normal_for_truncated_normal_draws():
    rng = np.random.default_rng(82)
    draws = np.maximum(rng.normal(500.0, 50.0, size=10**4), 0.0)
    ranked = rank_distributions(draws)
    assert ranked[0].spec.family == "normal"


def test_rank_order_invariant_under_sample_permutation():
    rng = np.random.default_rng(83)
    draws = list(rng.exponential(100.0, size=500))
    shuffled = list(draws)
    rng.shuffle(shuffled)
    a = rank_distributions(draws)
    b = rank_distributions(shuffled)
    assert [r.spec for r in a] == [r.spec for r in b]
    assert [r.cvm for r in a] == [r.cvm for r in b]


@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=30),
    scale=st.integers(min_value=1, max_value=1000),
)
def test_fit_exponential_scale_equivariant(samples, scale):
    base = fit_exponential(samples).mean
    scaled = fit_exponential([scale * s for s in samples]).mean
    assert scaled == pytest.approx(scale * base, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    samples=st.one_of(
        st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
        st.lists(st.integers(0, 10**6), min_size=2, max_size=40),
        st.lists(st.integers(0, 10**9).map(lambda wh: wh / 1000), min_size=2, max_size=40),
    ),
    offset=st.sampled_from([0, 10**12]),
)
def test_fit_normal_sd_matches_exact_stdev(samples, offset):
    # a large common offset leaves the mean inexact; the deviations' sum corrects for it
    samples = [offset + x for x in samples]
    if len(set(samples)) == 1:
        with pytest.raises(ValueError, match="zero-variance"):
            fit_normal(samples)
        return
    sd = statistics.stdev(samples)
    assert fit_normal(samples).sd == pytest.approx(sd, rel=1e-12)


def test_rank_gives_the_same_results_for_any_container():
    rng = np.random.default_rng(85)
    draws = [int(v) for v in rng.exponential(500.0, size=3000).round()]
    ranked = [rank_distributions(samples) for samples in
              (draws, (x for x in draws), np.array(draws), np.array(draws, np.float64))]
    for other in ranked[1:]:
        assert [(r.spec, r.cvm, r.sample_size) for r in other] == [
            (r.spec, r.cvm, r.sample_size) for r in ranked[0]]
