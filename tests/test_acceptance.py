"""Acceptance criteria, one test per criterion, at the stated tolerances.

Heavy experiment grids run once in module-scoped fixtures and are shared by
the criteria that read them. The conftest hook prints one PASS/FAIL line per
criterion after the run.
"""

import math
import time
from decimal import Decimal

import numpy as np
import pytest

import goldens
import oracles
from anonmeter import demo
from anonmeter.cli import ExperimentConfig, main, run_experiment
from anonmeter.ingest import load_readings, write_instance
from anonmeter.joint import agreed_assignments, solve_joint
from anonmeter.mcssp import (
    ResourceGuard,
    ResourceLimitError,
    forward_counts,
    marginal_counts,
)
from anonmeter.model import anonymize, build_ground_truth
from anonmeter.privacy import entropy_report
from anonmeter.stats import DistributionSpec, cvm_statistic, rank_distributions, sample_reading_matrix

MASTER_SEED = 0
R = 20


@pytest.fixture(scope="module")
def grid_equal_means():
    cfg = ExperimentConfig(n_list=(2, 4, 8), t_list=(15,), reps=R, seed=MASTER_SEED,
                           target_mean=100.0, others_mean=100.0)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def grid_target_500():
    cfg = ExperimentConfig(n_list=(8, 16), t_list=(15,), reps=R, seed=MASTER_SEED,
                           target_mean=500.0, others_mean=100.0)
    return run_experiment(cfg)


def test_c01_worked_example_golden():
    """Joint: exactly 3 value-distinct solutions; relaxed: N = 22 with the full set; < 1 s."""
    inst = demo.instance()
    start = time.perf_counter()
    sols = solve_joint(inst)
    sels = oracles.all_selections(inst.periods, inst.totals[0])
    elapsed = time.perf_counter() - start
    assert sols.exhausted
    assert len(sols.solutions) == 3
    assert {sols.value_grid(s) for s in range(3)} == goldens.JOINT_VALUE_GRIDS
    n_total = forward_counts(inst, 991).total_solutions
    assert n_total == 22
    assert len(sels) == 22
    values = {tuple(inst.periods[j][k] for j, k in enumerate(sel)) for sel in sels}
    assert values == goldens.RELAXED_VALUE_ROWS
    assert elapsed < 1.0


def test_c02_entropy_golden():
    """Period-1 entropy 0.2668 and period-4 entropy 1.582, both within 5e-4 bits."""
    report = entropy_report(marginal_counts(demo.instance(), 0))
    assert report.per_period[0] == pytest.approx(0.2668, abs=5e-4)
    assert report.per_period[3] == pytest.approx(1.582, abs=5e-4)


def test_c03_agreement_golden():
    """Agreed cells: 4 for meter 1 (362, 140, 36, 83), 6 for meter 2, 4 for meter 3."""
    agreed = agreed_assignments(solve_joint(demo.instance()))
    by_meter = {}
    for a in agreed:
        by_meter.setdefault(a.meter, {})[a.period] = a.value
    assert by_meter == goldens.AGREED_BY_METER
    assert len(by_meter[0]) == 4 and len(by_meter[1]) == 6 and len(by_meter[2]) == 4
    assert sorted(by_meter[0].values()) == sorted([362, 140, 36, 83])


def test_c04_oracle_equivalence():
    """DP equals exhaustive n**t enumeration on 200+ instances; joint equals (n!)**t."""
    rng = np.random.default_rng(MASTER_SEED)
    sizes = [(5, 8)] * 10 + [
        (int(rng.integers(1, 6)), int(rng.integers(1, 9))) for _ in range(190)
    ]
    for n, t in sizes:
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=200)
        target = inst.totals[0]
        mc = marginal_counts(inst, 0)
        assert mc.total_solutions == oracles.count_solutions(inst.periods, target)
        assert mc.counts == oracles.marginal_grid(inst.periods, target)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 6))
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=120)
        sols = solve_joint(inst)
        assert sols.exhausted
        got = {sols.value_grid(s) for s in range(len(sols.solutions))}
        assert got == oracles.joint_value_grids(inst.periods, inst.totals)


def test_c05_ground_truth_membership():
    """500+ anonymized instances: N >= 1, true selection counted everywhere, joint contains truth."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    checked_joint = 0
    for trial in range(500):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        inst, record = oracles.random_anonymized(rng, n=n, t=t, vmax=60)
        mc = marginal_counts(inst, 0)
        assert mc.total_solutions >= 1
        for j in range(t):
            assert mc.counts[j][record.perms[j][0]] >= 1
        if n <= 3 and t <= 5:
            sols = solve_joint(inst)
            if sols.exhausted:
                truth = tuple(
                    tuple(inst.periods[j][record.perms[j][i]] for j in range(t))
                    for i in range(n)
                )
                assert truth in {sols.value_grid(s) for s in range(len(sols.solutions))}
                checked_joint += 1
    assert checked_joint > 100  # the joint clause was actually exercised


def test_c06_row_sum_invariant():
    """Every period's marginal counts sum to N, across a fresh random corpus."""
    rng = np.random.default_rng(MASTER_SEED + 2)
    mc_demo = marginal_counts(demo.instance(), 0)
    for row in mc_demo.counts:
        assert sum(row) == mc_demo.total_solutions
    for _ in range(100):
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, 13))
        inst, _ = oracles.random_anonymized(rng, n=n, t=t, vmax=80)
        mc = marginal_counts(inst, 0)
        for row in mc.counts:
            assert sum(row) == mc.total_solutions


def test_c07_synthetic_equal_distributions(grid_equal_means):
    """Equal Exp(mean 100) meters, t=15, R=20: cell means within 0.2 bits of log2 n."""
    for n in (2, 4, 8):
        cell = grid_equal_means.cell(15, n)
        assert not cell.infeasible
        assert abs(cell.mean - math.log2(n)) <= 0.2, (
            f"n={n}: mean {cell.mean:.3f} vs log2 n = {math.log2(n):.2f}"
        )


def test_c08_separation_unequal_distributions(grid_target_500):
    """Target mean 500 vs others 100, n=16, t=15, R=20: >= 0.5 below max, within 0.5 of the reference.

    The reference is the population mean of the tilting estimate for this
    setup (oracles.tilted_population_mean: 4000 cells of an Exp(500 Wh) target
    among Exp(100 Wh) meters, drawn with numpy's own exponential sampler),
    2.277 bits at seed 0. The same estimate, run on each repetition's own
    readings rebuilt from SeedSequence([seed, n, t, rep]), must first agree
    with the solver's value to within 0.05 bits.
    """
    cell = grid_target_500.cell(15, 16)
    assert not cell.infeasible
    assert cell.mean <= math.log2(16) - 0.5, (
        f"separation clause failed: mean {cell.mean:.3f} not 0.5 below 4"
    )
    values, totals = oracles.experiment_cell_readings(MASTER_SEED, 16, 15, R, 500.0, 100.0)
    estimates = oracles.tilted_entropy(values, totals)
    for rep, (got, est) in enumerate(zip(cell.values, estimates, strict=True)):
        assert abs(got - est) <= 0.05, (
            f"repetition {rep}: solver {got:.3f} bits vs tilting estimate {est:.3f}"
        )
    reference = oracles.tilted_population_mean(16, 15, 500.0, 100.0, seed=MASTER_SEED)
    assert abs(cell.mean - reference) <= 0.5, (
        f"tolerance band failed: mean {cell.mean:.3f} outside {reference:.3f} +/- 0.5 "
        f"(tilting population mean, oracles.tilted_population_mean)"
    )


def test_c09_monotone_gap(grid_equal_means, grid_target_500):
    """n=8, t=15, R=20: average entropy at target mean 100 strictly exceeds target mean 500."""
    equal = grid_equal_means.cell(15, 8).mean
    skewed = grid_target_500.cell(15, 8).mean
    assert equal > skewed, f"expected strict ordering, got {equal:.3f} <= {skewed:.3f}"


def test_c10_fit_ranking():
    """Exponential wins >= 95 of 100 seeded trials; W2 floor exact on the quantile grid."""
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        draws = rng.exponential(100.0, size=10**4)
        if rank_distributions(draws)[0].spec.family == "exponential":
            wins += 1
    assert wins >= 95, f"exponential ranked first in only {wins}/100 trials"
    spec = DistributionSpec(family="exponential", mean=100.0)
    m = 64
    grid = [-100.0 * math.log(1 - (2 * i - 1) / (2 * m)) for i in range(1, m + 1)]
    assert abs(cvm_statistic(grid, spec) - 1 / (12 * m)) <= 1e-12


def test_c11_performance_guard():
    """The n=32, t=60 cell solves within the default guards; guard trips report exit 3."""
    matrix = sample_reading_matrix(32, 60, 100.0, 100.0, seed=MASTER_SEED)
    inst, _ = anonymize(build_ground_truth(matrix), seed=MASTER_SEED + 1)
    guard = ResourceGuard.from_budgets(4.0, 600.0)
    try:
        mc = marginal_counts(inst, 0, guard=guard)
    except ResourceLimitError as exc:  # pragma: no cover - defended path
        pytest.fail(f"largest synthetic cell exceeded the default guards: {exc}")
    report = entropy_report(mc)
    assert 0.0 <= report.average <= 5.0 + 1e-9
    # the guard-exhaustion path must surface as exit code 3, not a hang
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "big.inst"
        path.write_text(write_instance(inst))
        assert main(["solve", str(path), "--time-budget", "1e-9"]) == 3


def test_c12_kwh_conversion_exactness():
    """100000 random <= 3-decimal kWh strings convert to exactly the right Wh."""
    rng = np.random.default_rng(MASTER_SEED + 3)
    lines = ["meter_id,period,kwh"]
    expected = []
    for idx in range(10**5):
        whole = int(rng.integers(0, 10**4))
        n_dec = int(rng.integers(0, 4))
        frac = "".join(str(int(d)) for d in rng.integers(0, 10, size=n_dec))
        text = f"{whole}.{frac}" if frac else str(whole)
        lines.append(f"m,{idx + 1},{text}")
        expected.append(int(Decimal(text) * 1000))
    matrix = load_readings("\n".join(lines) + "\n")
    assert list(matrix.readings[0]) == expected
