"""Seeded workload inputs and their expected outputs.

Nothing here imports anonmeter. Inputs come from the benchmark's own
generators (exponential inverse CDF, round half-up, one PCG64 shuffle per
period), and expected outputs come from reference algorithms that share no
code with the program: dense counting modulo primes for the relaxed attack
and a vectorised breadth-first search for the joint attack. Every function is
deterministic in its seed, so one seed always yields one set of inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics
from collections import Counter

import numpy as np

# sha256 of anonmeter's write_instance text for criterion c11 (32 meters, 60
# periods, matrix seed 0, shuffle seed 1), recorded from the program; the
# solve workload's generator must reproduce it byte for byte at seed 0.
C11_SHA256 = "ac7a4a9f210d4c7dea9f507e01ae190ce0eb0df61a4e8e1a6a03ffe82847596b"

MEAN_WH = 100.0

# The DP's work is the keys its tables hold, which spread by about 40%
# across seeds (432k to 638k over seeds 0-39) and would swamp any kernel
# change. Draws whose key count lies farther than this share from the c11
# instance's (seed 0, 530,087 keys) are redrawn, so passes on different
# seeds do comparable work.
SOLVE_ENTRIES = 530_087
SOLVE_ENTRIES_BAND = 0.02

GRIDS = (
    {"n_list": (2, 4, 8), "t_list": (15,), "target_mean": 100.0, "others_mean": 100.0},
    {"n_list": (8, 16), "t_list": (15,), "target_mean": 500.0, "others_mean": 100.0},
)
GRID_REPS = 20

# A grid pass's work is the keys its 100 solves put in the DP tables, which
# spreads by about 6% across master seeds (1.54M to 1.73M over seeds 1-10),
# more than the host's noise once pass times are speed-scaled. Master seeds
# whose key count lies farther than this share from GRID_ENTRIES are
# redrawn, as the solve workload's instances are. Seed 0's grids
# hold 1,619,795 keys, inside the band.
GRID_ENTRIES = 1_620_000
GRID_ENTRIES_BAND = 0.02

# Joint search work is heavy-tailed (10^4 to over 10^8 expansions per
# instance), so each shape is filled to within 3% of a fixed expansion
# budget, redrawing any instance above a per-instance cap or past the
# budget; that keeps a pass's work steady across seeds. Every accepted
# instance exhausts far below the program's default work limit of 10^8.
JOINT_SHAPES = ((3, 9), (4, 6))
JOINT_CAP = 300_000
JOINT_BUDGET = 1_200_000
JOINT_BUDGET_SLACK = 0.97

INGEST_METERS = 100
INGEST_PERIODS = 1000
INGEST_SUB = (32, 60)
RANK_SAMPLES = 10_000

_PRIME_BITS = 24


def exp_readings(rng: np.random.Generator, n: int, t: int,
                 target_mean: float, others_mean: float) -> list[list[int]]:
    """Meter 0 from Exp(target_mean), the rest from Exp(others_mean), in whole Wh.

    One uniform draw per reading, row by row, through the inverse CDF and
    rounded half-up.
    """
    rows = []
    for i in range(n):
        mean = target_mean if i == 0 else others_mean
        draws = -mean * np.log1p(-rng.random(t))
        rows.append([int(x) for x in np.maximum(np.floor(draws + 0.5), 0.0)])
    return rows


def shuffle_periods(rng: np.random.Generator, rows: list[list[int]]) -> list[list[int]]:
    """Per period, meter i's reading moves to position perm[i] of a fresh permutation."""
    n = len(rows)
    periods = []
    for j in range(len(rows[0])):
        pos = rng.permutation(n)
        vals = [0] * n
        for i in range(n):
            vals[int(pos[i])] = rows[i][j]
        periods.append(vals)
    return periods


def instance_text(periods: list[list[int]], totals: list[int]) -> str:
    """The instance file format: meters, periods, totals, then one line per period."""
    lines = [f"meters {len(totals)}", f"periods {len(periods)}",
             "totals " + " ".join(map(str, totals))]
    lines += [f"period {j} " + " ".join(map(str, vals))
              for j, vals in enumerate(periods, start=1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# relaxed attack reference: dense counts modulo primes, rebuilt by CRT
# ---------------------------------------------------------------------------

def _primes_below(limit: int, count: int) -> list[int]:
    out = []
    c = limit - 1
    while len(out) < count:
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
            out.append(c)
        c -= 2
    return out


def marginal_reference(periods: list[list[int]], target: int) -> tuple[int, list[list[int]]]:
    """N and the marginal count grid of the relaxed attack, exactly.

    Stage tables are dense int64 arrays over every partial sum 0..target,
    one row per prime below 2^24. With target < 2^15 every dot product stays
    below 2^63. Enough primes are used that their product exceeds n^t, the
    largest possible count, so the Chinese remainder theorem recovers each
    count exactly.
    """
    t, n = len(periods), len(periods[0])
    if target >= 2**15:
        raise ValueError(f"target {target} too large for int64 dot products")
    primes = _primes_below(2**_PRIME_BITS, int(t * math.log2(n)) // (_PRIME_BITS - 1) + 2)
    mod = np.array(primes, dtype=np.int64)[:, None]
    width = target + 1
    unit = np.zeros((len(primes), width), dtype=np.int64)
    unit[:, 0] = 1

    def extend(table: np.ndarray, vals: list[int]) -> np.ndarray:
        out = np.zeros_like(table)
        for v, mult in Counter(vals).items():
            if v < width:
                out[:, v:] += mult * table[:, : width - v]
        return out % mod

    forward = [unit]
    for vals in periods:
        forward.append(extend(forward[-1], vals))
    big_m = math.prod(primes)
    basis = [(big_m // p) * pow(big_m // p, -1, p) for p in primes]

    def crt(residues) -> int:
        return sum(int(r) * b for r, b in zip(residues, basis)) % big_m

    rows: list[list[int]] = [[] for _ in range(t)]
    suffix = unit
    for j in range(t - 1, -1, -1):
        per_value = {}
        for v in set(periods[j]):
            rest = target - v
            if rest < 0:
                per_value[v] = 0
                continue
            dots = (forward[j][:, : rest + 1] * suffix[:, rest::-1]).sum(axis=1) % mod[:, 0]
            per_value[v] = crt(dots)
        rows[j] = [per_value[v] for v in periods[j]]
        suffix = extend(suffix, periods[j])
    return crt(forward[t][:, target]), rows


def dp_entries(periods: list[list[int]], target: int) -> int:
    """Keys the relaxed attack's forward and backward tables hold, stage 0 included.

    A forward stage keeps the partial sums of the periods so far from which
    the target is still reachable given the remaining periods' minima and
    maxima; a backward stage mirrors it over suffixes. Each stage's keys are
    counted by boolean reachability over 0..target.
    """
    t, width = len(periods), target + 1
    mins = [min(vals) for vals in periods]
    maxs = [max(vals) for vals in periods]
    entries = 0
    for order in (range(t), range(t - 1, -1, -1)):
        reach = np.zeros(width, dtype=bool)
        reach[0] = True
        entries += 1
        rest_lo, rest_hi = sum(mins), sum(maxs)
        for j in order:
            rest_lo -= mins[j]
            rest_hi -= maxs[j]
            nxt = np.zeros(width, dtype=bool)
            for v in set(periods[j]):
                if v < width:
                    nxt[v:] |= reach[: width - v]
            nxt[: max(target - rest_hi, 0)] = False
            nxt[max(target - rest_lo + 1, 0):] = False
            reach = nxt
            entries += int(nxt.sum())
    return entries


def entropies(total: int, rows: list[list[int]]) -> list[float]:
    """Shannon entropy in bits of each period's count / N distribution."""
    out = []
    for row in rows:
        h = -math.fsum(c / total * math.log2(c / total) for c in row if c)
        out.append(max(h, 0.0))
    return out


def relaxed_reference(periods: list[list[int]], target: int) -> dict:
    total, rows = marginal_reference(periods, target)
    per_period = entropies(total, rows)
    return {"total": total, "rows": rows, "entropies": per_period,
            "average": math.fsum(per_period) / len(per_period)}


# ---------------------------------------------------------------------------
# joint attack reference: breadth-first mirror of the depth-first search
# ---------------------------------------------------------------------------

def joint_reference(periods: list[list[int]], totals: list[int], cap: int) -> dict | None:
    """Joint solutions, expansions and agreed cells; None once past `cap` expansions.

    Uses the program's period order and per-meter min/max pruning, one
    whole depth at a time. The program tries all n! permutations at every
    node above depth t, so its expansion count is n! times the number of
    such nodes, which this search counts directly.
    """
    n, t = len(totals), len(periods)
    order = sorted(range(t), key=lambda j: (n - len(set(periods[j])), j))
    per = [np.array(periods[j], dtype=np.int64) for j in order]
    lo_rest = np.concatenate([np.cumsum([p.min() for p in per][::-1])[::-1], [0]])
    hi_rest = np.concatenate([np.cumsum([p.max() for p in per][::-1])[::-1], [0]])
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    goal = np.array(totals, dtype=np.int64)
    run = np.zeros((1, n), dtype=np.int64)
    links = []
    expansions = 0
    for d in range(t):
        expansions += len(run) * len(perms)
        if expansions > cap:
            return None
        grown = run[:, None, :] + per[d][perms][None, :, :]
        rem = goal - grown
        ok = ((rem >= lo_rest[d + 1]) & (rem <= hi_rest[d + 1])).all(axis=2)
        parent, perm = np.nonzero(ok)
        links.append((parent, perm))
        run = grown[parent, perm]
    grids = set()
    for leaf in range(len(run)):
        grid = [[0] * t for _ in range(n)]
        node = leaf
        for d in range(t - 1, -1, -1):
            parent, perm = links[d]
            p = perms[perm[node]]
            for i in range(n):
                grid[i][order[d]] = int(per[d][p[i]])
            node = parent[node]
        grids.add(tuple(tuple(r) for r in grid))
    ordered = sorted(grids)
    agreed = [[i, j, ordered[0][i][j]] for i in range(n) for j in range(t)
              if len({g[i][j] for g in ordered}) == 1] if ordered else []
    return {"expansions": expansions, "raw_count": len(run),
            "grids": [[list(r) for r in g] for g in ordered], "agreed": agreed}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def solve_job(seed: int) -> dict:
    """32 meters x 60 periods of Exp(100); seed 0 is criterion c11 exactly."""
    n, t = 32, 60
    for attempt in itertools.count():
        rng = np.random.Generator(np.random.PCG64(seed if attempt == 0 else [seed, attempt]))
        rows = exp_readings(rng, n, t, MEAN_WH, MEAN_WH)
        periods = shuffle_periods(np.random.Generator(np.random.PCG64(seed + 1)), rows)
        entries = dp_entries(periods, sum(rows[0]))
        if abs(entries - SOLVE_ENTRIES) <= SOLVE_ENTRIES_BAND * SOLVE_ENTRIES:
            break
    totals = [sum(r) for r in rows]
    text = instance_text(periods, totals)
    inputs_ok = seed != 0 or hashlib.sha256(text.encode()).hexdigest() == C11_SHA256
    return {"instance_text": text, "inputs_ok": inputs_ok,
            "expected": relaxed_reference(periods, totals[0])}


def _rep_seeds(master: int, n: int, t: int, rep: int) -> tuple[int, int]:
    # run_experiment's per-repetition seeding (cli._rep_seeds): SeedSequence([seed, n, t, rep])
    a, b = np.random.SeedSequence([master, n, t, rep]).generate_state(2, np.uint64)
    return int(a), int(b)


def _grid_instances(master: int) -> list[list[tuple[list[list[int]], int]]]:
    """Per grid cell, each repetition's shuffled periods and target total."""
    cells = []
    for grid in GRIDS:
        for t in grid["t_list"]:
            for n in grid["n_list"]:
                reps = []
                for rep in range(GRID_REPS):
                    mat_seed, anon_seed = _rep_seeds(master, n, t, rep)
                    rows = exp_readings(np.random.Generator(np.random.PCG64(mat_seed)), n, t,
                                        grid["target_mean"], grid["others_mean"])
                    periods = shuffle_periods(np.random.Generator(np.random.PCG64(anon_seed)), rows)
                    reps.append((periods, sum(rows[0])))
                cells.append(reps)
    return cells


def grids_job(seed: int) -> dict:
    """The two acceptance grids, with the expected entropy of every repetition.

    run_experiment synthesises the grids itself from a master seed: the seed,
    or a redraw derived from it when the seed's work falls outside the band.
    """
    for attempt in itertools.count():
        master = seed + (attempt << 32)
        instances = _grid_instances(master)
        entries = sum(dp_entries(*rep) for cell in instances for rep in cell)
        if abs(entries - GRID_ENTRIES) <= GRID_ENTRIES_BAND * GRID_ENTRIES:
            break
    grids = []
    cells = iter(instances)
    for grid in GRIDS:
        grid_cells = []
        for t in grid["t_list"]:
            for n in grid["n_list"]:
                values = [relaxed_reference(*rep)["average"] for rep in next(cells)]
                grid_cells.append({"n": n, "t": t, "values": values})
        grids.append({**grid, "cells": grid_cells})
    return {"grids": grids, "reps": GRID_REPS, "seed": master, "inputs_ok": True}


def joint_job(seed: int) -> dict:
    """Instances of each shape, drawn from one stream, until the shape's budget is filled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    instances = []
    for n, t in JOINT_SHAPES:
        work = 0
        while work < JOINT_BUDGET_SLACK * JOINT_BUDGET:
            rows = exp_readings(rng, n, t, MEAN_WH, MEAN_WH)
            periods = shuffle_periods(rng, rows)
            totals = [sum(r) for r in rows]
            ref = joint_reference(periods, totals, min(JOINT_CAP, JOINT_BUDGET - work))
            if ref is None:
                continue
            work += ref["expansions"]
            instances.append({"periods": periods, "totals": totals, "expected": ref})
    return {"instances": instances, "inputs_ok": True}


def _kwh(wh: int) -> str:
    return f"{wh // 1000}.{wh % 1000:03d}"


def _cvm(vals: list[float], cdf) -> float:
    m = len(vals)
    x = np.sort(np.array(vals))
    i = np.arange(1, m + 1)
    return 1.0 / (12.0 * m) + float(np.sum(((2 * i - 1) / (2 * m) - cdf(x)) ** 2))


def rank_reference(samples: list[int]) -> list[dict]:
    """Exponential and normal fits ranked by Cramer-von Mises W2, best first."""
    vals = [float(v) for v in samples]
    mean = math.fsum(vals) / len(vals)
    sd = math.sqrt(statistics.variance(vals, xbar=mean))
    fits = [
        {"family": "exponential",
         "cvm": _cvm(vals, lambda x: np.where(x > 0, -np.expm1(-x / mean), 0.0))},
        {"family": "normal",
         "cvm": _cvm(vals, lambda x: np.array([0.5 * math.erfc((mean - v) / (sd * math.sqrt(2)))
                                               for v in x]))},
    ]
    return sorted(fits, key=lambda f: f["cvm"])


def ingest_job(seed: int) -> dict:
    """A 10^5-line kWh CSV and what each ingest step must make of it."""
    rows = exp_readings(np.random.Generator(np.random.PCG64(seed)),
                        INGEST_METERS, INGEST_PERIODS, MEAN_WH, MEAN_WH)
    lines = ["meter_id,period,kwh"]
    for i, row in enumerate(rows):
        lines += [f"m{i + 1},{j + 1},{_kwh(v)}" for j, v in enumerate(row)]
    n_sub, t_sub = INGEST_SUB
    # select_submatrix's documented draw: a sorted meter subset, then a window start
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = sorted(int(i) for i in rng.choice(INGEST_METERS, size=n_sub, replace=False))
    start = int(rng.integers(0, INGEST_PERIODS - t_sub + 1))
    sub = [rows[i][start:start + t_sub] for i in picked]
    periods = shuffle_periods(np.random.Generator(np.random.PCG64(seed + 1)), sub)
    totals = [sum(r) for r in sub]
    samples = [v for row in rows for v in row][:RANK_SAMPLES]
    return {
        "csv_text": "\n".join(lines) + "\n",
        "subset": {"n": n_sub, "t": t_sub, "seed": seed, "anon_seed": seed + 1},
        "rank_samples": RANK_SAMPLES,
        "inputs_ok": True,
        "expected": {"rows": rows, "sub": sub, "periods": periods, "totals": totals,
                     "instance_text": instance_text(periods, totals),
                     "ranking": rank_reference(samples)},
    }


def joint_ingest_job(seed: int) -> dict:
    return {"joint": joint_job(seed), "ingest": ingest_job(seed), "inputs_ok": True}


JOBS = {
    "solve-n32-t60": solve_job,
    "experiment-grids": grids_job,
    "joint-ingest": joint_ingest_job,
}
