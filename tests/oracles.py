"""Independent references the solver tests check against.

The brute-force references enumerate the full search space directly
(cartesian products and permutation products); nothing is shared with the
dynamic-programming or block-search implementations under test. joint_dfs is
the joint search as a plain recursive walk over whole permutations, kept as
an exact reference for the solver's solutions, counts and expansions. The dict
references count with the same recurrence as the solver, but in exact Python
integers over {partial sum: count} dicts, with no residues. The tilting
references approximate the relaxed attack's entropy by exponential tilting,
for cells far too large to enumerate. readings_loop is the readings CSV
parser as a plain per-line loop over a dict of cells, kept as an exact
reference for the column-at-a-time parser's values and error texts.
"""

import itertools
from collections import Counter

import numpy as np

from anonmeter.model import ReadingMatrix, anonymize, build_ground_truth


def selection_sums(periods):
    """Sums of all n**t selections; flat index encodes positions, first period most significant."""
    sums = np.zeros(1, dtype=np.int64)
    for vals in periods:
        sums = (sums[:, None] + np.asarray(vals, dtype=np.int64)[None, :]).ravel()
    return sums


def count_solutions(periods, target):
    return int(np.count_nonzero(selection_sums(periods) == target))


def solution_indices(periods, target):
    return np.nonzero(selection_sums(periods) == target)[0]


def decode_position(flat_index, n, t, j):
    """Position selected at period j by the selection with this flat index."""
    return (flat_index // n ** (t - 1 - j)) % n


def marginal_grid(periods, target):
    """counts[j][k] by exhaustive enumeration, as a t x n tuple grid."""
    n = len(periods[0])
    t = len(periods)
    sol = solution_indices(periods, target)
    grid = []
    for j in range(t):
        digits = decode_position(sol, n, t, j)
        grid.append(tuple(int(x) for x in np.bincount(digits, minlength=n)))
    return tuple(grid)


def all_selections(periods, target):
    """Every solution as a position tuple, in lexicographic order."""
    n = len(periods[0])
    t = len(periods)
    out = []
    for combo in itertools.product(range(n), repeat=t):
        if sum(periods[j][combo[j]] for j in range(t)) == target:
            out.append(combo)
    return out


def dict_stages(periods, target):
    """Forward DP stages as {partial sum: exact count}, zero counts dropped.

    stages[j] counts selections over periods[:j] by partial sum, keeping only
    sums from which periods[j:] can still reach the target given their
    minima and maxima; stages[0] is {0: 1}.
    """
    lo_rest = sum(min(p) for p in periods)
    hi_rest = sum(max(p) for p in periods)
    stages = [{0: 1}]
    for vals in periods:
        lo_rest -= min(vals)
        hi_rest -= max(vals)
        nxt = {}
        for v, mult in Counter(vals).items():
            for s, c in stages[-1].items():
                if target - hi_rest <= s + v <= target - lo_rest:
                    nxt[s + v] = nxt.get(s + v, 0) + c * mult
        stages.append(nxt)
    return stages


def dict_marginals(periods, target):
    """(N, counts[j][k]) from forward and backward dict stages, in exact integers."""
    fwd = dict_stages(periods, target)
    bwd = dict_stages(periods[::-1], target)[::-1]  # bwd[j] counts periods[j:]
    rows = []
    for j, vals in enumerate(periods):
        per_value = {
            v: sum(c * bwd[j + 1].get(target - v - s, 0) for s, c in fwd[j].items())
            for v in set(vals)
        }
        rows.append(tuple(per_value[v] for v in vals))
    return fwd[-1].get(target, 0), tuple(rows)


def joint_value_grids(periods, totals):
    """Value-distinct joint solutions by brute force over (n!)**t permutation tuples."""
    n = len(totals)
    t = len(periods)
    grids = set()
    for tup in itertools.product(itertools.permutations(range(n)), repeat=t):
        ok = True
        for i in range(n):
            if sum(periods[j][tup[j][i]] for j in range(t)) != totals[i]:
                ok = False
                break
        if ok:
            grids.add(tuple(tuple(periods[j][tup[j][i]] for j in range(t)) for i in range(n)))
    return grids


def joint_dfs(periods, totals, work_limit):
    """(solutions, raw_count, exhausted, expansions) of the joint search, one permutation at a time.

    Recursive depth-first search over full per-period permutations in
    itertools order, pruned per meter with the min/max of the periods left;
    periods with fewer repeated values come first. One expansion is one
    permutation tried at one node, and the search stops the moment
    expansions exceed work_limit. Among permutation tuples with identical
    values the first found represents them; representatives are sorted by
    their value grids.
    """
    n, t = len(totals), len(periods)
    order = sorted(range(t), key=lambda j: (n - len(set(periods[j])), j))
    per = [periods[j] for j in order]
    lo_rest = [0] * (t + 1)
    hi_rest = [0] * (t + 1)
    for d in range(t - 1, -1, -1):
        lo_rest[d] = lo_rest[d + 1] + min(per[d])
        hi_rest[d] = hi_rest[d + 1] + max(per[d])
    run = [0] * n
    chosen = []
    raw = []
    expansions = 0
    stopped = False

    def walk(d):
        nonlocal expansions, stopped
        if d == t:
            canon = [None] * t
            for pos, p in zip(order, chosen):
                canon[pos] = p
            raw.append(tuple(canon))
            return
        for p in itertools.permutations(range(n)):
            expansions += 1
            if expansions > work_limit:
                stopped = True
                return
            ok = True
            for i in range(n):
                rem = totals[i] - run[i] - per[d][p[i]]
                if rem < lo_rest[d + 1] or rem > hi_rest[d + 1]:
                    ok = False
                    break
            if ok:
                for i in range(n):
                    run[i] += per[d][p[i]]
                chosen.append(p)
                walk(d + 1)
                chosen.pop()
                for i in range(n):
                    run[i] -= per[d][p[i]]
                if stopped:
                    return

    walk(0)
    first = {}
    for sol in raw:
        grid = tuple(tuple(periods[j][sol[j][i]] for j in range(t)) for i in range(n))
        first.setdefault(grid, sol)
    solutions = tuple(first[g] for g in sorted(first))
    return solutions, len(raw), not stopped, expansions


def random_anonymized(rng, n, t, vmax=200):
    """A consistent instance plus its secret record, from uniform random readings."""
    rows = [[int(rng.integers(0, vmax + 1)) for _ in range(t)] for _ in range(n)]
    gt = build_ground_truth(ReadingMatrix.from_rows(rows))
    return anonymize(gt, seed=int(rng.integers(0, 2**32)))


def readings_loop(text, header, parse_value):
    """ReadingMatrix of a readings CSV, one line at a time; raises the parser's ValueError texts.

    parse_value(field, lineno) turns a stripped value field into exact Wh.
    Blank lines are skipped and errors name the physical line. Meters are
    ordered by first appearance; period ids are sorted and re-indexed.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"line 1: expected header {header!r}")
    cells = {}
    meters = []
    seen = set()
    period_ids = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields")
        mid, period_s, value_s = (p.strip() for p in parts)
        if not mid:
            raise ValueError(f"line {lineno}: empty meter_id")
        if not (period_s.isascii() and period_s.isdigit()):
            raise ValueError(f"line {lineno}: invalid period {period_s!r}")
        pid = int(period_s)
        wh = parse_value(value_s, lineno)
        key = (mid, pid)
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate reading for meter {mid!r}, period {pid}")
        cells[key] = wh
        if mid not in seen:
            seen.add(mid)
            meters.append(mid)
        period_ids.add(pid)
    if not cells:
        raise ValueError("no records after the header")
    ordered_periods = sorted(period_ids)
    rows = []
    for mid in meters:
        row = []
        for pid in ordered_periods:
            if (mid, pid) not in cells:
                raise ValueError(f"missing reading for meter {mid!r}, period {pid}")
            row.append(cells[(mid, pid)])
        rows.append(tuple(row))
    return ReadingMatrix(n=len(meters), t=len(ordered_periods), readings=tuple(rows))


def tilted_entropy(values, totals):
    """Exponential-tilting estimate of the relaxed attack's average entropy, in bits.

    values has shape (cells, t, n): each cell's t anonymized periods of n
    readings; totals has shape (cells,): each cell's target total. By the
    Gibbs conditioning principle (Csiszar 1984), a uniform pick of one value
    per period, conditioned on the picks summing to the total, has per-period
    marginals close to p_k proportional to exp(theta * v_k), with theta set so
    that the expected sum of the picks equals the total. Returns each cell's
    mean over periods of the entropy of those marginals.

    This is an approximation, not an exact count. On the 20 master-seed-0
    repetitions of the n = 16, t = 15 cell with an Exp(500 Wh) target among Exp(100 Wh)
    meters it is within 0.024 bits of the exact per-repetition value, and
    its 20-repetition mean is 2.238 bits against the exact 2.232.
    """
    v = np.asarray(values, dtype=np.float64)
    target = np.asarray(totals, dtype=np.float64)
    # theta solves sum_j E[v_j] = total: safeguarded Newton inside a bracket
    # wide enough that its ends act as +-infinity for integer Wh readings.
    theta = np.zeros(len(v))
    lo = np.full(len(v), -50.0)
    hi = np.full(len(v), 50.0)
    active = np.arange(len(v))
    for _ in range(100):
        if active.size == 0:
            break
        va = v[active]
        p = _tilted_marginals(va, theta[active])
        mean = (p * va).sum(axis=2)
        var = (p * (va - mean[:, :, None]) ** 2).sum(axis=2).sum(axis=1)
        excess = mean.sum(axis=1) - target[active]
        lo[active] = np.where(excess < 0, theta[active], lo[active])
        hi[active] = np.where(excess > 0, theta[active], hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta[active] - excess / var
        inside = (step > lo[active]) & (step < hi[active])
        theta[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        done = (np.abs(excess) <= 1e-9 * (1.0 + np.abs(target[active]))) | (
            hi[active] - lo[active] <= 1e-12
        )
        active = active[~done]
    p = _tilted_marginals(v, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    return -plogp.sum(axis=2).mean(axis=1)


def _tilted_marginals(values, theta):
    """p[c, j, k] proportional to exp(theta[c] * values[c, j, k]) within each period."""
    z = theta[:, None, None] * values
    w = np.exp(z - z.max(axis=2, keepdims=True))
    return w / w.sum(axis=2, keepdims=True)


def tilted_population_mean(n, t, target_mean, others_mean, seed):
    """Population mean of tilted_entropy over 4000 cells drawn from np.random.default_rng(seed).

    Meter 0 of each cell reads Exp(target_mean) and meters 1..n-1 read
    Exp(others_mean), in Wh, rounded half up and clamped at 0; meter 0 is the
    target. A period's order does not change any entropy, so the cells are
    left unshuffled. At n = 16, t = 15 with target mean 500 and others 100 the
    result is 2.277 bits at seed 0 and 2.258-2.277 over seeds 0-3, with a
    standard error of about 0.008 bits.
    """
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.exponential(target_mean, size=(4000, t, 1)),
                            rng.exponential(others_mean, size=(4000, t, n - 1))], axis=2)
    values = np.maximum(np.floor(draws + 0.5), 0.0)
    return float(tilted_entropy(values, values[:, :, 0].sum(axis=1)).mean())


def experiment_cell_readings(master, n, t, reps, target_mean, others_mean):
    """The (values, totals) of every repetition of one synthetic experiment cell.

    Rebuilds each repetition from the documented derivation rather than the
    sampler: SeedSequence([master, n, t, rep]) yields two 64-bit words, the
    first seeds one PCG64 stream that is read row by row through the
    exponential inverse CDF, meter 0 at target_mean, the rest at others_mean,
    rounded half up to Wh. The second word only seeds the period shuffles,
    which no entropy depends on, so it is not used.
    """
    cells = []
    for rep in range(reps):
        mat_seed, _ = np.random.SeedSequence([master, n, t, rep]).generate_state(2, np.uint64)
        rng = np.random.Generator(np.random.PCG64(int(mat_seed)))
        rows = [-(target_mean if i == 0 else others_mean) * np.log1p(-rng.random(t))
                for i in range(n)]
        cells.append(np.maximum(np.floor(np.array(rows).T + 0.5), 0.0))
    values = np.array(cells)
    return values, values[:, :, 0].sum(axis=1)
