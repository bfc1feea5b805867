"""Exact counting of single-meter selections hitting a billing total.

A selection picks one position per period; a selection is a solution when its
values sum to the target meter's total. The number of solutions can reach
n**t, far past any machine word, yet every count comes out as an exact Python
integer. One dynamic-programming kernel counts selections stage by stage over
partial sums, counted in units of the gcd of all readings. Each stage is a
dense array holding only the window of partial sums from which the target is
still reachable. The count bound n**t picks its rows. Below 2**63, int64
holds every count exactly: a stage entry is at most n**j and a combine's
dot product counts solutions, so at most N. A stage is then one int64 row
of exact counts, with no reduction. Otherwise a stage holds one int32 row
of residues per prime. A stage sum before reduction is at most n * (p - 1),
so the primes are the largest below 2**24 and below 2**31 / n: for up to
128 meters that is every prime below 2**24, and more meters take more,
smaller primes. Enough primes are taken that their product exceeds n**t,
so the Chinese remainder theorem rebuilds every count exactly (a residue
number system, Knuth TAOCP vol. 2, section 4.3.2). A window's width
follows the spread of the readings in gcd units, not the number of sums
actually reachable, so a few readings far above the rest widen every
window. Per-period marginals come from one tap plan, computed once from
the windows: per period, each distinct value's slice of stage j and the
columns of stage j + 1 it adds into. The backward pass runs first, and its
stages are stored. It is the forward step transposed (as in Rabiner's
forward-backward algorithm, Proc. IEEE 77(2), 1989): from ones at the
target, each tap adds its columns of stage j + 1 back into its slice of
stage j, so every backward stage has its forward stage's columns. The
forward pass runs the taps as slice-adds, fused with the combine: each
tap's slice of forward stage j meets the backward stage j + 1 columns it
fed in one int64 dot product. Exact counts come straight from those, and
one CRT pass per period rebuilds the counts of all its distinct values
from residues.
Since a window is no wider than the spread of the periods before it, nor of
those after it, the periods run with small spreads at both ends and large
ones in the middle.
Every window is arithmetic on the periods' minima and maxima and the target,
so a solve is planned, and its live peak checked, before any table exists.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import AnonymizedInstance


class NoSolutionsError(ValueError):
    """The instance admits no selection hitting the target total."""


class ResourceLimitError(RuntimeError):
    """A solve exceeded its table or wall-clock budget."""


# The guard's accounting unit: one entry is 96 bytes of stage table.
_TABLE_ENTRY_BYTES = 96
_PRIME_LIMIT = 2**24
# Residues are below 2**24, so a product is below 2**48 and a sum of 2**14
# products (plus a reduced partial sum) stays below 2**63.
_DOT_CHUNK = 2**14


@dataclass
class ResourceGuard:
    """Budgets of one solve: the live peak of its tables, and wall-clock time.

    marginal_counts charges its live peak in bytes once, before it allocates
    any table; entries holds it rounded up to whole 96-byte entries, and
    max_entries limits it. The deadline is checked once per stage of a pass.
    """

    max_entries: int | None = None
    deadline: float | None = None
    entries: int = 0

    @classmethod
    def from_budgets(cls, mem_budget_gib: float, time_budget_s: float) -> ResourceGuard:
        """A guard of finite budgets, starting its clock now; ResourceGuard() has none."""
        return cls(max_entries=int(mem_budget_gib * 2**30 / _TABLE_ENTRY_BYTES),
                   deadline=time.monotonic() + time_budget_s)

    def charge(self, peak_bytes: int) -> None:
        self.entries = -(-peak_bytes // _TABLE_ENTRY_BYTES)
        if self.max_entries is not None and self.entries > self.max_entries:
            raise ResourceLimitError(
                f"table budget exceeded: live peak of {self.entries} entries > {self.max_entries}"
            )

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("wall-clock budget exceeded")


@dataclass(frozen=True)
class CountTable:
    """Stage-by-stage solution counts keyed by achievable partial sum.

    Forward tables: stages[j] counts selections over periods 0..j-1, so
    stages[0] is {0: 1} and stages[t] holds the full count at the target.
    Backward tables: stages[j] counts selections over periods j..t-1, so
    stages[t] is {0: 1} and stages[0] holds the full count at the target.
    Keys never exceed the target; sums that cannot be extended to hit the
    target (given the min/max achievable over the remaining periods) are
    dropped, so no zero-count entries are stored.
    """

    target: int
    stages: tuple[dict[int, int], ...]
    total_solutions: int


@dataclass(frozen=True)
class MarginalCounts:
    """Per-period, per-position solution counts for one target meter.

    counts[j][k] is the number of full solutions that select position k at
    period j; every row sums to total_solutions. Indices are 0-based.
    """

    target_meter: int
    target_total: int
    total_solutions: int
    counts: tuple[tuple[int, ...], ...]


# Per prime limit, the primes below it found so far, largest first; each is
# searched for once.
_PRIMES: dict[int, list[int]] = {}


def _primes(bound: int, n: int = 1) -> tuple[int, ...]:
    """The fewest largest primes p below 2**24 and below 2**31 / n whose product exceeds bound.

    A stage sum of n residues, at most n * (p - 1), then fits in int32. The
    limit 2**31 / n is rounded down to a power of two, so that up to 128
    meters share the primes below 2**24, and each doubling of n past that
    halves the limit.
    """
    limit = min(_PRIME_LIMIT, 2**31 >> (n - 1).bit_length())
    found = _PRIMES.setdefault(limit, [])
    k, product = 0, 1
    while product <= bound:
        if k == len(found):
            c = found[-1] - 2 if found else limit - 1
            while c >= 3 and not all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
                c -= 2
            if c < 3:
                raise ValueError(f"too few odd primes below {limit} to exceed {bound}")
            found.append(c)
        product *= found[k]
        k += 1
    return tuple(found[:k])


def _moduli(bound: int, n: int) -> tuple[int, ...]:
    """The primes of a residue table for counts up to bound; none when int64 holds them exactly."""
    return () if bound <= np.iinfo(np.int64).max else _primes(bound, n)


@functools.cache
def _crt_basis(primes: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The CRT basis of the primes, and their product M.

    The integer below M with residues r is sum(r * basis) mod M.
    """
    big_m = math.prod(primes)
    return tuple((big_m // p) * pow(big_m // p, -1, p) for p in primes), big_m


def _crt(residues: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """Per row of residues modulo the primes, reduced or not, the integer below their product.

    With no primes, each row is one exact count, returned as it is.
    """
    if not primes:
        return residues.ravel().tolist()
    basis, big_m = _crt_basis(primes)
    return [sum(map(operator.mul, row, basis)) % big_m for row in residues.tolist()]


def _units(periods: Sequence[Sequence[int]], target: int) -> tuple:
    """(gcd, target bounds, value tables, value ranges) of the readings.

    The gcd is 1 if all readings are 0; every partial sum is a multiple of
    it, so 100 Wh steps cost no more than 1 Wh steps. The target bounds are
    the target in gcd units rounded up and down. Per period, walked once,
    the value table counts each distinct reading, and the range is its
    (least, greatest) reading in gcd units.
    """
    values = [Counter(vals) for vals in periods]
    step = math.gcd(*itertools.chain.from_iterable(values)) or 1
    ranges = [(min(c) // step, max(c) // step) for c in values]
    return step, (-(-target // step), target // step), values, ranges


def _plan(ranges: Sequence[tuple[int, int]], target: tuple[int, int]) -> list[tuple[int, int]]:
    """(lowest partial sum, width) of the window of every stage 0..t of the DP.

    Stage j's window holds the sums reachable from periods :j from which
    periods j: can still reach target[0]..target[1], given their ranges.
    """
    lo_all, hi_all = map(sum, zip(*ranges))
    lo_pre = hi_pre = 0
    plan = [(0, 1)]
    for lo_v, hi_v in ranges:
        lo_pre, hi_pre = lo_pre + lo_v, hi_pre + hi_v
        # the periods after stage j add lo_all - lo_pre to hi_all - hi_pre
        lo = max(lo_pre, target[0] - hi_all + hi_pre)
        plan.append((lo, max(min(hi_pre, target[1] - lo_all + lo_pre) - lo + 1, 0)))
    return plan


# A tap (r, m, src, a, b): see _taps.
_Tap = tuple[int, int, int, int, int]


def _taps(values: list[Counter], plan: Sequence[tuple[int, int]], step: int) -> list[list[_Tap]]:
    """Per period j, the taps (r, m, src, a, b) that build stage j + 1 from stage j.

    The r-th reading v of values[j], of multiplicity m, is v // step in gcd
    units and adds m times columns [src, src + b - a) of stage j into
    columns [a, b) of stage j + 1, as plan lays their windows out; a value
    whose shifted window misses stage j + 1's has no tap. The taps are plain
    arithmetic on the plan, so they exist before any table does.
    """
    taps = []
    for vals, (lo, w), (new_lo, width) in zip(values, plan, plan[1:]):
        period = []
        for r, (v, m) in enumerate(vals.items()):
            # column i of stage j + 1 adds column i + shift of stage j, where
            # both exist; conditionals cost less than min and max calls here
            shift = new_lo - v // step - lo
            a = -shift if shift < 0 else 0
            b = width if w - shift > width else w - shift
            if a < b:
                period.append((r, m, a + shift, a, b))
        taps.append(period)
    return taps


def _table(width: int, primes: Sequence[int]) -> np.ndarray:
    """A zeroed stage table: one int32 row of residues per prime, or one int64 row of counts."""
    if primes:
        return np.zeros((len(primes), width), dtype=np.int32)
    return np.zeros(width, dtype=np.int64)


def _stages(
    plan: Sequence[tuple[int, int]],
    taps: Sequence[Sequence[_Tap]],
    primes: Sequence[int],
    guard: ResourceGuard,
) -> Iterator[np.ndarray]:
    """Yield the tables of stages 0..t of the DP, built by the taps.

    Stage j counts selections over periods 0..j-1 by partial sum, one column
    per sum in plan[j]'s window. Stage 0 is a row of ones over plan[0]'s
    window, the sum 0.
    """
    mods = np.array(primes, dtype=np.int32)[:, None]
    table = _table(plan[0][1], primes)
    table += 1
    yield table
    for period, (_, width) in zip(taps, plan[1:]):
        guard.check_time()
        out = _table(width, primes)
        # the multiplicities add up to n, so every sum is at most n * (p - 1),
        # inside int32 by the choice of primes, or at most n**(j + 1), inside
        # int64 when counts are exact
        for _, m, src, a, b in period:
            add = table[..., src : src + b - a]
            out[..., a:b] += add if m == 1 else m * add
        if primes:
            # a third of np.remainder's time on int32
            out -= out // mods * mods
        table = out
        yield table


def _backward(
    plan: Sequence[tuple[int, int]],
    taps: Sequence[Sequence[_Tap]],
    primes: Sequence[int],
    guard: ResourceGuard,
) -> list[np.ndarray]:
    """The backward tables of stages t..0, last stage first, in the forward windows.

    Backward stage j counts, per partial sum s in plan[j]'s window, the
    selections over periods j..t-1 that take s to the target. Stage t is a
    row of ones over plan[t]'s window, which holds the target alone, or
    nothing when the target is off the gcd or out of reach. Each earlier
    stage is the transpose of a forward step: every tap of period j adds m
    times columns [a, b) of stage j + 1 back into columns [src, src + b - a)
    of stage j, with the same sum bounds.
    """
    mods = np.array(primes, dtype=np.int32)[:, None]
    # every table is allocated before the pass, stage 0's first: the forward
    # sweep frees them from stage 1 up, in allocation order, and its own
    # tables reuse that memory; freed last-allocated first, they shrank the
    # heap every period, and each period's new tables faulted in fresh pages
    stages = [_table(w, primes) for _, w in plan][::-1]
    stages[0] += 1
    for period, table, out in zip(taps[::-1], stages, stages[1:]):
        guard.check_time()
        for _, m, src, a, b in period:
            add = table[..., a:b]
            out[..., src : src + b - a] += add if m == 1 else m * add
        if primes:
            out -= out // mods * mods
    return stages


def _dict_stages(periods: Sequence[Sequence[int]], n: int, target: int) -> list[dict[int, int]]:
    """The kernel's stages as {partial sum: exact count}, nonzero counts only."""
    if target < 0:
        raise ValueError(f"target total must be non-negative, got {target}")
    primes = _moduli(n ** len(periods), n)
    step, bounds, values, ranges = _units(periods, target)
    plan = _plan(ranges, bounds)
    stages = _stages(plan, _taps(values, plan, step), primes, ResourceGuard())
    return [
        {step * (lo + i): count for i, count in enumerate(_crt(table.T, primes)) if count}
        for (lo, _), table in zip(plan, stages)
    ]


def forward_counts(inst: AnonymizedInstance, target_total: int) -> CountTable:
    """Count selections over growing period prefixes; stage t holds N at the target key."""
    stages = _dict_stages(inst.periods, inst.n, target_total)
    return CountTable(target_total, tuple(stages), stages[-1].get(target_total, 0))


def backward_counts(inst: AnonymizedInstance, target_total: int) -> CountTable:
    """Count selections over shrinking period suffixes: the kernel over the reversed periods."""
    stages = _dict_stages(inst.periods[::-1], inst.n, target_total)
    return CountTable(target_total, tuple(stages[::-1]), stages[-1].get(target_total, 0))


def _dot(a: np.ndarray, b: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """Row-wise dot products of int64 residue arrays, below 2**63.

    Wide rows are reduced modulo mods once per chunk; over many wide rows
    einsum's sum-of-products loop is the faster one.
    """
    if a.shape[1] <= _DOT_CHUNK:
        return np.einsum("kl,kl->k", a, b)
    acc = np.zeros(len(mods), dtype=np.int64)
    for start in range(0, a.shape[1], _DOT_CHUNK):
        stop = start + _DOT_CHUNK
        acc += np.einsum("kl,kl->k", a[:, start:stop], b[:, start:stop])
        acc %= mods
    return acc


def marginal_counts(
    inst: AnonymizedInstance, target_meter: int, guard: ResourceGuard | None = None
) -> MarginalCounts:
    """Count, per period and position, the solutions selecting that position.

    counts[j][k] = sum over s of forward[j][s] * backward[j+1][s + v]
    where v is the value at position k of period j, and backward[j+1][u]
    counts the selections over periods j+1.. that take the partial sum u to
    the target. Equal values within a period necessarily receive equal
    counts. Raises NoSolutionsError when the instance admits no solution at
    all, since the downstream probabilities would be undefined.
    """
    if not 0 <= target_meter < inst.n:
        raise ValueError(f"target meter must be in 0..{inst.n - 1}, got {target_meter}")
    target, t = inst.totals[target_meter], inst.t
    primes = _moduli(inst.n**t, inst.n)
    mods = np.array(primes, dtype=np.int64)
    step, bounds, values, ranges = _units(inst.periods, target)
    # small spreads at both ends, large ones in the middle (module docstring), ties in file order
    by_spread = sorted(range(t), key=[hi - lo for lo, hi in ranges].__getitem__)
    order = by_spread[::2] + by_spread[1::2][::-1]
    values = [values[j] for j in order]
    guard = guard or ResourceGuard()
    plan = _plan([ranges[j] for j in order], bounds)
    # live at once: every backward stage and two forward stages, plus the
    # int64 copies of the two residue tables a period combines; exact counts
    # are int64 already and combine uncopied
    pair = max(w + v for (_, w), (_, v) in zip(plan, plan[1:]))
    entries = sum(w for _, w in plan) + pair
    guard.charge(4 * len(primes) * (entries + 2 * pair) if primes else 8 * entries)
    taps = _taps(values, plan, step)
    backward = _backward(plan, taps, primes, guard)
    # backward stage 0 holds the sum 0 alone; its count is 0 when the target
    # is off the gcd or out of reach, as stage t's window is then empty
    n_total = _crt(backward.pop().T, primes)[0]
    if n_total == 0:
        raise NoSolutionsError(
            f"no selection over {t} period{'' if t == 1 else 's'} sums to {target} "
            f"(meter {target_meter + 1})"
        )
    rows = [()] * t
    # the forward stage t is never built: zip stops at the last period
    forward = _stages(plan, taps, primes, guard)
    for j, vals, period, pre in zip(order, values, taps, forward):
        # each tap's slice of forward stage j meets the columns of backward
        # stage j + 1 that it adds into
        if primes:
            # products of residues below 2**24 need int64
            pre64, post64 = pre.astype(np.int64), backward.pop().astype(np.int64)
            dots = np.zeros((len(vals), len(primes)), dtype=np.int64)
            for r, _, src, a, b in period:
                dots[r] = _dot(pre64[:, src : src + b - a], post64[:, a:b], mods)
            # freed before the next stage is built: held until the next
            # period's copies, they raised the process's peak RSS
            del pre64, post64
            counts = _crt(dots, primes)
        else:
            # each product counts the solutions through one cell: at most N
            post, counts = backward.pop(), [0] * len(vals)
            for r, _, src, a, b in period:
                counts[r] = int(pre[src : src + b - a].dot(post[a:b]))
        per_reading = dict(zip(vals, counts))
        rows[j] = tuple(map(per_reading.__getitem__, inst.periods[j]))
        assert sum(rows[j]) == n_total, f"period {j} marginals do not sum to N"
    return MarginalCounts(target_meter, target, n_total, tuple(rows))
