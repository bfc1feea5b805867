"""Exact counting of single-meter selections hitting a billing total.

A selection picks one position per period; a selection is a solution when its
values sum to the target meter's total. The number of solutions can reach
n**t, far past any machine word, yet every count comes out as an exact Python
integer. One dynamic-programming kernel counts selections stage by stage over
partial sums, counted in units of the gcd of all readings. Each stage is a
dense int32 array holding only the window of partial sums from which the
target is still reachable, with one row of residues per prime. A stage sum
before reduction is at most n * (p - 1), so the primes are the largest below
2**24 and below 2**31 / n: for up to 128 meters that is every prime below
2**24, and more meters take more, smaller primes. A window's width follows
the spread of the readings in those units, not the number of sums actually
reachable, so a few readings far above the rest widen every window. Enough
primes are taken that their product exceeds n**t, so the Chinese remainder
theorem rebuilds every count exactly (a residue number system, Knuth TAOCP
vol. 2, section 4.3.2). Per-period marginals come from the kernel run once
backward (over the reversed periods, stored) and once forward, fused with
the combine. One plan serves both passes: each backward window is a forward
window mirrored about the target, so the reversed backward stage j + 1 has
the columns of forward stage j + 1, and the slice of forward stage j that a
value adds into stage j + 1 also feeds that value's int64 dot product with
it; one CRT pass per period rebuilds the counts of all its distinct values.
Since a window is no wider than the spread of the periods before it, nor of
those after it, the periods run with small spreads at both ends and large
ones in the middle.
Every window is arithmetic on the periods' minima and maxima and the target,
so a solve is planned, and its live peak checked, before any table exists.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _crt_basis(primes: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The CRT basis of the primes, and their product M.

    The integer below M with residues r is sum(r * basis) mod M.
    """
    big_m = math.prod(primes)
    return tuple((big_m // p) * pow(big_m // p, -1, p) for p in primes), big_m


def _crt(residues: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """Per row of residues modulo the primes, reduced or not, the integer below their product."""
    basis, big_m = _crt_basis(primes)
    return [sum(map(operator.mul, row, basis)) % big_m for row in residues.tolist()]


def _units(periods: Sequence[Sequence[int]], target: int) -> tuple[int, tuple[int, int], list]:
    """Readings in units of their gcd: (gcd, target bounds, value table).

    The gcd is 1 if all readings are 0; every partial sum is a multiple of
    it, so 100 Wh steps cost no more than 1 Wh steps. The target bounds are
    the target in those units rounded up and down; the value table maps, per
    period, each distinct reading in those units to its multiplicity.
    """
    step = math.gcd(*(v for vals in periods for v in vals)) or 1
    values = [Counter(v // step for v in vals) for vals in periods]
    return step, (-(-target // step), target // step), values


def _plan(values: Sequence[dict[int, int]], target: tuple[int, int]) -> list[tuple[int, int]]:
    """(lowest partial sum, width) of the window of every stage 0..t of the DP over values.

    Stage j's window holds the sums reachable from values[:j] from which
    values[j:] can still reach target[0]..target[1], given their minima and maxima.
    """
    lo_rest, hi_rest = sum(map(min, values)), sum(map(max, values))
    lo_pre = hi_pre = 0
    plan = [(0, 1)]
    for vals in values:
        lo_pre, hi_pre = lo_pre + min(vals), hi_pre + max(vals)
        lo_rest, hi_rest = lo_rest - min(vals), hi_rest - max(vals)
        lo = max(lo_pre, target[0] - hi_rest)
        plan.append((lo, max(min(hi_pre, target[1] - lo_rest) - lo + 1, 0)))
    return plan


def _stages(
    values: Sequence[dict[int, int]],
    plan: Sequence[tuple[int, int]],
    primes: Sequence[int],
    guard: ResourceGuard,
) -> Iterator[tuple[int, np.ndarray, list[tuple[int, int, int, int]]]]:
    """Yield (lowest partial sum, residues, taps) for stages 0..t of the DP.

    values[j] maps each distinct value of period j to its multiplicity. Stage
    j counts selections over values[:j] by partial sum, one row per prime and
    one column per sum in its window, as plan lays them out. Stage 0 is a
    row of ones over plan[0]'s window: the sum 0, unless a mirrored plan's
    target is out of reach. Each tap (r, src, a, b) of stage j + 1 says that
    value r of period j (its index in values[j]) fed its columns [a, b) from
    columns [src, src + b - a) of stage j.
    """
    mods = np.array(primes, dtype=np.int32)[:, None]
    lo, width = plan[0]
    table = np.ones((len(primes), width), dtype=np.int32)
    yield lo, table, []
    for vals, (new_lo, width) in zip(values, plan[1:]):
        guard.check_time()
        out = np.zeros((len(primes), width), dtype=np.int32)
        taps = []
        # out[:, i] gathers table[:, i + shift] for each value v; the
        # multiplicities add up to n, so every sum is at most n * (p - 1),
        # inside int32 by the choice of primes
        for r, (v, mult) in enumerate(vals.items()):
            shift = new_lo - v - lo
            a, b = max(0, -shift), min(width, table.shape[1] - shift)
            if a < b:
                src = table[:, a + shift : b + shift]
                out[:, a:b] += src if mult == 1 else mult * src
                taps.append((r, a + shift, a, b))
        # a third of np.remainder's time on int32
        out -= out // mods * mods
        lo, table = new_lo, out
        yield lo, table, taps


def _dict_stages(periods: Sequence[Sequence[int]], n: int, target: int) -> list[dict[int, int]]:
    """The kernel's stages as {partial sum: exact count}, nonzero counts only."""
    if target < 0:
        raise ValueError(f"target total must be non-negative, got {target}")
    primes = _primes(n ** len(periods), n)
    step, bounds, values = _units(periods, target)
    return [
        {step * (lo + i): count for i, count in enumerate(_crt(table.T, primes)) if count}
        for lo, table, _ in _stages(values, _plan(values, bounds), primes, ResourceGuard())
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
    """Row-wise dot products of int64 residue arrays, below 2**62, reduced per chunk if wide."""
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

    counts[j][k] = sum over s of forward[j][s] * backward[j+1][target - s - v]
    where v is the value at position k of period j. Equal values within a
    period necessarily receive equal counts. Raises NoSolutionsError when the
    instance admits no solution at all, since the downstream probabilities
    would be undefined.
    """
    if not 0 <= target_meter < inst.n:
        raise ValueError(f"target meter must be in 0..{inst.n - 1}, got {target_meter}")
    target, t = inst.totals[target_meter], inst.t
    primes = _primes(inst.n**t, inst.n)
    mods = np.array(primes, dtype=np.int64)
    # a window is no wider than the spread of the periods before it, nor of
    # those after it: small spreads go to both ends, large ones to the middle
    by_spread = sorted(range(t), key=lambda j: (max(inst.periods[j]) - min(inst.periods[j]), j))
    order = by_spread[::2] + by_spread[1::2][::-1]
    step, bounds, values = _units([inst.periods[j] for j in order], target)
    guard = guard or ResourceGuard()
    plan = _plan(values, bounds)
    # live at once: every backward stage, two forward stages and the int64
    # copies of the two tables a period combines
    pair = max(w + v for (_, w), (_, v) in zip(plan, plan[1:]))
    guard.charge(4 * len(primes) * (sum(w for _, w in plan) + 3 * pair))
    # backward[k] counts the last k periods over forward stage t - k's window
    # mirrored about the target: reversed, its columns are that stage's
    back = [(bounds[1] - lo - w + 1, w) for lo, w in plan[::-1]]
    backward = [table[:, ::-1] for _, table, _ in _stages(values[::-1], back, primes, guard)]
    # the last window, forward stage 0's mirrored, holds the target alone; its
    # count is 0 when the target is out of reach, as stage t's window is empty
    n_total = _crt(backward.pop().T, primes)[0]
    if n_total == 0:
        raise NoSolutionsError(
            f"no selection over {t} period{'' if t == 1 else 's'} sums to {target} "
            f"(meter {target_meter + 1})"
        )
    rows = [()] * t
    forward = _stages(values, plan, primes, guard)
    _, pre, _ = next(forward)
    for j, vals, (_, out, taps) in zip(order, values, forward):
        # the slices that built the next forward stage meet the backward
        # stage aligned with it; products of residues below 2**24 need int64
        pre, post = pre.astype(np.int64), backward.pop().astype(np.int64)
        dots = np.zeros((len(vals), len(primes)), dtype=np.int64)
        for r, src, a, b in taps:
            dots[r] = _dot(pre[:, src : src + b - a], post[:, a:b], mods)
        per_value = dict(zip(vals, _crt(dots, primes)))
        rows[j] = tuple(per_value[v // step] for v in inst.periods[j])
        assert sum(rows[j]) == n_total, f"period {j} marginals do not sum to N"
        pre = out
    return MarginalCounts(target_meter, target, n_total, tuple(rows))
