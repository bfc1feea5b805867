"""Exhaustive search for per-period permutations consistent with every billing total.

The search space is (n!)**t, so this solver is only for small instances; the
relaxed single-meter attack in mcssp is the scalable one. A node-expansion cap
makes infeasibility explicit instead of hanging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AnonymizedInstance

DEFAULT_WORK_LIMIT = 10**8

# nodes assigned together by one numpy step of the joint search
_BLOCK = 4096


@dataclass(frozen=True)
class AgreedAssignment:
    """A (meter, period) cell on which every joint solution assigns the same value."""

    meter: int
    period: int
    value: int


@dataclass(frozen=True)
class JointSolutionSet:
    """Value-distinct solutions of the full problem.

    Each solution is a t-tuple of permutations in canonical period order;
    solutions[s][j][i] is the position meter i occupies at period j, and
    grids[s][i][j] the reading (Wh) the search assigned it there. Two
    permutation tuples that assign identical values to every meter (possible
    when a period repeats a value) are stored once, represented by the first
    one the search finds; raw_count counts them all. expansions is n! for
    every search node at a period boundary (no period or every period of a
    prefix assigned, not all t) that the search took up: the permutations a
    full-permutation search would try there. exhausted is False when the
    work cap stopped the search early; the cap is checked once per block of
    nodes, so a capped set may report up to _BLOCK * n! expansions past it.
    """

    solutions: tuple[tuple[tuple[int, ...], ...], ...]
    grids: tuple[tuple[tuple[int, ...], ...], ...]
    raw_count: int
    exhausted: bool
    expansions: int

    def value_grid(self, index: int) -> tuple[tuple[int, ...], ...]:
        """Values assigned by solution `index`, as an n x t grid of Wh."""
        return self.grids[index]


def solve_joint(inst: AnonymizedInstance, work_limit: int = DEFAULT_WORK_LIMIT) -> JointSolutionSet:
    """Depth-first search assigning one meter's position at a time, pruned per meter.

    A node fixes the positions of a prefix of the periods (periods with
    fewer repeated values first: repeats only multiply identical branches)
    and, within the next period, of meters 0..i-1. Its children give meter i
    each free position k whose value leaves the meter's remaining budget
    inside the min/max achievable over the later periods. The period's last
    meter has one free position, n(n-1)/2 minus the positions taken, so a
    node there has at most one child, found by one bound check. Nodes of one
    depth are expanded together in numpy blocks of at most _BLOCK; children
    keep (parent, position) order and sibling blocks are walked first to
    last, so solutions arrive in the order a full-permutation search in
    itertools order would find them. Live memory is bounded by the block
    size and t * n, whatever the work limit.

    Expansions count n! per period-boundary node, when its block is taken
    up (see JointSolutionSet); once they exceed work_limit the search stops
    and returns the partial set with exhausted=False. The count only grows,
    so exhausted is True exactly when the whole tree costs at most
    work_limit, but a capped run may overshoot by up to a block's worth and
    its partial set depends on the block size.
    """
    if work_limit < 1:
        raise ValueError(f"work limit must be at least 1, got {work_limit}")
    n, t = inst.n, inst.t
    totals = inst.totals
    order = sorted(range(t), key=lambda j: (n - len(set(inst.periods[j])), j))
    per = np.array([inst.periods[j] for j in order], dtype=np.int64)
    # what the periods after depth d can still add; budgets never go negative
    # and start below 2**63, so they stay inside int64 (hi_rest may not, but
    # numpy compares int64 arrays with any Python int exactly)
    lo_rest = [0] * (t + 1)
    hi_rest = [0] * (t + 1)
    for d in range(t - 1, -1, -1):
        lo_rest[d] = lo_rest[d + 1] + int(per[d].min())
        hi_rest[d] = hi_rest[d + 1] + int(per[d].max())
    canon = np.argsort(order)  # search depth of each canonical period
    fact = math.factorial(n)
    pos_type = np.min_scalar_type(n)
    last = n * (n - 1) // 2  # the positions of a period sum to this

    # a block: (period depth, meter, remaining budget per meter, positions chosen so far)
    stack = [(0, 0, np.array([totals], dtype=np.int64), np.zeros((1, t * n), dtype=pos_type))]
    first: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    raw_count = 0
    expansions = 0
    stopped = False
    while stack:
        d, i, need, path = stack.pop()
        if d == t:
            raw_count += len(path)
            _collect(per[canon], totals, path.reshape(len(path), t, n)[:, canon], first)
            continue
        if i == 0:
            expansions += fact * len(path)
            if expansions > work_limit:
                stopped = True
                break
        if i == n - 1:  # the one position the period has left
            pos = np.full(len(path), last, dtype=np.intp)  # last passes 255 from n = 24
            for c in range(d * n, d * n + i):
                pos -= path[:, c]
            rem = need[:, i] - per[d].take(pos)
            parent = np.flatnonzero((rem >= lo_rest[d + 1]) & (rem <= hi_rest[d + 1]))
            pos, rem = pos.take(parent), rem.take(parent)
        else:
            rem = need[:, i, None] - per[d]
            ok = (rem >= lo_rest[d + 1]) & (rem <= hi_rest[d + 1])
            rows = np.arange(0, len(path) * n, n)  # flat index of each node's first cell
            for c in range(d * n, d * n + i):  # positions taken earlier in this period
                ok.put(rows + path[:, c], False)
            cell = np.flatnonzero(ok)
            parent, pos = np.divmod(cell, n)
            rem = rem.take(cell)
        # rows move by take: indexing rows with an index array is 5-11x slower
        need = need.take(parent, axis=0)
        need[:, i] = rem
        path = path.take(parent, axis=0)
        path[:, d * n + i] = pos
        d, i = (d + 1, 0) if i == n - 1 else (d, i + 1)
        for s in range((len(path) - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
            stack.append((d, i, need[s:s + _BLOCK], path[s:s + _BLOCK]))

    grids = tuple(sorted(first))
    return JointSolutionSet(
        solutions=tuple(first[g] for g in grids),
        grids=grids,
        raw_count=raw_count,
        exhausted=not stopped,
        expansions=expansions,
    )


def _collect(values: np.ndarray, totals, perms: np.ndarray, first: dict) -> None:
    """Keep the first solution of a block per value grid, re-checking each new grid's totals.

    values[j][k] is the reading at position k of canonical period j, and
    perms[s][j][i] the position of meter i there in solution s. Equal grids
    have equal sums, so checking each grid once checks every solution.
    """
    grids = np.take_along_axis(values[None], perms, axis=2)
    # one byte key per grid
    keys = np.ndarray(len(grids), np.dtype((np.void, values.nbytes)), np.ascontiguousarray(grids))
    _, firsts = np.unique(keys, return_index=True)
    for s in firsts.tolist():
        grid = tuple(map(tuple, grids[s].T.tolist()))
        if grid in first:
            continue
        for i, row in enumerate(grid):
            if sum(row) != totals[i]:
                raise AssertionError(f"search produced a selection violating total {i}")
        first[grid] = tuple(map(tuple, perms[s].tolist()))


def agreed_assignments(sols: JointSolutionSet) -> list[AgreedAssignment]:
    """The (meter, period) cells assigned one value by every solution in the set.

    Only meaningful over a complete set, so partial (non-exhausted) sets are
    rejected, as are empty ones.
    """
    if not sols.exhausted:
        raise ValueError("agreement over a partial solution set is meaningless")
    if not sols.solutions:
        raise ValueError("agreement requires at least one solution")
    return [
        AgreedAssignment(meter=i, period=j, value=cells[0])
        for i, rows in enumerate(zip(*sols.grids))
        for j, cells in enumerate(zip(*rows))
        if len(set(cells)) == 1
    ]
