"""Ground-truth readings, the attacker's pseudonymized view, and the shuffle between them.

All readings are exact non-negative integers in Wh, so every consistency
check is an integer equality with no floating-point ambiguity. Types are
immutable after construction and all operations are pure functions. Each
type takes its cells as lists of ints or as an integer array, as producers
hold them, and stores them as tuples of Python ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# every reading, total and period id is below it, and refused where it enters the
# program: the int64 range, and in Wh about 300 years of the world's electricity
BOUND = 2**63


def _int_cells(values, what: str, ndim: int) -> tuple:
    """values as a tuple (of rows, at ndim 2) of Python ints in 0..BOUND - 1.

    A signed integer array, as producers hold it, is checked whole by one min;
    anything else is converted value by value, naming its first bad cell.
    """
    if isinstance(values, np.ndarray):
        if values.ndim == ndim and values.dtype.kind == "i" and values.min(initial=0) >= 0:
            return tuple(values.tolist()) if ndim == 1 else tuple(map(tuple, values.tolist()))
        values = values.tolist()
    out = []
    for idx, v in enumerate(values):
        if ndim == 2:
            out.append(_int_cells(v, f"{what}[{idx}]", 1))
            continue
        try:
            iv = operator.index(v)
        except TypeError:
            raise ValueError(f"{what}[{idx}] is not an integer: {v!r}") from None
        if iv < 0:
            raise ValueError(f"{what}[{idx}] is negative: {iv}")
        if iv >= BOUND:
            raise ValueError(f"{what}[{idx}] must be below 2**63")
        out.append(iv)
    return tuple(out)


@dataclass(frozen=True)
class ReadingMatrix:
    """Readings of n meters over t periods; readings[i][j] is meter i at period j, in Wh."""

    n: int
    t: int
    readings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"meter count must be positive, got {self.n}")
        if self.t < 1:
            raise ValueError(f"period count must be positive, got {self.t}")
        if len(self.readings) != self.n:
            raise ValueError(f"expected {self.n} meter rows, got {len(self.readings)}")
        rows = _int_cells(self.readings, "readings", 2)
        for i, row in enumerate(rows):
            if len(row) != self.t:
                raise ValueError(f"meter row {i} has {len(row)} readings, expected {self.t}")
        object.__setattr__(self, "readings", rows)

    @classmethod
    def from_rows(cls, rows) -> ReadingMatrix:
        rows = tuple(tuple(row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one meter row")
        return cls(n=len(rows), t=len(rows[0]), readings=rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.readings)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.readings)


@dataclass(frozen=True)
class GroundTruth:
    """A reading matrix together with the per-meter billing totals it implies."""

    matrix: ReadingMatrix
    totals: tuple[int, ...]

    def __post_init__(self):
        totals = _int_cells(self.totals, "totals", 1)
        object.__setattr__(self, "totals", totals)
        if len(totals) != self.matrix.n:
            raise ValueError(f"expected {self.matrix.n} totals, got {len(totals)}")
        if totals != self.matrix.row_sums():
            raise ValueError("totals do not match the matrix row sums")


@dataclass(frozen=True)
class AnonymizedInstance:
    """The attacker's view: per-period value lists with identities removed, plus totals.

    Each period list holds the same multiset of values as the corresponding
    matrix column, in an arbitrary stored order.
    """

    n: int
    t: int
    periods: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"meter count must be positive, got {self.n}")
        if self.t < 1:
            raise ValueError(f"period count must be positive, got {self.t}")
        if len(self.periods) != self.t:
            raise ValueError(f"expected {self.t} period lists, got {len(self.periods)}")
        periods = _int_cells(self.periods, "periods", 2)
        for j, vals in enumerate(periods):
            if len(vals) != self.n:
                raise ValueError(f"period {j} has {len(vals)} values, expected {self.n}")
        object.__setattr__(self, "periods", periods)
        totals = _int_cells(self.totals, "totals", 1)
        object.__setattr__(self, "totals", totals)
        if len(totals) != self.n:
            raise ValueError(f"expected {self.n} totals, got {len(totals)}")
        if sum(totals) != sum(map(sum, periods)):
            raise ValueError("sum of totals does not match sum of period values")


@dataclass(frozen=True)
class PermutationRecord:
    """The secret per-period shuffles; perms[j][i] is the anonymized position of meter i."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        perms = _int_cells(self.perms, "perms", 2)
        object.__setattr__(self, "perms", perms)
        # sorted in Python: np.sort's kernels alone add about 0.4 MiB of resident code
        for j, p in enumerate(perms):
            if sorted(p) != list(range(len(p))):
                raise ValueError(f"perms[{j}] is not a permutation of 0..{len(p) - 1}")


def build_ground_truth(matrix: ReadingMatrix) -> GroundTruth:
    """Attach exact row-sum billing totals to a reading matrix; each must be below 2**63 Wh."""
    totals = matrix.row_sums()
    for i, total in enumerate(totals):
        if total >= BOUND:
            raise ValueError(f"meter {i + 1}'s total must be below 2**63 Wh")
    return GroundTruth(matrix=matrix, totals=totals)


def anonymize(gt: GroundTruth, seed: int) -> tuple[AnonymizedInstance, PermutationRecord]:
    """Shuffle each period's column independently and forget meter identities.

    Shuffles come from a PCG64 stream seeded with `seed`: one draw permutes
    every period's row of 0..n-1 (rng.permuted along axis 1), which reads
    the stream exactly as one rng.permutation(n) per period, in period
    order, would. So the same seed always produces the same instance and
    record.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    m = gt.matrix
    perms = rng.permuted(np.tile(np.arange(m.n), (m.t, 1)), axis=1)
    # periods[j][perms[j][i]] = readings[i][j]
    periods = np.empty((m.t, m.n), dtype=np.int64)
    periods[np.arange(m.t)[:, None], perms] = np.array(m.readings, dtype=np.int64).T
    inst = AnonymizedInstance(n=m.n, t=m.t, periods=periods, totals=gt.totals)
    return inst, PermutationRecord(perms=perms)


def recover_matrix(inst: AnonymizedInstance, record: PermutationRecord) -> ReadingMatrix:
    """Undo an anonymization using the recorded permutations."""
    if len(record.perms) != inst.t:
        raise ValueError(f"record covers {len(record.perms)} periods, instance has {inst.t}")
    for j, p in enumerate(record.perms):
        if len(p) != inst.n:
            raise ValueError(f"record period {j} has {len(p)} positions, instance has {inst.n}")
    rows = tuple(
        tuple(inst.periods[j][record.perms[j][i]] for j in range(inst.t))
        for i in range(inst.n)
    )
    return ReadingMatrix(n=inst.n, t=inst.t, readings=rows)
