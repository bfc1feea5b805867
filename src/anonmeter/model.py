"""Ground-truth readings, the attacker's pseudonymized view, and the shuffle between them.

All readings are exact non-negative integers in Wh, so every consistency
check is an integer equality with no floating-point ambiguity. Types are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def _int_tuple(values, what: str) -> tuple[int, ...]:
    values = tuple(values)
    # plain non-negative ints, as parsers and generators build them, pass
    # in C; anything else is checked and converted one value at a time
    if set(map(type, values)) == {int} and min(values) >= 0:
        return values
    out = []
    for idx, v in enumerate(values):
        try:
            iv = operator.index(v)
        except TypeError:
            raise ValueError(f"{what}[{idx}] is not an integer: {v!r}") from None
        if iv < 0:
            raise ValueError(f"{what}[{idx}] is negative: {iv}")
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
        rows = tuple(_int_tuple(row, f"readings[{i}]") for i, row in enumerate(self.readings))
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
        totals = _int_tuple(self.totals, "totals")
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
        periods = tuple(_int_tuple(p, f"periods[{j}]") for j, p in enumerate(self.periods))
        for j, vals in enumerate(periods):
            if len(vals) != self.n:
                raise ValueError(f"period {j} has {len(vals)} values, expected {self.n}")
        object.__setattr__(self, "periods", periods)
        totals = _int_tuple(self.totals, "totals")
        object.__setattr__(self, "totals", totals)
        if len(totals) != self.n:
            raise ValueError(f"expected {self.n} totals, got {len(totals)}")
        if sum(totals) != sum(v for p in periods for v in p):
            raise ValueError("sum of totals does not match sum of period values")


@dataclass(frozen=True)
class PermutationRecord:
    """The secret per-period shuffles; perms[j][i] is the anonymized position of meter i."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        perms = tuple(tuple(int(x) for x in p) for p in self.perms)
        object.__setattr__(self, "perms", perms)
        for j, p in enumerate(perms):
            if sorted(p) != list(range(len(p))):
                raise ValueError(f"perms[{j}] is not a permutation of 0..{len(p) - 1}")


def build_ground_truth(matrix: ReadingMatrix) -> GroundTruth:
    """Attach exact row-sum billing totals to a reading matrix."""
    return GroundTruth(matrix=matrix, totals=matrix.row_sums())


def anonymize(gt: GroundTruth, seed: int) -> tuple[AnonymizedInstance, PermutationRecord]:
    """Shuffle each period's column independently and forget meter identities.

    Shuffles come from a PCG64 stream seeded with `seed` (one permutation
    drawn per period, in period order), so the same seed always produces
    the same instance and record.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    m = gt.matrix
    perms = []
    periods = []
    for j in range(m.t):
        pos = tuple(int(x) for x in rng.permutation(m.n))
        vals = [0] * m.n
        for i in range(m.n):
            vals[pos[i]] = m.readings[i][j]
        perms.append(pos)
        periods.append(tuple(vals))
    inst = AnonymizedInstance(n=m.n, t=m.t, periods=tuple(periods), totals=gt.totals)
    return inst, PermutationRecord(perms=tuple(perms))


def recover_matrix(inst: AnonymizedInstance, record: PermutationRecord) -> ReadingMatrix:
    """Undo an anonymization using the recorded permutations."""
    if len(record.perms) != inst.t:
        raise ValueError(f"record covers {len(record.perms)} periods, instance has {inst.t}")
    rows = tuple(
        tuple(inst.periods[j][record.perms[j][i]] for j in range(inst.t))
        for i in range(inst.n)
    )
    return ReadingMatrix(n=inst.n, t=inst.t, readings=rows)
