"""Entropy-based privacy measures over marginal solution counts.

Probabilities are appearance rates: count / N. Python's int / int true
division is correctly rounded at any size, so astronomically large counts
never degrade the metric. Entropy is Shannon entropy in bits, one formula
for a distribution and for a row of counts: -fsum(p * log2(p)) over the
nonzero p. log2(n) means the attacker learned nothing about a period, 0
means full re-identification. Every reading of MarginalCounts first checks
each row exactly, in integers: n counts, none negative, summing to N.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .mcssp import MarginalCounts


@dataclass(frozen=True)
class PeriodDistribution:
    """Attacker's probability over the n positions of one period (0-based index)."""

    period: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        for p in probs:
            if not 0.0 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability out of range: {p}")
        if abs(math.fsum(probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {math.fsum(probs)}, not 1")


@dataclass(frozen=True)
class EntropyReport:
    """Per-period entropies (bits) for one target meter, with their mean and ceiling."""

    target_meter: int
    total_solutions: int
    per_period: tuple[float, ...]
    average: float
    max_entropy: float

    def __post_init__(self):
        for h in self.per_period:
            if not -1e-9 <= h <= self.max_entropy + 1e-9:
                raise ValueError(f"entropy {h} outside [0, {self.max_entropy}]")


def _checked_total(mc: MarginalCounts) -> int:
    """N, once every row of mc.counts holds n counts, none negative, summing to N exactly."""
    n_total = mc.total_solutions
    if n_total < 1:
        raise ValueError("probabilities are undefined without solutions")
    n = len(mc.counts[0]) if mc.counts else 0
    for j, row in enumerate(mc.counts):
        if len(row) != n:
            raise ValueError(f"counts[{j}] is {len(row)} long, not {n}")
        # an empty row sums to 0, so min is never asked of one
        if sum(row) != n_total or min(row) < 0:
            raise ValueError(f"counts[{j}] are not non-negative counts summing to N = {n_total}")
    return n_total


def _entropy(probabilities: Iterable[float]) -> float:
    """Shannon entropy in bits; 0-probability terms drop, rates that round to 0.0 too."""
    h = -math.fsum(p * math.log2(p) for p in probabilities if p > 0.0)
    return h if h > 0.0 else 0.0  # not max(h, 0.0), which keeps -0.0


def marginal_probabilities(mc: MarginalCounts) -> list[PeriodDistribution]:
    """Turn marginal counts into per-period probability vectors (count / N)."""
    n_total = _checked_total(mc)
    return [
        PeriodDistribution(period=j, probabilities=tuple(c / n_total for c in row))
        for j, row in enumerate(mc.counts)
    ]


def period_entropy(dist: PeriodDistribution) -> float:
    """Shannon entropy of one period's distribution, in bits."""
    return _entropy(dist.probabilities)


def entropy_report(mc: MarginalCounts) -> EntropyReport:
    """Per-period entropies, their unweighted mean, and the log2(n) ceiling.

    Each period's entropy is period_entropy of its count / N rates, taken
    straight from the checked counts with no PeriodDistribution between.
    """
    n_total = _checked_total(mc)
    if not mc.counts:
        raise ValueError("entropy report needs at least one period")
    per_period = tuple(_entropy(c / n_total for c in row) for row in mc.counts)
    return EntropyReport(
        target_meter=mc.target_meter,
        total_solutions=n_total,
        per_period=per_period,
        average=math.fsum(per_period) / len(per_period),
        max_entropy=math.log2(len(mc.counts[0])),
    )


def revealed_positions(mc: MarginalCounts, threshold: float) -> list[tuple[int, int, float]]:
    """(period, position, probability) triples reaching the threshold, sorted by period.

    A position is kept when its count c and the solution count N satisfy
    c / N >= threshold exactly, with the threshold read as the decimal it
    prints as (0.95 is 19/20, not the binary float just above it), so
    threshold 1.0 picks exactly the positions every solution selects. The
    probability reported is c / N, correctly rounded.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    n_total = _checked_total(mc)
    bound = Fraction(str(threshold))
    return [
        (j, k, c / n_total)
        for j, row in enumerate(mc.counts)
        for k, c in enumerate(row)
        if c * bound.denominator >= bound.numerator * n_total
    ]
