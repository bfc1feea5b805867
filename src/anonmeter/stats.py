"""Synthetic reading generation and distribution fitting.

Generation draws exponential readings from a documented uniform stream
(PCG64) through the inverse CDF, so identical seeds reproduce identical
matrices. Fitting uses unbiased estimators and ranks the exponential and
normal fits by the one-sample Cramer-von Mises statistic, compared raw (no
p-values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ReadingMatrix

FAMILIES = ("exponential", "normal")


@dataclass(frozen=True)
class DistributionSpec:
    """A candidate reading distribution: exponential (mean, in Wh) or normal (mean, sd)."""

    family: str
    mean: float
    sd: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "exponential":
            if not 0 < self.mean < math.inf:
                raise ValueError(f"exponential mean must be positive and finite, got {self.mean}")
            if self.sd is not None:
                raise ValueError("exponential spec takes no standard deviation")
        else:
            if not math.isfinite(self.mean):
                raise ValueError(f"normal mean must be finite, got {self.mean}")
            if self.sd is None or not 0 < self.sd < math.inf:
                raise ValueError(
                    f"normal standard deviation must be positive and finite, got {self.sd}"
                )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """The CDF at every element of a float64 array."""
        # worked on in place: each extra m-float temporary raised the resident peak of
        # later parses
        if self.family == "exponential":
            f = np.maximum(x, 0.0)
            f /= -self.mean
            np.expm1(f, out=f)
            return np.negative(f, out=f)
        z = self.mean - x
        z /= self.sd * math.sqrt(2)
        f = np.fromiter(map(math.erfc, z.tolist()), np.float64, len(z))
        f *= 0.5
        return f


@dataclass(frozen=True)
class FitResult:
    """A fitted spec with its Cramer-von Mises statistic over m samples."""

    spec: DistributionSpec
    cvm: float
    sample_size: int

    def __post_init__(self):
        floor = 1.0 / (12.0 * self.sample_size)
        if self.cvm < floor - 1e-12:
            raise ValueError(f"W2 = {self.cvm} below its floor 1/(12m) = {floor}")


def sample_reading_matrix(n: int, t: int, target_mean: float, others_mean: float,
                          seed: int) -> ReadingMatrix:
    """Draw meter 0 from Exp(target_mean) and meters 1..n-1 from Exp(others_mean), in Wh.

    One PCG64 stream, consumed row by row, gives uniforms u in [0, 1); each
    becomes the inverse-CDF draw -mean * log(1 - u), rounded half-up to
    integer Wh. Means must be positive and finite, and a draw of 2**63 Wh
    or more, which int64 cannot hold, raises ValueError. Deterministic per
    seed.
    """
    for mean in (target_mean, others_mean):
        if not 0 < mean < math.inf:
            raise ValueError(f"exponential mean must be positive and finite, got {mean}")
    if n < 1 or t < 1:
        raise ValueError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.array([target_mean] + [others_mean] * (n - 1), dtype=np.float64)[:, None]
    wh = np.floor(-means * np.log1p(-rng.random((n, t))) + 0.5)
    if not (wh < 2.0**63).all():
        raise ValueError(f"readings must stay below 2**63 Wh, got a draw of {wh.max():.4g} Wh")
    rows = wh.astype(np.int64).tolist()
    return ReadingMatrix(n=n, t=t, readings=tuple(map(tuple, rows)))


def _clean_samples(samples, minimum: int) -> np.ndarray:
    """The samples as one float64 array, converted as float(x) would; an array is cast once."""
    if not isinstance(samples, np.ndarray):
        samples = np.fromiter(samples, np.float64)
    vals = samples.astype(np.float64, copy=False)
    if len(vals) < minimum:
        raise ValueError(f"need {minimum} or more samples, got {len(vals)}")
    return vals


def fit_exponential(samples) -> DistributionSpec:
    """Unbiased exponential fit: the estimated mean is the sample mean."""
    vals = _clean_samples(samples, 2)
    if (vals < 0).any():
        raise ValueError("exponential samples must be non-negative")
    mean = math.fsum(vals.tolist()) / len(vals)
    if mean == 0:
        raise ValueError("cannot fit an exponential to all-zero samples")
    return DistributionSpec(family="exponential", mean=mean)


def unbiased_rate(samples) -> float:
    """Unbiased rate estimate from m samples: (m - 1) / (m * sample mean)."""
    vals = _clean_samples(samples, 2)
    total = math.fsum(vals.tolist())
    if total == 0:
        raise ValueError("rate is undefined for all-zero samples")
    return (len(vals) - 1) / total


def fit_normal(samples) -> DistributionSpec:
    """Normal fit: sample mean and the unbiased (m - 1 divisor) standard deviation.

    The variance is a corrected two-pass sum: exact sums of the deviations'
    squares and of the deviations themselves, the latter taking out the
    rounding of the mean. The deviations are scaled by a power of two near
    the largest, so their squares neither underflow nor overflow.
    """
    vals = _clean_samples(samples, 2)
    m = len(vals)
    mean = math.fsum(vals.tolist()) / m
    dev = vals - mean
    scale = math.ldexp(1.0, math.frexp(float(np.abs(dev).max()))[1])
    dev /= scale
    var = (math.fsum((dev * dev).tolist()) - math.fsum(dev.tolist()) ** 2 / m) / (m - 1)
    if var <= 0:
        raise ValueError("cannot fit a normal to zero-variance samples")
    return DistributionSpec(family="normal", mean=mean, sd=scale * math.sqrt(var))


def cvm_statistic(samples, spec: DistributionSpec) -> float:
    """One-sample Cramer-von Mises statistic W2 against the spec's CDF.

    W2 = 1/(12m) + sum over sorted samples of ((2i - 1)/(2m) - F(x_(i)))**2;
    its floor 1/(12m) is reached exactly on the spec's quantile grid. F is
    called once, on the sorted samples.
    """
    vals = np.sort(_clean_samples(samples, 1))
    m = len(vals)
    # built in place: each extra m-float temporary raised the resident peak of later parses
    terms = np.arange(1.0, 2 * m, 2) / (2 * m)
    terms -= spec.cdf(vals)
    terms *= terms
    return 1.0 / (12.0 * m) + math.fsum(terms)


def rank_distributions(samples) -> list[FitResult]:
    """Fit the exponential and the normal family and order the fits by W2, best first."""
    vals = _clean_samples(samples, 2)
    results = [FitResult(spec=spec, cvm=cvm_statistic(vals, spec), sample_size=len(vals))
               for spec in (fit_exponential(vals), fit_normal(vals))]
    return sorted(results, key=lambda r: r.cvm)
