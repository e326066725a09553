"""Monte Carlo estimates and inequality verdict reports.

A verdict certifies ``lhs_mean <= bound * rhs_mean + 3 * slack_stderr``.  One
rule gives the slack stderr: a Monte Carlo row takes both sides on the same
replicates, and its slack stderr is the paired standard error of
``lhs - bound * rhs`` (``paired_stderr``), read from the two sides' moments
and the sum of their products; a deterministic row has slack 0.  A row whose
sides are both exactly 0 therefore passes (0 <= 0).  Accumulation is
streaming and associative, so batched runs reproduce bit-identically in a
fixed batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "McEstimate",
    "RunningMoments",
    "paired_stderr",
    "RatioReport",
    "ExperimentResult",
]


@dataclass(frozen=True)
class McEstimate:
    """A sample mean with its standard error and sample count."""

    mean: float
    stderr: float
    n: int

    @staticmethod
    def exact(value: float, n: int = 1) -> "McEstimate":
        """A deterministic quantity dressed as an estimate (zero stderr)."""
        return McEstimate(float(value), 0.0, n)


class RunningMoments:
    """Streaming count/sum/sum-of-squares accumulator."""

    __slots__ = ("count", "total", "total_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, samples) -> None:
        x = np.asarray(samples, dtype=float).ravel()
        self.count += x.size
        self.total += float(x.sum())
        self.total_sq += float(np.square(x).sum())

    def estimate(self) -> McEstimate:
        if self.count == 0:
            raise ValueError("no samples accumulated")
        mean = self.total / self.count
        if self.count < 2:
            return McEstimate(mean, 0.0, self.count)
        var = max(self.total_sq - self.count * mean * mean, 0.0) / (self.count - 1)
        return McEstimate(mean, math.sqrt(var / self.count), self.count)


def paired_stderr(lhs: RunningMoments, rhs: RunningMoments, cross: float, bound: float) -> float:
    """Standard error of the mean of ``l - bound * r`` over replicates shared
    by ``lhs`` and ``rhs``, where ``cross`` is the sum of ``l * r``:
    (n-1) var = (S_ll - n m_l^2) - 2 b (S_lr - n m_l m_r) + b^2 (S_rr - n m_r^2),
    clamped at 0.  With ``rhs`` the same samples as ``lhs`` and b = 1 it reads
    exactly 0."""
    n = lhs.count
    if n < 2:
        return 0.0
    m_l, m_r = lhs.total / n, rhs.total / n
    var = ((lhs.total_sq - n * m_l * m_l) - 2.0 * bound * (cross - n * m_l * m_r)
           + bound * bound * (rhs.total_sq - n * m_r * m_r))
    return math.sqrt(max(var, 0.0) / (n - 1) / n)


@dataclass(frozen=True)
class RatioReport:
    """One inequality instance: lhs_mean <= bound * rhs_mean within 3 sigma."""

    label: str
    lhs: McEstimate
    rhs: McEstimate
    bound: float
    grid_n: int
    slack_stderr: float = 0.0  # 0 for an exact row
    extras: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.rhs.mean != 0.0:
            return self.lhs.mean / self.rhs.mean
        return float("nan") if self.lhs.mean == 0.0 else float("inf")

    @property
    def slack(self) -> float:
        return 3.0 * self.slack_stderr

    @property
    def passed(self) -> bool:
        return self.lhs.mean <= self.bound * self.rhs.mean + self.slack

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class ExperimentResult:
    """Reports plus auxiliary notes from one experiment run."""

    name: str
    reports: list
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.reports) and all(r.passed for r in self.reports) and not self.notes.get("audit_failed", False)
