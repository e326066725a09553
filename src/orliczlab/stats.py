"""Monte Carlo estimates and inequality verdict reports.

A verdict certifies ``lhs_mean <= bound * rhs_mean + 3 * slack_stderr`` where
the slack stderr is the paired standard error of ``lhs - bound * rhs`` when
both sides ride the same replicates, and the combined (uncorrelated) form
``hypot(se_lhs, bound * se_rhs)`` otherwise.  Accumulation is streaming and
associative, so batched runs reproduce bit-identically in a fixed batch
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "McEstimate",
    "RunningMoments",
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

    def scaled(self, c: float) -> "McEstimate":
        return McEstimate(c * self.mean, abs(c) * self.stderr, self.n)


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


@dataclass(frozen=True)
class RatioReport:
    """One inequality instance: lhs_mean <= bound * rhs_mean within 3 sigma."""

    label: str
    lhs: McEstimate
    rhs: McEstimate
    bound: float
    grid_n: int
    slack_stderr: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        return self.lhs.mean == 0.0 and self.rhs.mean == 0.0

    @property
    def ratio(self) -> float:
        if self.rhs.mean != 0.0:
            return self.lhs.mean / self.rhs.mean
        return float("nan") if self.lhs.mean == 0.0 else float("inf")

    @property
    def slack(self) -> float:
        se = (
            self.slack_stderr
            if self.slack_stderr is not None
            else math.hypot(self.lhs.stderr, self.bound * self.rhs.stderr)
        )
        return 3.0 * se

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return True
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
