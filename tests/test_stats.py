"""Tests for the moment accumulators and the paired slack rule."""

import numpy as np
import pytest

from orliczlab._rng import substream
from orliczlab.stats import McEstimate, RatioReport, RunningMoments, paired_stderr


def _accumulate(batches):
    """Both sides' moments and the sum of lhs * rhs, added batch by batch."""
    lhs, rhs, cross = RunningMoments(), RunningMoments(), 0.0
    for left, right in batches:
        left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
        lhs.add(left)
        rhs.add(right)
        cross += float((left * right).sum())
    return lhs, rhs, cross


def _direct(left, right, bound):
    diff = left - bound * right
    return np.std(diff, ddof=1) / np.sqrt(diff.size)


def _batches(kind):
    rng = substream(11, "paired-stderr", kind)
    sizes = (1000, 1, 517, 2048)
    if kind == "boolean":  # tail events, as good_lambda's lines yield them
        return [(rng.random(m) < 0.3, rng.random(m) < 0.6) for m in sizes]
    out = []
    for m in sizes:  # correlated sides, neither centred
        x = rng.standard_normal(m)
        out.append((1.5 + x**2, 1.0 + 0.8 * x**2 + 0.3 * rng.standard_normal(m)))
    return out


@pytest.mark.parametrize("kind", ["real", "boolean"])
@pytest.mark.parametrize("bound", [0.0, 1.0, 4.0, 50.0])
def test_paired_stderr_matches_the_direct_difference(kind, bound):
    batches = _batches(kind)
    lhs, rhs, cross = _accumulate(batches)
    left = np.concatenate([np.asarray(a, dtype=float) for a, _ in batches])
    right = np.concatenate([np.asarray(b, dtype=float) for _, b in batches])
    # forward: lhs - b rhs; reverse: rhs - b lhs, from the same sums
    for (a, b), (x, y) in (((lhs, rhs), (left, right)), ((rhs, lhs), (right, left))):
        want = _direct(x, y, bound)
        assert paired_stderr(a, b, cross, bound) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_paired_stderr_of_a_side_with_itself_is_exactly_zero():
    batches = [(a, a) for a, _ in _batches("real")]
    lhs, rhs, cross = _accumulate(batches)
    assert lhs.total_sq == cross
    assert paired_stderr(lhs, rhs, cross, 1.0) == 0.0
    assert paired_stderr(lhs, lhs, cross, 1.0) == 0.0


def test_paired_stderr_needs_two_samples():
    lhs, rhs, cross = _accumulate([([2.0], [1.0])])
    assert paired_stderr(lhs, rhs, cross, 1.0) == 0.0


def test_exact_rows_have_zero_slack():
    row = RatioReport("exact", McEstimate.exact(1.0), McEstimate.exact(1.0), 1.0, 0)
    assert row.slack_stderr == 0.0 and row.slack == 0.0 and row.passed
    row = RatioReport("exact", McEstimate.exact(1.0 + 1e-12), McEstimate.exact(1.0), 1.0, 0)
    assert not row.passed
