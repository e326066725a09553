"""Brownian driver paths on uniform grids.

Coordinates of a cylindrical Brownian motion are simulated as independent
scalar walks with Gaussian increments on a uniform grid.  Increments are
the primary data (paths are their prefix sums), which keeps telescoping
identities exact in grid arithmetic.  Randomness is addressed per
(stream, coordinate, batch) through counter-based substreams, so enlarging
the coordinate count or replaying a batch never disturbs other draws.

Stopping times land on grid indices; a time that never triggers is capped
at the horizon index n (the sentinel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import substream

__all__ = [
    "PathGrid",
    "BrownianBatch",
    "simulate_increments",
    "simulate_batch",
    "coarsen_increments",
    "paths_from_increments",
    "running_abs_max",
    "quadratic_variation",
    "hitting_index",
]


@dataclass(frozen=True)
class PathGrid:
    """Uniform grid on [0, horizon] with ``steps`` increments."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a time that must sit on the grid."""
        k = int(round(t / self.dt))
        if not (0 <= k <= self.steps) or abs(k * self.dt - t) > 1e-9 * max(self.horizon, 1.0):
            raise ValueError(f"time {t} is not aligned with the grid (dt={self.dt})")
        return k


def simulate_increments(
    seed: int, stream, coords: int, grid: PathGrid, replicates: int
) -> np.ndarray:
    """Gaussian increments, shape (replicates, coords, steps).

    ``stream`` is a label path (tuple) naming the substream; each
    coordinate draws from its own child stream, so increasing ``coords``
    extends a bundle without changing existing coordinates.
    """
    if coords < 1:
        raise ValueError(f"coords must be >= 1, got {coords}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    stream = tuple(stream) if isinstance(stream, (tuple, list)) else (stream,)
    scale = np.sqrt(grid.dt)
    out = np.empty((replicates, coords, grid.steps))
    for j in range(coords):
        rng = substream(seed, *stream, "coord", j)
        out[:, j, :] = rng.standard_normal((replicates, grid.steps))
    out *= scale
    return out


def paths_from_increments(increments: np.ndarray) -> np.ndarray:
    """Prefix-sum paths with the zero start prepended (last axis grows by 1)."""
    inc = np.asarray(increments, dtype=float)
    shape = inc.shape[:-1] + (inc.shape[-1] + 1,)
    out = np.zeros(shape)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` increments (shared-driver coarsening)."""
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[-1]
    if n % factor:
        raise ValueError(f"cannot coarsen {n} increments by factor {factor}")
    shaped = inc.reshape(inc.shape[:-1] + (n // factor, factor))
    return shaped.sum(axis=-1)


@dataclass(frozen=True)
class BrownianBatch:
    """A batch of driver realizations: increments (reps, coords, steps)."""

    grid: PathGrid
    coords: int
    replicates: int
    increments: np.ndarray
    _paths: np.ndarray = field(default=None, repr=False)

    @property
    def paths(self) -> np.ndarray:  # (reps, coords, steps + 1)
        return self._paths

    def coarsened(self, factor: int) -> "BrownianBatch":
        """The same driver watched on a grid coarser by ``factor``."""
        inc = coarsen_increments(self.increments, factor)
        return BrownianBatch(
            grid=PathGrid(self.grid.horizon, self.grid.steps // factor),
            coords=self.coords,
            replicates=self.replicates,
            increments=inc,
            _paths=paths_from_increments(inc),
        )


def simulate_batch(
    seed: int, stream, coords: int, grid: PathGrid, replicates: int
) -> BrownianBatch:
    """A batch of driver realizations with per-coordinate substreams."""
    inc = simulate_increments(seed, stream, coords, grid, replicates)
    return BrownianBatch(
        grid=grid,
        coords=coords,
        replicates=replicates,
        increments=inc,
        _paths=paths_from_increments(inc),
    )


# ---------------------------------------------------------------------------
# path functionals


def running_abs_max(paths: np.ndarray) -> np.ndarray:
    """Running supremum of |path| along the last axis."""
    return np.maximum.accumulate(np.abs(paths), axis=-1)


def quadratic_variation(increments: np.ndarray) -> np.ndarray:
    """Pathwise quadratic variation: prefix sums of squared increments."""
    inc = np.asarray(increments, dtype=float)
    shape = inc.shape[:-1] + (inc.shape[-1] + 1,)
    out = np.zeros(shape)
    np.cumsum(inc * inc, axis=-1, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# stopping times


def hitting_index(values: np.ndarray, level: float, mode: str = "weak") -> tuple[np.ndarray, np.ndarray]:
    """First index along the last axis where values reach ``level``.

    mode "weak" triggers at >= level, "strict" at > level.  Returns
    (indices, hit): indices carry the sentinel n for paths that never
    trigger; ``hit`` marks genuine crossings.
    """
    values = np.asarray(values)
    if mode == "weak":
        mask = values >= level
    elif mode == "strict":
        mask = values > level
    else:
        raise ValueError(f"unknown hitting mode {mode!r}")
    hit = mask.any(axis=-1)
    idx = mask.argmax(axis=-1)
    sentinel = values.shape[-1] - 1
    idx = np.where(hit, idx, sentinel)
    return idx.astype(np.int64), hit
