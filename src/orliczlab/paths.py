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
    "draw_normals",
    "draw_tiles",
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


def draw_normals(seed: int, stream, coords: int, steps: int, replicates: int) -> np.ndarray:
    """Standard normals for one driver batch, shape (coords, replicates, steps).

    ``stream`` is a label path (tuple) naming the substream; each
    coordinate fills its own (replicates, steps) slab from its own child
    stream, so increasing ``coords`` extends a bundle without changing
    existing coordinates.
    """
    return next(draw_tiles(seed, stream, coords, steps, [replicates]))


def draw_tiles(seed: int, stream, coords: int, steps: int, rows):
    """The normals of ``draw_normals(seed, stream, coords, steps, sum(rows))``
    in row tiles: tile t is (coords, rows[t], steps), the next rows[t] rows.

    Each coordinate's generator continues its stream from tile to tile, so
    the tiles hold the bits of the single draw.  A tile is drawn only when
    it is asked for, and the draw touches no other state, so it may run on
    a worker thread while an earlier tile is processed.
    """
    if coords < 1:
        raise ValueError(f"coords must be >= 1, got {coords}")
    if min(rows) < 1:
        raise ValueError(f"replicates must be >= 1, got {min(rows)}")
    stream = tuple(stream) if isinstance(stream, (tuple, list)) else (stream,)
    gens = [substream(seed, *stream, "coord", j) for j in range(coords)]
    for r in rows:
        out = np.empty((coords, r, steps))
        for j, gen in enumerate(gens):
            gen.standard_normal(out=out[j])
        yield out


def paths_from_increments(increments: np.ndarray) -> np.ndarray:
    """Prefix-sum paths with the zero start prepended (last axis grows by 1)."""
    inc = np.asarray(increments, dtype=float)
    out = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` increments (shared-driver coarsening).

    The strided slices are added in sequence, which is how numpy sums a
    group of fewer than 8 terms, so the result has the bits of a per-group
    sum in any memory layout.
    """
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[-1]
    if n % factor:
        raise ValueError(f"cannot coarsen {n} increments by factor {factor}")
    out = inc[..., 0::factor].copy() if factor == 1 else inc[..., 0::factor] + inc[..., 1::factor]
    for k in range(2, factor):
        out += inc[..., k::factor]
    return out


@dataclass(frozen=True)
class BrownianBatch:
    """A batch of driver realizations: increments (reps, coords, steps)."""

    grid: PathGrid
    coords: int
    replicates: int
    increments: np.ndarray
    paths: np.ndarray = field(repr=False)  # (reps, coords, steps + 1)

    def coarsened(self, factor: int) -> "BrownianBatch":
        """The same driver watched on a grid coarser by ``factor``."""
        inc = coarsen_increments(self.increments, factor)
        return BrownianBatch(
            grid=PathGrid(self.grid.horizon, self.grid.steps // factor),
            coords=self.coords,
            replicates=self.replicates,
            increments=inc,
            paths=paths_from_increments(inc),
        )


def simulate_batch(normals: np.ndarray, grid: PathGrid) -> BrownianBatch:
    """The driver batch of ``normals`` (coords, reps, steps) from ``draw_normals``.

    The normals are scaled to increments in place; the batch's increments
    are their (reps, coords, steps) view, so nothing is copied.
    """
    if normals.shape[-1] != grid.steps:
        raise ValueError(f"normals have {normals.shape[-1]} steps, grid has {grid.steps}")
    normals *= np.sqrt(grid.dt)
    inc = normals.transpose(1, 0, 2)
    coords, replicates = normals.shape[:2]
    return BrownianBatch(
        grid=grid,
        coords=coords,
        replicates=replicates,
        increments=inc,
        paths=paths_from_increments(inc),
    )


# ---------------------------------------------------------------------------
# path functionals


def running_abs_max(values: np.ndarray, read) -> np.ndarray:
    """Running supremum of |values| along the last axis, at the ascending
    indices ``read`` only: shape (..., len(read)).

    Column k is the maximum of |values| over [0, read[k]], taken segment by
    segment; a maximum is exact, so it has the bits of the full running
    maximum read there.
    """
    out = np.empty(values.shape[:-1] + (len(read),))
    start = 0
    for k, i in enumerate(read):
        seg = np.abs(values[..., start : i + 1]).max(axis=-1)
        out[..., k] = seg if k == 0 else np.maximum(out[..., k - 1], seg)
        start = i + 1
    return out


def quadratic_variation(increments: np.ndarray) -> np.ndarray:
    """Pathwise quadratic variation: prefix sums of squared increments.

    The squares and their prefix sums fill one buffer in place, in the
    order of ``cumsum(inc * inc)``, so the bits are those of that formula.
    """
    inc = np.asarray(increments, dtype=float)
    out = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.multiply(inc, inc, out=out[..., 1:])
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
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
