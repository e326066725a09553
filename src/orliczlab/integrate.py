"""Grid Ito integrals of simple processes against Brownian drivers.

A process assigns each (time index, atom) a Euclidean value, adapted to the
driver: the value at grid index k may depend on driver history up to k
only.  The integral is the left-point sum

    I_t(x) = sum_{k < t} sum_j X_j(t_k, x) (B^j_{k+1} - B^j_k)

with running energy eta_t(x) = sum_{k < t} |X(t_k, x)|^2 dt, and the
triple norm is the modular of sqrt(eta) across atoms.  Elementary
processes are blockwise constant with grid-aligned breakpoints; their
block values are produced from the truncated driver history only, so
adaptedness holds by construction.

Every integrand is factored: its value on atom a along driver coordinate j
is ``coef[a, j] * g[r, k, j]``, an adapted factor g per coordinate times a
fixed per-atom coefficient, so no (reps, n+1, atoms, d) tensor is built.
The integral and the energy take one prefix sum per distinct ``coef`` row,
shared by the atoms that carry it.  The factor covers the leading
``values.shape[-1]`` driver coordinates; the integrand is zero along the
rest, so the e1 rules carry a single factor column and ``two_coord_mix``
two, whatever the driver's width.

All kernels are batch-first: driver paths (reps, coords, n+1), factors
(reps, n+1, d), coefficients (atoms, d) with d <= coords, integral and
energy paths (reps, n+1, atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gauges import GrowthFunction
from .paths import PathGrid
from .spaces import DiscreteMeasureSpace, modular_of_norms

__all__ = [
    "ProcessError",
    "ProcessSpec",
    "ElementaryProcess",
    "RealizedProcess",
    "make_elementary",
    "ito_integral",
    "eta_paths",
    "triple_norm_path",
    "coarsen_samples",
    "PROCESS_RULES",
]


class ProcessError(ValueError):
    """Invalid process construction or integrand rule."""


# ---------------------------------------------------------------------------
# core kernels


def _prefix_sums(term, coef: np.ndarray, reps: int, n: int, scale: float = 1.0):
    """Paths ``scale * sum_{k<t} sum_j term(j, coef[a, j])[:, k]`` on the atoms,
    C-contiguous (reps, n+1, atoms).

    ``term(j, c)`` is the fresh (reps, n) per-step term of coordinate j under
    coefficient c.  Per distinct ``coef`` row, the terms of its nonzero
    coefficients are added in coordinate order, from +0.0 as a dense einsum
    adds them, and the atoms sharing the row share its prefix sum.
    """
    rows: dict[tuple, list[int]] = {}
    for a, row in enumerate(coef):
        rows.setdefault(tuple(row), []).append(a)
    out = np.empty((reps, n + 1, coef.shape[0]))
    for row, (a, *others) in rows.items():
        live = [(j, c) for j, c in enumerate(row) if c != 0.0]
        total = term(*live[0]) if live else np.zeros((reps, n))
        total += 0.0  # the einsum accumulates from +0.0: a -0.0 term reads +0.0
        for j, c in live[1:]:
            total += term(j, c)
        path = out[:, :, a]
        path[:, 0] = 0.0
        np.cumsum(total, axis=1, out=path[:, 1:])
        if others:
            out[:, :, others] = path[:, :, None]
    if scale != 1.0:
        out *= scale
    return out


def _left_factor(values: np.ndarray, j: int, c: float) -> np.ndarray:
    """``c * values[:, k, j]`` at the left points k < n; c = 1 is exact, so
    that product is skipped."""
    x = values[:, :-1, j]
    return x if c == 1.0 else x * c


def ito_integral(values: np.ndarray, coef: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Left-point integral paths, shape (reps, n+1, atoms).

    The integrand is ``coef[a, j] * values[r, k, j]``: the factor ``values``
    on the full grid (reps, n+1, d), of which only the left points k < n
    enter the sum, and ``coef`` (atoms, d).  ``increments`` is the driver
    (reps, coords, n), of which the leading d coordinates are read.  Each
    step's term ``sum_j (values_j * coef_j) * dB_j`` is added in coordinate
    order, skipping zero coefficients.
    """
    values = np.asarray(values, dtype=float)
    coef = np.asarray(coef, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if not values.shape[-1] == coef.shape[-1] <= increments.shape[1]:
        raise ProcessError(
            f"coordinate mismatch: process has {values.shape[-1]} factors and"
            f" {coef.shape[-1]} coefficients, driver {increments.shape[1]}"
        )
    if values.shape[1] != increments.shape[-1] + 1:
        raise ProcessError("process values must cover the full grid (n+1 samples)")
    reps, _, n = increments.shape
    term = lambda j, c: _left_factor(values, j, c) * increments[:, j]
    return _prefix_sums(term, coef, reps, n)


def eta_paths(values: np.ndarray, coef: np.ndarray, dt: float) -> np.ndarray:
    """Running energy paths sum_{k<t} |X(t_k)|^2 dt, shape (reps, n+1, atoms)."""
    values = np.asarray(values, dtype=float)
    coef = np.asarray(coef, dtype=float)

    def term(j, c):
        x = _left_factor(values, j, c)
        return x * x

    return _prefix_sums(term, coef, values.shape[0], values.shape[1] - 1, dt)


def triple_norm_path(
    eta: np.ndarray, space: DiscreteMeasureSpace, gauge: GrowthFunction
) -> np.ndarray:
    """Modular of sqrt(eta) across atoms: shape (reps, n+1)."""
    return modular_of_norms(np.sqrt(eta), space.weights, gauge)


def coarsen_samples(values: np.ndarray, grid: PathGrid, m: int) -> np.ndarray:
    """Delayed block averages on the grid (time is the last axis, n+1 samples).

    Blocks have width 1/m in time units.  The output on block [j/m, (j+1)/m)
    is the left-Riemann average of the input over the previous block, and 0
    on the first block, so the result at any time reads history only.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1] - 1
    if m < 1:
        raise ProcessError(f"coarsening level must be >= 1, got {m}")
    spb = n / (m * grid.horizon)
    if abs(spb - round(spb)) > 1e-9 or round(spb) < 1:
        raise ProcessError(
            f"block width 1/{m} is not grid aligned (n={n}, horizon={grid.horizon})"
        )
    spb = int(round(spb))
    blocks = n // spb
    lefts = values[..., :n]
    avg = lefts.reshape(values.shape[:-1] + (blocks, spb)).mean(axis=-1)
    zero = np.zeros(values.shape[:-1] + (spb,))
    body = np.repeat(avg[..., :-1], spb, axis=-1)
    return np.concatenate([zero, body, avg[..., -1:]], axis=-1)


# ---------------------------------------------------------------------------
# processes


@dataclass(frozen=True)
class RealizedProcess:
    """A process realized on a driver batch, in factored form.

    The value on atom ``a`` along coordinate ``j`` is
    ``coef[a, j] * values[r, k, j]``: one adapted factor per driver
    coordinate, scaled per atom by a fixed coefficient.
    """

    grid: PathGrid
    values: np.ndarray  # (reps, n+1, d), d <= driver coordinates
    coef: np.ndarray  # (atoms, d)

    def integral(self, increments: np.ndarray) -> np.ndarray:
        return ito_integral(self.values, self.coef, increments)

    def eta(self) -> np.ndarray:
        return eta_paths(self.values, self.coef, self.grid.dt)


@dataclass(frozen=True)
class ElementaryProcess:
    """Blockwise-constant process: grid-aligned breakpoints plus block values
    per driver coordinate, scaled per atom by ``coef``."""

    grid: PathGrid
    break_indices: np.ndarray  # (blocks + 1,), ascending, within [0, n]
    block_values: np.ndarray  # (reps, blocks, d)
    coef: np.ndarray  # (atoms, d)

    def realize(self) -> RealizedProcess:
        reps, blocks, d = self.block_values.shape
        n = self.grid.steps
        out = np.zeros((reps, n + 1, d))
        for i in range(blocks):
            lo, hi = self.break_indices[i], self.break_indices[i + 1]
            out[:, lo:hi] = self.block_values[:, i, None]
        # carry the final block value onto the closing grid point; the
        # integral never reads it, realizations stay block-shaped
        out[:, self.break_indices[-1] :] = self.block_values[:, -1, None]
        return RealizedProcess(self.grid, out, self.coef)

    def integral_double_sum(self, paths: np.ndarray) -> np.ndarray:
        """Direct two-index sum over blocks and coordinates (reps, n+1, atoms).

        Evaluates sum_i sum_j coef_j xi_i^(j) (B^j_{t ∧ s_{i+1}} - B^j_{t ∧ s_i});
        equal to the left-point grid sum up to float reassociation.
        """
        reps, blocks, d = self.block_values.shape
        n = self.grid.steps
        k = np.arange(n + 1)
        out = np.zeros((reps, n + 1, self.coef.shape[0]))
        for i in range(blocks):
            lo = np.minimum(k, self.break_indices[i])
            hi = np.minimum(k, self.break_indices[i + 1])
            span = paths[:, :, hi] - paths[:, :, lo]  # (reps, d, n+1)
            out += np.einsum("aj,rj,rjk->rka", self.coef, self.block_values[:, i], span)
        return out


def make_elementary(
    grid: PathGrid,
    break_indices: np.ndarray,
    value_fn: Callable[[int, np.ndarray], np.ndarray],
    paths: np.ndarray,
    coef: np.ndarray,
) -> ElementaryProcess:
    """Build an elementary process from per-block value functions.

    ``value_fn(i, history)`` receives the driver truncated at the block's
    start, shape (reps, coords, s_i + 1), and must return (reps, d) values,
    one per leading driver coordinate; it cannot read past the breakpoint,
    so the result is adapted by construction.  ``coef`` (atoms, d) scales
    the values per atom.
    """
    idx = np.asarray(break_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 2:
        raise ProcessError("need at least one block (two breakpoints)")
    if np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] > grid.steps:
        raise ProcessError("breakpoints must ascend within the grid")
    reps = paths.shape[0]
    blocks = idx.size - 1
    first = np.asarray(value_fn(0, paths[:, :, : idx[0] + 1]), dtype=float)
    if first.ndim != 2 or first.shape[0] != reps:
        raise ProcessError(f"value function must return (reps, d); got {first.shape}")
    d = first.shape[1]
    coef = np.asarray(coef, dtype=float)
    if coef.ndim != 2 or coef.shape[1] != d:
        raise ProcessError(f"coef must have shape (atoms, {d}); got {coef.shape}")
    vals = np.empty((reps, blocks, d))
    vals[:, 0] = first
    for i in range(1, blocks):
        vals[:, i] = value_fn(i, paths[:, :, : idx[i] + 1])
    return ElementaryProcess(grid, idx, vals, coef)


# ---------------------------------------------------------------------------
# named integrand rules


PROCESS_RULES = ("constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix", "coarsen_m")


@dataclass(frozen=True)
class ProcessSpec:
    """A named integrand rule.

    ``constant_e1`` is 1 and ``B1_times_e1`` is the first driver coordinate,
    along that coordinate; ``sign_of_B1`` is the sign of the first
    coordinate at the start of each of ``blocks`` blocks; ``two_coord_mix``
    is (1, tanh B2) on the first two coordinates, scaled by per-atom
    magnitudes; ``coarsen_m`` delays ``inner`` by block averages of width
    1/``m``.
    """

    rule: str
    blocks: int = 16
    m: int = 8
    inner: ProcessSpec | None = None

    def __post_init__(self) -> None:
        if self.rule not in PROCESS_RULES:
            raise ProcessError(f"unknown integrand rule {self.rule!r}")
        if self.rule == "coarsen_m" and self.inner is None:
            raise ProcessError("rule 'coarsen_m' needs an 'inner' integrand")

    def realize(
        self, paths: np.ndarray, grid: PathGrid, space: DiscreteMeasureSpace
    ) -> RealizedProcess:
        reps, coords, _ = paths.shape
        n = grid.steps
        e1 = np.ones((space.n_atoms, 1))  # the e1 rules realize the first coordinate only
        if self.rule == "constant_e1":
            return RealizedProcess(grid, np.ones((reps, n + 1, 1)), e1)
        if self.rule == "B1_times_e1":
            return RealizedProcess(grid, paths[:, 0, :, None], e1)
        if self.rule == "sign_of_B1":
            if not 1 <= self.blocks <= n:
                raise ProcessError(f"sign_of_B1: blocks must be in [1, {n}], got {self.blocks}")
            idx = np.unique(np.linspace(0, n, self.blocks + 1).astype(np.int64))
            value_fn = lambda i, history: np.sign(history[:, :1, -1])
            return make_elementary(grid, idx, value_fn, paths, e1).realize()
        if self.rule == "two_coord_mix":
            if coords < 2:
                raise ProcessError("rule 'two_coord_mix' needs 2 driver coordinates")
            vals = np.empty((reps, n + 1, 2))
            vals[..., 0] = 1.0
            vals[..., 1] = np.tanh(paths[:, 1])
            # fixed per-atom magnitudes spreading two octaves
            c = np.geomspace(1.0, 0.25, space.n_atoms) if space.n_atoms > 1 else np.ones(1)
            return RealizedProcess(grid, vals, np.stack([c, c], axis=1))
        inner = self.inner.realize(paths, grid, space)
        coarse = coarsen_samples(np.moveaxis(inner.values, 1, -1), grid, self.m)
        return RealizedProcess(grid, np.moveaxis(coarse, -1, 1), inner.coef)
