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

All kernels are batch-first: driver paths (reps, coords, n+1), realized
process values (reps, n+1, atoms, coords).
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
    "build_process",
    "ito_integral",
    "eta_paths",
    "triple_norm_path",
    "coarsen_samples",
    "PROCESS_RULES",
]


class ProcessError(ValueError):
    """Invalid process construction or rule configuration."""


# ---------------------------------------------------------------------------
# core kernels


def ito_integral(values: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Left-point integral paths, shape (reps, n+1, atoms).

    ``values`` holds the integrand on the full grid (reps, n+1, atoms, d);
    only the left points k < n enter the sum.  ``increments`` is the driver
    (reps, d, n).
    """
    values = np.asarray(values, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if values.shape[-1] != increments.shape[1]:
        raise ProcessError(
            f"coordinate mismatch: process has {values.shape[-1]}, driver {increments.shape[1]}"
        )
    if values.shape[1] != increments.shape[-1] + 1:
        raise ProcessError("process values must cover the full grid (n+1 samples)")
    terms = np.einsum("rkad,rdk->rka", values[:, :-1], increments)
    out = np.zeros((terms.shape[0], terms.shape[1] + 1, terms.shape[2]))
    np.cumsum(terms, axis=1, out=out[:, 1:])
    return out


def eta_paths(values: np.ndarray, dt: float) -> np.ndarray:
    """Running energy paths sum_{k<t} |X(t_k)|^2 dt, shape (reps, n+1, atoms)."""
    values = np.asarray(values, dtype=float)
    sq = np.einsum("rkad,rkad->rka", values[:, :-1], values[:, :-1])
    out = np.zeros((sq.shape[0], sq.shape[1] + 1, sq.shape[2]))
    np.cumsum(sq, axis=1, out=out[:, 1:])
    out *= dt
    return out


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
    """A process realized on a driver batch: dense adapted values."""

    grid: PathGrid
    space: DiscreteMeasureSpace
    values: np.ndarray  # (reps, n+1, atoms, d)
    label: str

    def integral(self, increments: np.ndarray) -> np.ndarray:
        return ito_integral(self.values, increments)

    def eta(self) -> np.ndarray:
        return eta_paths(self.values, self.grid.dt)


@dataclass(frozen=True)
class ElementaryProcess:
    """Blockwise-constant process: grid-aligned breakpoints plus block values."""

    grid: PathGrid
    space: DiscreteMeasureSpace
    break_indices: np.ndarray  # (blocks + 1,), ascending, within [0, n]
    block_values: np.ndarray  # (reps, blocks, atoms, d)
    label: str = "elementary"

    def realize(self) -> RealizedProcess:
        reps, blocks, atoms, d = self.block_values.shape
        n = self.grid.steps
        out = np.zeros((reps, n + 1, atoms, d))
        for i in range(blocks):
            lo, hi = self.break_indices[i], self.break_indices[i + 1]
            out[:, lo:hi] = self.block_values[:, i, None]
        # carry the final block value onto the closing grid point; the
        # integral never reads it, dense realizations stay block-shaped
        out[:, self.break_indices[-1] :] = self.block_values[:, -1, None]
        return RealizedProcess(self.grid, self.space, out, self.label)

    def integral_double_sum(self, paths: np.ndarray) -> np.ndarray:
        """Direct two-index sum over blocks and coordinates (reps, n+1, atoms).

        Evaluates sum_i sum_j xi_i^(j) (B^j_{t ∧ s_{i+1}} - B^j_{t ∧ s_i});
        equal to the left-point grid sum up to float reassociation.
        """
        reps, blocks, atoms, d = self.block_values.shape
        n = self.grid.steps
        k = np.arange(n + 1)
        out = np.zeros((reps, n + 1, atoms))
        for i in range(blocks):
            lo = np.minimum(k, self.break_indices[i])
            hi = np.minimum(k, self.break_indices[i + 1])
            span = paths[:, :, hi] - paths[:, :, lo]  # (reps, d, n+1)
            out += np.einsum("rad,rdk->rka", self.block_values[:, i], span)
        return out


def make_elementary(
    grid: PathGrid,
    space: DiscreteMeasureSpace,
    break_indices: np.ndarray,
    value_fn: Callable[[int, np.ndarray], np.ndarray],
    paths: np.ndarray,
    label: str = "elementary",
) -> ElementaryProcess:
    """Build an elementary process from per-block value functions.

    ``value_fn(i, history)`` receives the driver truncated at the block's
    start, shape (reps, coords, s_i + 1), and must return (reps, atoms, d)
    values; it cannot read past the breakpoint, so the result is adapted by
    construction.
    """
    idx = np.asarray(break_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 2:
        raise ProcessError("need at least one block (two breakpoints)")
    if np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] > grid.steps:
        raise ProcessError("breakpoints must ascend within the grid")
    reps, coords = paths.shape[0], paths.shape[1]
    blocks = idx.size - 1
    first = np.asarray(value_fn(0, paths[:, :, : idx[0] + 1]), dtype=float)
    if first.shape[0] != reps or first.shape[1] != space.n_atoms:
        raise ProcessError(
            f"value function must return (reps, atoms, d); got {first.shape}"
        )
    vals = np.empty((reps, blocks) + first.shape[1:])
    vals[:, 0] = first
    for i in range(1, blocks):
        vals[:, i] = value_fn(i, paths[:, :, : idx[i] + 1])
    return ElementaryProcess(grid, space, idx, vals, label=label)


# ---------------------------------------------------------------------------
# named integrand rules


@dataclass(frozen=True)
class ProcessSpec:
    """Config-addressable integrand: a named rule plus parameters."""

    rule: str
    params: dict

    @staticmethod
    def from_config(cfg: dict) -> "ProcessSpec":
        if not isinstance(cfg, dict) or "rule" not in cfg:
            raise ProcessError("process config must be a mapping with a 'rule' key")
        cfg = dict(cfg)
        rule = cfg.pop("rule")
        if rule not in PROCESS_RULES:
            raise ProcessError(f"unknown integrand rule {rule!r}")
        return ProcessSpec(rule=rule, params=cfg)

    def to_config(self) -> dict:
        out = {"rule": self.rule}
        for key, val in self.params.items():
            out[key] = val.to_config() if isinstance(val, ProcessSpec) else val
        return out

    @property
    def min_coords(self) -> int:
        if self.rule == "two_coord_mix":
            return 2
        if self.rule == "coarsen_m":
            return _inner_spec(self).min_coords
        return 1

    @property
    def label(self) -> str:
        if self.rule == "coarsen_m":
            return f"{_inner_spec(self).label}+J{self.params.get('m', 8)}"
        return self.rule

    def realize(self, paths: np.ndarray, grid: PathGrid, space: DiscreteMeasureSpace) -> RealizedProcess:
        return _realize_rule(self, paths, grid, space)


def _inner_spec(spec: ProcessSpec) -> ProcessSpec:
    inner = spec.params.get("inner")
    if inner is None:
        raise ProcessError(f"rule {spec.rule!r} needs an 'inner' integrand")
    if isinstance(inner, ProcessSpec):
        return inner
    return ProcessSpec.from_config(inner)


def _atom_weights_pattern(n_atoms: int) -> np.ndarray:
    # fixed per-atom magnitudes spreading two octaves
    return np.geomspace(1.0, 0.25, n_atoms) if n_atoms > 1 else np.ones(1)


def _realize_rule(spec: ProcessSpec, paths, grid: PathGrid, space: DiscreteMeasureSpace) -> RealizedProcess:
    reps, coords, _ = paths.shape
    if coords < spec.min_coords:
        raise ProcessError(f"rule {spec.rule!r} needs {spec.min_coords} driver coordinates")
    n = grid.steps
    atoms = space.n_atoms
    if spec.rule == "constant_e1":
        vals = np.zeros((reps, n + 1, atoms, coords))
        vals[..., 0] = 1.0
        return RealizedProcess(grid, space, vals, spec.label)
    if spec.rule == "B1_times_e1":
        vals = np.zeros((reps, n + 1, atoms, coords))
        vals[..., 0] = paths[:, 0, :, None]
        return RealizedProcess(grid, space, vals, spec.label)
    if spec.rule == "sign_of_B1":
        blocks = int(spec.params.get("blocks", 16))
        if not 1 <= blocks <= n:
            raise ProcessError(f"sign_of_B1: blocks must be in [1, {n}], got {blocks}")
        idx = np.unique(np.linspace(0, n, blocks + 1).astype(np.int64))

        def value_fn(i, history):
            sgn = np.sign(history[:, 0, -1])
            out = np.zeros((history.shape[0], atoms, coords))
            out[..., 0] = sgn[:, None]
            return out

        return make_elementary(grid, space, idx, value_fn, paths, label=spec.label).realize()
    if spec.rule == "two_coord_mix":
        c = _atom_weights_pattern(atoms)
        vals = np.zeros((reps, n + 1, atoms, coords))
        vals[..., 0] = c[None, None, :]
        vals[..., 1] = c[None, None, :] * np.tanh(paths[:, 1, :, None])
        return RealizedProcess(grid, space, vals, spec.label)
    if spec.rule == "coarsen_m":
        m = int(spec.params.get("m", 8))
        inner = _inner_spec(spec).realize(paths, grid, space)
        coarse = coarsen_samples(np.moveaxis(inner.values, 1, -1), grid, m)
        return RealizedProcess(grid, space, np.moveaxis(coarse, -1, 1), spec.label)
    raise ProcessError(f"unknown integrand rule {spec.rule!r}")


def build_process(cfg: dict | ProcessSpec) -> ProcessSpec:
    """Validate a rule config and return its ProcessSpec."""
    spec = cfg if isinstance(cfg, ProcessSpec) else ProcessSpec.from_config(cfg)
    if spec.rule == "coarsen_m":
        _inner_spec(spec)
    return spec


PROCESS_RULES: dict[str, str] = {
    "constant_e1": "unit first-coordinate integrand on every atom",
    "sign_of_B1": "blockwise sign of the first driver coordinate",
    "B1_times_e1": "first driver coordinate times the first basis vector",
    "two_coord_mix": "two-coordinate mix with per-atom magnitudes and tanh feedback",
    "coarsen_m": "delayed block-average wrapper around an inner integrand",
}
