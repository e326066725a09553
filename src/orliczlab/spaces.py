"""Finite atomic measure spaces and the Orlicz modular / Luxemburg norm.

An Orlicz vector on a finite list of weighted atoms is seen only through
its per-atom norms |f(x_i)|, so every function here takes a ``(..., atoms)``
norm array.  The modular of f under a gauge L is

    [f]_L = sum_i  mu_i * L(|f(x_i)|)

and the Luxemburg norm is the smallest lambda with [f / lambda]_L <= 1,
found by bisection.  ``verify_norm_relations`` samples random vectors and
measures the sandwich between modular and norm through the scaling
transforms, the unit-ball law, the quasi-triangle constant and norm
faithfulness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .gauges import BracketError, GrowthFunction, phi_of, varphi_of

__all__ = [
    "DiscreteMeasureSpace",
    "NormRelationReport",
    "modular_of_norms",
    "luxemburg_of_norms",
    "verify_norm_relations",
]


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finite atomic measure space: one positive weight per atom."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.weights.size


def modular_of_norms(norms: np.ndarray, weights: np.ndarray, gauge: GrowthFunction) -> np.ndarray:
    """Modular on arrays of per-atom norms; atoms are the last axis."""
    norms = np.asarray(norms, dtype=float)
    return gauge(norms) @ np.asarray(weights, dtype=float)


# Bisection stops once the modular at the feasible end is within this of 1.
_LUXEMBURG_TOL = 1e-9


def luxemburg_of_norms(norms: np.ndarray, weights: np.ndarray, gauge: GrowthFunction) -> np.ndarray:
    """Luxemburg norm over a batch: ``norms`` has shape (..., n_atoms).

    One masked bisection over all rows; each round evaluates the gauge once,
    on the rows still moving.  Per row, the bracket doubles up from the
    row's largest value, or halves down from it when that is already
    feasible, then bisects and keeps the feasible upper end, until the
    bracket is within 1e-13 relative or, checked after each step, the
    modular there is within ``_LUXEMBURG_TOL`` of 1.  The unit-ball law
    [f/norm]_L <= 1 thus holds exactly for the returned approximant.  No
    row evaluates a scale twice.  A zero row, and a row feasible at every
    probed scale, get 0.0.  A row holding NaN or +-inf, and a row with no
    feasible scale in 200 doublings, raise ``BracketError``.
    """
    norms = np.asarray(norms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    flat = norms.reshape(-1, norms.shape[-1])
    bad = np.flatnonzero(~np.isfinite(flat).all(axis=1))
    if bad.size:
        # a gauge may map NaN to 0, which would read as a zero norm
        row = tuple(int(k) for k in np.unravel_index(bad[0], norms.shape[:-1]))
        raise BracketError(f"luxemburg norm: row {row} holds a non-finite value")
    # vecdot reduces each row as np.dot does one vector, bit for bit
    mod = lambda rows, lam: np.vecdot(gauge(flat[rows] / lam[:, None]), weights)

    hi = flat.max(axis=1, initial=0.0)
    lo = np.zeros_like(hi)
    mod_hi = np.zeros_like(hi)
    # doubling: a row moves on unless mod <= 1, so a NaN modular keeps doubling
    doubled = np.zeros(hi.shape, dtype=bool)
    live = np.flatnonzero(hi != 0.0)
    for _ in range(200):
        if not live.size:
            break
        m = mod(live, hi[live])
        mod_hi[live] = m
        live = live[~(m <= 1.0)]
        lo[live] = hi[live]
        hi[live] *= 2.0
        doubled[live] = True
    if live.size:
        raise BracketError("luxemburg norm: no upper bracket")
    # halving, for rows already feasible at their largest value: stop once
    # the next scale is infeasible
    live = np.flatnonzero(~doubled & (hi != 0.0))
    lo[live] = hi[live]
    for _ in range(200):
        if not live.size:
            break
        nxt = 0.5 * lo[live]
        m = mod(live, nxt)
        lo[live] = nxt
        feasible = ~(m > 1.0)
        live = live[feasible]
        hi[live] = nxt[feasible]
        mod_hi[live] = m[feasible]
    # the modular stays <= 1 at every probed scale: the infimum is 0
    hi[live] = 0.0
    # bisection; invariant: mod(lo) > 1 >= mod(hi) = mod_hi
    live = np.flatnonzero(hi != 0.0)
    while True:
        live = live[hi[live] - lo[live] > 1e-13 * hi[live]]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        m = mod(live, mid)
        feasible = m <= 1.0
        hi[live[feasible]] = mid[feasible]
        mod_hi[live[feasible]] = m[feasible]
        lo[live[~feasible]] = mid[~feasible]
        live = live[~(np.abs(mod_hi[live] - 1.0) <= _LUXEMBURG_TOL)]
    return hi.reshape(norms.shape[:-1])


@dataclass(frozen=True)
class NormRelationReport:
    """Measured norm/modular relations over a random sample of vectors."""

    n_samples: int
    unit_ball_max: float
    modular_bound_margin: float
    norm_bound_margin: float
    gamma_hat: float
    alpha_star: float
    faithful_ratio: float
    passed: bool


def _alpha_star(gauge: GrowthFunction, grid: np.ndarray) -> float:
    for alpha in grid:
        if 2.0 * phi_of(gauge, 2.0 / alpha) <= 1.0:
            return float(alpha)
    raise BracketError("no quasi-triangle constant found on the probe grid")


def verify_norm_relations(
    space: DiscreteMeasureSpace, gauge: GrowthFunction, *, n_samples: int = 64, seed: int = 0
) -> NormRelationReport:
    """Sample vectors and verify the norm/modular sandwich empirically.

    Checks, per sample f with values in R^2: the unit-ball law [f/|f|] <= 1;
    the two scaling bounds [f] <= phi(|f|) and |f| <= varphi([f]), each to
    ``tol`` = 1e-5 relative; over consecutive pairs, the quasi-triangle
    ratio against the smallest alpha on a geometric grid with
    2 phi(2/alpha) <= 1; and that norm ``tol`` forces every atom value
    below ``tol`` times the gauge-inverse envelope.
    """
    dim, tol = 2, 1e-5
    rng = substream(seed, "norm-relations", space.n_atoms, dim)
    scales = np.exp(rng.uniform(-3.0, 3.0, size=n_samples))
    raw = rng.normal(size=(n_samples, space.n_atoms, dim))
    values = scales[:, None, None] * raw  # (samples, atoms, dim)

    atom_norms = lambda v: np.linalg.norm(v, axis=-1)
    # vecdot reduces each row as np.dot does one vector, bit for bit
    modulars = lambda v: np.vecdot(gauge(atom_norms(v)), space.weights)
    norms = luxemburg_of_norms(atom_norms(values), space.weights, gauge)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        # the gauge saturates below modular 1 on this space: no scale of f
        # reaches the unit sphere, so the relations have nothing to measure
        raise BracketError(
            f"norm relations: nonzero sample {zero[0]} has Luxemburg norm 0 under"
            f" {gauge.label} on weights {space.weights.tolist()}"
        )
    sum_norms = luxemburg_of_norms(atom_norms(values[:-1] + values[1:]), space.weights, gauge)
    mods = modulars(values)

    unit_ball = float(modulars((1.0 / norms)[:, None, None] * values).max(initial=0.0))
    phis = np.array([phi_of(gauge, lam) for lam in norms])
    varphis = np.array([varphi_of(gauge, m) for m in mods])
    mod_margin = float((phis - mods).min())
    norm_margin = float((varphis - norms).min())
    gamma_hat = float((sum_norms / (norms[:-1] + norms[1:])).max(initial=0.0))
    alpha = _alpha_star(gauge, np.geomspace(2.0, 512.0, 768))

    # faithfulness: rescale a sample to norm = tol and bound its atoms
    probe = atom_norms((tol / norms[0]) * values[0])
    envelope = np.array([gauge.inverse(1.0 / w) for w in space.weights])
    faithful = float(np.max(probe / (tol * envelope)))

    passed = bool(
        unit_ball <= 1.0 + 1e-12
        and mod_margin >= -tol * max(1.0, abs(mod_margin))
        and norm_margin >= -tol * max(1.0, abs(norm_margin))
        and gamma_hat <= alpha * (1.0 + 1e-9)
        and faithful <= 1.0 + 1e-9
    )
    return NormRelationReport(
        n_samples=n_samples,
        unit_ball_max=unit_ball,
        modular_bound_margin=mod_margin,
        norm_bound_margin=norm_margin,
        gamma_hat=gamma_hat,
        alpha_star=alpha,
        faithful_ratio=faithful,
        passed=passed,
    )
