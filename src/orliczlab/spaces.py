"""Finite atomic measure spaces and the Orlicz modular / Luxemburg norm.

Vectors live on a finite list of weighted atoms with values in a Euclidean
space.  The modular of a vector f under a gauge L is

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
    "OrliczVector",
    "NormRelationReport",
    "modular",
    "modular_of_norms",
    "luxemburg_norm",
    "luxemburg_of_norms",
    "verify_norm_relations",
]


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finite atomic measure space: atom labels plus positive weights."""

    weights: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)
        labels = self.labels or tuple(f"x{i}" for i in range(w.size))
        if len(labels) != w.size:
            raise ValueError("label count must match weight count")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be unique")
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    def to_config(self) -> dict:
        return {"weights": [float(w) for w in self.weights]}

    @staticmethod
    def from_config(config: dict) -> "DiscreteMeasureSpace":
        if "weights" not in config:
            raise ValueError("space config: missing field 'weights'")
        return DiscreteMeasureSpace(config["weights"])


@dataclass(frozen=True)
class OrliczVector:
    """Vector field on a measure space: one Euclidean value per atom."""

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.space.n_atoms:
            raise ValueError(
                f"values must have shape (n_atoms, d); got {np.shape(self.values)}"
            )
        object.__setattr__(self, "values", v)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def scaled(self, c: float) -> "OrliczVector":
        return OrliczVector(self.space, c * self.values)

    def plus(self, other: "OrliczVector") -> "OrliczVector":
        if other.space is not self.space and not np.array_equal(
            other.space.weights, self.space.weights
        ):
            raise ValueError("vectors live on different measure spaces")
        return OrliczVector(self.space, self.values + other.values)


def modular(f: OrliczVector, gauge: GrowthFunction) -> float:
    """[f]_L = sum_i mu_i L(|f(x_i)|)."""
    return float(np.dot(f.space.weights, gauge(f.norms())))


def modular_of_norms(norms: np.ndarray, weights: np.ndarray, gauge: GrowthFunction) -> np.ndarray:
    """Modular on arrays of per-atom norms; atoms are the last axis."""
    norms = np.asarray(norms, dtype=float)
    return gauge(norms) @ np.asarray(weights, dtype=float)


# Bisection stops once the modular at the feasible end is within this of 1.
_LUXEMBURG_TOL = 1e-9


def _luxemburg_scalar(norms, weights, gauge) -> float:
    top = float(norms.max(initial=0.0))
    if top == 0.0:
        return 0.0
    mod = lambda lam: float(np.dot(weights, gauge(norms / lam)))
    # bracket by doubling up from the largest value, or halving down from it
    # when it is already feasible; no scale is evaluated twice
    lo, hi = None, top
    for _ in range(200):
        mod_hi = mod(hi)
        if mod_hi <= 1.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise BracketError("luxemburg norm: no upper bracket")
    if lo is None:
        lo = hi
        for _ in range(200):
            nxt = lo * 0.5
            mod_nxt = mod(nxt)
            if mod_nxt > 1.0:
                lo = nxt
                break
            lo = hi = nxt
            mod_hi = mod_nxt
        else:
            # modular stays <= 1 at every probed scale; the infimum is 0
            return 0.0
    # invariant: mod(lo) > 1 >= mod(hi) = mod_hi; keep the feasible upper end
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        mod_mid = mod(mid)
        if mod_mid <= 1.0:
            hi, mod_hi = mid, mod_mid
        else:
            lo = mid
        if abs(mod_hi - 1.0) <= _LUXEMBURG_TOL:
            break
    return hi


def luxemburg_norm(f: OrliczVector, gauge: GrowthFunction) -> float:
    """Smallest lambda with [f/lambda]_L <= 1, by bisection.

    Returns 0.0 for the zero vector.  The returned value is the feasible
    bisection end, so the unit-ball law [f/norm]_L <= 1 holds exactly for
    the approximant; for continuous strictly scaling gauges the modular at
    the result is 1 within 1e-9.  Each scale is evaluated once.
    """
    return _luxemburg_scalar(f.norms(), f.space.weights, gauge)


def luxemburg_of_norms(
    norms: np.ndarray, weights: np.ndarray, gauge: GrowthFunction
) -> np.ndarray:
    """Luxemburg norm over a batch: ``norms`` has shape (..., n_atoms)."""
    norms = np.asarray(norms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    flat = norms.reshape(-1, norms.shape[-1])
    out = np.array([_luxemburg_scalar(row, weights, gauge) for row in flat])
    return out.reshape(norms.shape[:-1])


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
    vectors = [OrliczVector(space, scales[i] * raw[i]) for i in range(n_samples)]

    unit_ball = 0.0
    mod_margin = np.inf
    norm_margin = np.inf
    norms = []
    for f in vectors:
        lam = luxemburg_norm(f, gauge)
        norms.append(lam)
        m = modular(f, gauge)
        unit_ball = max(unit_ball, modular(f.scaled(1.0 / lam), gauge))
        mod_margin = min(mod_margin, phi_of(gauge, lam) - m)
        norm_margin = min(norm_margin, varphi_of(gauge, m) - lam)

    gamma_hat = 0.0
    for f, g, nf, ng in zip(vectors, vectors[1:], norms, norms[1:]):
        gamma_hat = max(gamma_hat, luxemburg_norm(f.plus(g), gauge) / (nf + ng))
    alpha = _alpha_star(gauge, np.geomspace(2.0, 512.0, 768))

    # faithfulness: rescale a sample to norm = tol and bound its atoms
    probe = vectors[0].scaled(tol / norms[0])
    envelope = np.array([gauge.inverse(1.0 / w) for w in space.weights])
    faithful = float(np.max(probe.norms() / (tol * envelope)))

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
        modular_bound_margin=float(mod_margin),
        norm_bound_margin=float(norm_margin),
        gamma_hat=gamma_hat,
        alpha_star=alpha,
        faithful_ratio=faithful,
        passed=passed,
    )
