"""Growth functions (gauges) and their scaling transforms.

A gauge is a nondecreasing function ``L : [0, inf) -> [0, inf)`` with
``L(0+) = 0``, used to measure the size of vectors and processes.  This
module provides the named families used throughout the library, the scaling
transforms

    phi(s)    = sup_t L(s t) / L(t)
    psi(t)    = inf {s >= 0 : phi(s) >= t}
    varphi(t) = 1 / psi(1 / t)

the complementary gauge of an N-function (via the right inverse of the
right derivative), and empirical classification of a gauge into the
moderate-growth classes the inequality lab relies on.

Class flags reported by :func:`classify_gauge` are measured on finite probe
grids.  They are evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import integrate as _sint

__all__ = [
    "GaugeError",
    "NotNFunctionError",
    "BracketError",
    "GrowthFunction",
    "GaugeClassReport",
    "make_gauge",
    "gauge_from_config",
    "phi_of",
    "psi_of",
    "varphi_of",
    "complementary_gauge",
    "young_gap",
    "kappa_probe",
    "classify_gauge",
    "REGISTRY",
    "registry_gauges",
]

# Interior kink of the lambda_alpha family: the log factor saturates here.
_KINK = math.exp(-1.0)
# Relative bracket width at which GrowthFunction.inverse stops bisecting.
_INVERSE_REL_TOL = 1e-12


class GaugeError(ValueError):
    """Invalid gauge construction or a violated gauge precondition."""


class NotNFunctionError(GaugeError):
    """Operation requires an N-function and the probe rejected the gauge."""


class BracketError(RuntimeError):
    """A bisection bracket could not be established within iteration caps."""


# ---------------------------------------------------------------------------
# evaluation kernels per family


def _power_eval(p: float, coeff: float) -> Callable:
    def ev(t):
        return coeff * np.power(t, p)

    return ev


def _power_log_eval(p: float) -> Callable:
    def ev(t):
        return np.power(t, p) * np.log1p(t)

    return ev


def _lambda_alpha_eval(alpha: float) -> Callable:
    # t^alpha everywhere, times the log factor only below the kink (the
    # factor is 1 above it); 0 wherever t > 0 fails, NaN included
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        with np.errstate(invalid="ignore"):
            np.power(t, alpha, out=out)
        low = t < _KINK
        factor = np.maximum(t[low], 1e-300)
        np.log(factor, out=factor)
        np.divide(-1.0, factor, out=factor)
        out[low] *= factor
        np.copyto(out, 0.0, where=~(t > 0.0))
        return out

    return ev


def _expm1_eval() -> Callable:
    def ev(t):
        with np.errstate(over="ignore"):
            return np.expm1(t)

    return ev


def _table_eval(knot_t: np.ndarray, knot_y: np.ndarray) -> Callable:
    logt = np.log(knot_t)
    logy = np.log(knot_y)
    slope_lo = (logy[1] - logy[0]) / (logt[1] - logt[0])
    slope_hi = (logy[-1] - logy[-2]) / (logt[-1] - logt[-2])

    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        pos = t > 0.0
        x = np.log(t[pos])
        y = np.interp(x, logt, logy)
        below = x < logt[0]
        above = x > logt[-1]
        y[below] = logy[0] + slope_lo * (x[below] - logt[0])
        y[above] = logy[-1] + slope_hi * (x[above] - logt[-1])
        out[pos] = np.exp(y)
        return out

    return ev


def _lambda_alpha_deriv(alpha: float) -> Callable:
    def dv(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ell = -np.log(np.maximum(t, 1e-300))
            inner = np.power(t, alpha - 1.0) * (alpha * ell + 1.0) / (ell * ell)
            outer = alpha * np.power(t, alpha - 1.0)
        return np.where(t < _KINK, inner, outer)

    return dv


@dataclass(frozen=True, eq=False)
class GrowthFunction:
    """A gauge with its family tag, parameters and closed-form hooks.

    Instances are built with :func:`make_gauge`; they evaluate vectorized
    over nonnegative arguments with ``L(0) = 0`` taken as the limit value.
    """

    family: str
    params: dict
    label: str
    domain_floor: float = 1e-8
    _eval: Callable = field(default=None, repr=False)
    _deriv: Callable | None = field(default=None, repr=False)
    _phi_closed: Callable | None = field(default=None, repr=False)
    _complement: Callable | None = field(default=None, repr=False)
    kappa_closed: float | None = None
    rv_index_closed: float | None = None

    def __call__(self, t):
        return self._eval(np.asarray(t, dtype=float))

    def derivative(self, t):
        """Right derivative; closed form when the family has one."""
        if self._deriv is not None:
            return self._deriv(np.asarray(t, dtype=float))
        t = np.asarray(t, dtype=float)
        h = 1e-7 * np.maximum(t, 1e-3)
        return (self._eval(t + h) - self._eval(t)) / h

    def inverse(self, y: float) -> float:
        """Smallest t with L(t) >= y, by bisection on the monotone gauge."""
        if y <= 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if float(self._eval(np.float64(hi))) >= y:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise BracketError("gauge inverse: no upper bracket")
        while hi - lo > _INVERSE_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if float(self._eval(np.float64(mid))) >= y:
                hi = mid
            else:
                lo = mid
        return hi

    def to_config(self) -> dict:
        if self.family == "numeric":
            raise GaugeError("derived numeric gauges have no config form")
        return {"family": self.family, **self.params}


def _power_phi(p: float) -> Callable:
    return lambda s: np.power(s, p)


def _power_log_phi(p: float) -> Callable:
    def ph(s):
        s = np.asarray(s, dtype=float)
        return np.power(s, p) * np.maximum(s, 1.0)

    return ph


def _lambda_alpha_phi(alpha: float) -> Callable:
    def ph(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(invalid="ignore"):
            high = np.power(s, alpha) * (1.0 + np.log(np.maximum(s, 1e-300)))
        return np.where(s >= 1.0, high, np.power(s, alpha))

    return ph


def _power_complement(p: float, coeff: float) -> Callable:
    # Right derivative a(t) = coeff*p*t^(p-1); its right inverse integrates
    # to (coeff*p)^(1-q) * t^q / q with q the conjugate exponent.
    def build() -> GrowthFunction:
        if p <= 1.0:
            raise NotNFunctionError("power gauge with p <= 1 has no complementary N-function")
        q = p / (p - 1.0)
        cq = (coeff * p) ** (1.0 - q) / q
        return make_gauge("power", p=q, coeff=cq)

    return build


def make_gauge(family: str, **params) -> GrowthFunction:
    """Construct a gauge from a family tag and its parameters.

    Families: ``power`` (coeff * t^p, coeff optional), ``power_log``
    (t^p * log(1+t)), ``lambda_alpha`` (t^alpha * ((log 1/t)^-1 ∧ 1)),
    ``exp_minus_one`` and ``table`` (log-linear interpolation through
    positive knots, end slopes extrapolated).
    """
    if family == "power":
        extra = set(params) - {"p", "coeff"}
        if extra:
            raise GaugeError(f"power family: unknown parameters {sorted(extra)}")
        if "p" not in params:
            raise GaugeError("power family: missing exponent p")
        p = float(params["p"])
        coeff = float(params.get("coeff", 1.0))
        if p <= 0.0:
            raise GaugeError(f"power family: exponent must be positive, got {p}")
        if coeff <= 0.0:
            raise GaugeError(f"power family: coefficient must be positive, got {coeff}")
        shown = {"p": p} if coeff == 1.0 else {"p": p, "coeff": coeff}
        return GrowthFunction(
            family="power",
            params=shown,
            label=f"{coeff:g}*t^{p:g}" if coeff != 1.0 else f"t^{p:g}",
            _eval=_power_eval(p, coeff),
            _deriv=lambda t, p=p, c=coeff: c * p * np.power(np.asarray(t, float), p - 1.0),
            _phi_closed=_power_phi(p),
            _complement=_power_complement(p, coeff),
            kappa_closed=(1.0 / (p - 1.0)) if p > 1.0 else None,
            rv_index_closed=p,
        )
    if family == "power_log":
        extra = set(params) - {"p"}
        if extra:
            raise GaugeError(f"power_log family: unknown parameters {sorted(extra)}")
        p = float(params.get("p", 0.0))
        if p <= 0.0:
            raise GaugeError(f"power_log family: exponent must be positive, got {p}")
        return GrowthFunction(
            family="power_log",
            params={"p": p},
            label=f"t^{p:g}*log(1+t)",
            _eval=_power_log_eval(p),
            _deriv=lambda t, p=p: (
                p * np.power(np.asarray(t, float), p - 1.0) * np.log1p(np.asarray(t, float))
                + np.power(np.asarray(t, float), p) / (1.0 + np.asarray(t, float))
            ),
            _phi_closed=_power_log_phi(p),
            rv_index_closed=p + 1.0,
        )
    if family == "lambda_alpha":
        extra = set(params) - {"alpha"}
        if extra:
            raise GaugeError(f"lambda_alpha family: unknown parameters {sorted(extra)}")
        alpha = float(params.get("alpha", -1.0))
        if alpha < 0.0:
            raise GaugeError(f"lambda_alpha family: alpha must be >= 0, got {alpha}")
        return GrowthFunction(
            family="lambda_alpha",
            params={"alpha": alpha},
            label=f"lambda^{alpha:g}",
            _eval=_lambda_alpha_eval(alpha),
            _deriv=_lambda_alpha_deriv(alpha),
            _phi_closed=_lambda_alpha_phi(alpha),
        )
    if family == "exp_minus_one":
        if params:
            raise GaugeError(f"exp_minus_one family: unknown parameters {sorted(params)}")
        return GrowthFunction(
            family="exp_minus_one",
            params={},
            label="exp(t)-1",
            _eval=_expm1_eval(),
            _deriv=lambda t: np.exp(np.asarray(t, float)),
        )
    if family == "table":
        extra = set(params) - {"knots"}
        if extra:
            raise GaugeError(f"table family: unknown parameters {sorted(extra)}")
        knots = params.get("knots")
        if knots is None or len(knots) < 2:
            raise GaugeError("table family: need at least two (t, value) knots")
        arr = np.asarray(knots, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GaugeError("table family: knots must be (t, value) pairs")
        kt, ky = arr[:, 0], arr[:, 1]
        if np.any(kt <= 0.0) or np.any(ky <= 0.0):
            raise GaugeError("table family: knots must be strictly positive")
        if np.any(np.diff(kt) <= 0.0) or np.any(np.diff(ky) < 0.0):
            raise GaugeError("table family: knots must increase in t and not decrease in value")
        return GrowthFunction(
            family="table",
            params={"knots": [[float(a), float(b)] for a, b in arr]},
            label=f"table[{len(arr)}]",
            _eval=_table_eval(kt, ky),
        )
    raise GaugeError(f"unknown gauge family {family!r}")


def gauge_from_config(cfg: dict) -> GrowthFunction:
    """Build a gauge from its serialized form, e.g. {"family": "power", "p": 2.0}."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise GaugeError("gauge config must be a mapping with a 'family' key")
    cfg = dict(cfg)
    family = cfg.pop("family")
    return make_gauge(family, **cfg)


def _numeric_gauge(ev: Callable, label: str, source: str) -> GrowthFunction:
    return GrowthFunction(
        family="numeric",
        params={"source": source},
        label=label,
        _eval=ev,
    )


# ---------------------------------------------------------------------------
# scaling transforms


def phi_of(gauge: GrowthFunction, s: float, *, use_closed: bool = True) -> float:
    """sup_t L(s t)/L(t), closed form when available else a refined grid sup.

    The numeric value is a supremum over a geometric t-grid of 4096 points,
    doubled until two consecutive refinements agree to 1e-6 relative or the
    grid reaches 2^20 points; it is a lower bound of the true supremum that
    dominates every probed ratio.
    """
    s = float(s)
    if s <= 0.0:
        raise GaugeError(f"phi transform needs s > 0, got {s}")
    if use_closed and gauge._phi_closed is not None:
        return float(gauge._phi_closed(s))
    floor = gauge.domain_floor
    points = 4096
    prev = None
    while True:
        t = np.geomspace(floor, 1.0 / floor, points)
        with np.errstate(over="ignore", invalid="ignore"):
            num = gauge(s * t)
            den = gauge(t)
            ratio = num / den
        if not np.all(np.isfinite(ratio)):
            raise GaugeError(
                f"phi transform: gauge {gauge.label} overflowed on the probe grid"
            )
        cur = float(ratio.max())
        if prev is not None and abs(cur - prev) <= 1e-6 * max(abs(cur), 1e-300):
            return cur
        if points >= 1 << 20:
            return cur
        prev = cur
        points *= 2


def psi_of(gauge: GrowthFunction, t: float) -> float:
    """inf {s >= 0 : phi(s) >= t}, by bisection on the monotone transform.

    Bisects to 1e-9 relative and returns the upper end, so
    phi(psi_of(t)) >= t holds for the returned approximant.  Returns 0.0
    when phi never drops below t on the probe range (possible only outside
    the vanishing-scaling class).
    """
    t = float(t)
    if t <= 0.0:
        raise GaugeError(f"psi transform needs t > 0, got {t}")
    phi = lambda s: phi_of(gauge, s)
    lo = hi = 1.0
    if phi(1.0) >= t:
        for _ in range(200):
            lo *= 0.5
            if phi(lo) < t:
                break
            hi = lo
            if lo < 1e-30:
                return 0.0
    else:
        for _ in range(200):
            hi *= 2.0
            if phi(hi) >= t:
                break
            lo = hi
            if hi > 1e30:
                raise BracketError("psi transform: no upper bracket")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if phi(mid) >= t:
            hi = mid
        else:
            lo = mid
    return hi


def varphi_of(gauge: GrowthFunction, t: float) -> float:
    """1 / psi(1 / t); +inf when psi(1/t) = 0."""
    t = float(t)
    if t <= 0.0:
        raise GaugeError(f"varphi transform needs t > 0, got {t}")
    denom = psi_of(gauge, 1.0 / t)
    return math.inf if denom == 0.0 else 1.0 / denom


# ---------------------------------------------------------------------------
# complementary gauge and Young's inequality


def _right_inverse_of_derivative(gauge: GrowthFunction) -> Callable:
    a = gauge.derivative

    def atilde(u: float) -> float:
        # inf {s >= 0 : a(s) > u}; bisection keeps the upper end so the
        # integrated complementary is biased upward, never below the truth.
        if u < 0.0:
            raise GaugeError("right inverse needs u >= 0")
        hi = 1.0
        if float(a(np.float64(hi))) > u:
            lo = 0.0
        else:
            for _ in range(200):
                lo, hi = hi, hi * 2.0
                if float(a(np.float64(hi))) > u:
                    break
                if hi > 1e30:
                    raise BracketError("right inverse: derivative never exceeds level")
            else:
                raise BracketError("right inverse: no upper bracket")
        while hi - lo > 1e-13 * max(hi, 1.0):
            mid = 0.5 * (lo + hi)
            if float(a(np.float64(mid))) > u:
                hi = mid
            else:
                lo = mid
        return hi

    return atilde


def complementary_gauge(gauge: GrowthFunction) -> GrowthFunction:
    """Complementary gauge of an N-function.

    Uses the closed form when the family has one, else integrates the right
    inverse of the right derivative.  Raises :class:`NotNFunctionError` when
    the strict N-function probe rejects the gauge.
    """
    report = classify_gauge(gauge)
    if not report.is_N_function:
        raise NotNFunctionError(
            f"gauge {gauge.label} failed the N-function probe; no complementary gauge"
        )
    if gauge._complement is not None:
        return gauge._complement()
    atilde = _right_inverse_of_derivative(gauge)

    def ev(t):
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t).ravel()
        order = np.argsort(flat)
        vals = np.zeros(flat.shape)
        total = 0.0
        prev = 0.0
        for idx in order:
            ti = flat[idx]
            if ti > prev:
                chunk, _ = _sint.quad(atilde, prev, ti, epsabs=1e-12, epsrel=1e-10, limit=200)
                total += chunk
                prev = ti
            vals[idx] = total
        return vals.reshape(t.shape) if t.shape else np.float64(vals[0])

    return _numeric_gauge(ev, label=f"complement({gauge.label})", source=gauge.label)


def young_gap(gauge: GrowthFunction, comp: GrowthFunction, s, t):
    """L(s) + L~(t) - s t; nonnegative for a true complementary pair."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return gauge(s) + comp(t) - s * t


# ---------------------------------------------------------------------------
# kappa integral


def kappa_probe(gauge: GrowthFunction) -> tuple[float | None, str]:
    """Worst ratio of int_0^1 L(s t)/s^2 ds to L(t) over 13 geometric t in [1e-3, 1e3].

    The integral is computed under s = e^-u, doubling the upper limit until
    the last chunk contributes less than 1e-8 of the running total.
    Returns (None, diagnostic) when the integral fails to converge by u = 512.
    """
    worst = 0.0
    for t in np.geomspace(1e-3, 1e3, 13):
        integrand = lambda u, t=t: float(gauge(t * math.exp(-u))) * math.exp(u)
        total = 0.0
        lo, hi = 0.0, 4.0
        converged = False
        while hi <= 512.0:
            chunk, _ = _sint.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
            total += chunk
            if chunk <= 1e-8 * total and lo > 0.0:
                converged = True
                break
            lo, hi = hi, hi * 2.0
        if not converged:
            return None, (
                f"kappa integral did not converge for t={t:g}: upper limit 512.0 reached"
                " with a non-vanishing tail"
            )
        denom = float(gauge(np.float64(t)))
        if denom <= 0.0:
            return None, f"kappa integral: gauge vanishes at probe t={t:g}"
        worst = max(worst, total / denom)
    return worst, "ok"


# ---------------------------------------------------------------------------
# classification

# Probe range [_FLOOR, _CEIL]: _DECADES decades, _PER_DECADE geometric points each.
_FLOOR, _CEIL, _DECADES = 1e-8, 1e8, 16
_PER_DECADE = 32
# Dilations at which the A0 probe measures sup_t L(lam t)/L(t).
_LAMBDAS = (1.5, 2.0, 4.0)


@dataclass(frozen=True)
class GaugeClassReport:
    """Empirical class flags for one gauge.

    ``kappa_A2`` is present only when the strict flags admit it;
    ``kappa_probe`` always carries the measured integral when it converges.
    ``a2_operational`` is the inequality lab's admission gate: vanishing
    scaling plus a convergent kappa integral plus N-like behaviour at
    decade scale (local kinks that vanish under equivalent rescaling do
    not disqualify a gauge there).
    """

    gauge_label: str
    is_A0: bool
    c_lambda_worst: float
    is_A1: bool
    phi_at_smallest_s: float
    is_N_function: bool
    kappa_A2: float | None
    kappa_diagnostic: str
    kappa_value: float | None
    a2_operational: bool
    rv_index: float | None


def _probe_grid() -> np.ndarray:
    return np.geomspace(_FLOOR, _CEIL, _DECADES * _PER_DECADE + 1)


def _finite_c_lambda(gauge: GrowthFunction, lam: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = gauge(lam * t) / gauge(t)
    return ratio


def _is_a0(gauge: GrowthFunction):
    """Positive, nondecreasing, L(_FLOOR) <= L(1)/2, and the lambda = 2
    ratio over the top decade within 1.25 times the two decades before."""
    t = _probe_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = gauge(t)
    if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
        return False, math.inf
    if np.any(np.diff(vals) < -1e-12 * vals[:-1]):
        return False, math.inf
    v1 = float(gauge(np.float64(1.0)))
    vanishes = float(vals[0]) <= 0.5 * v1
    worst = 0.0
    stable = True
    for lam in _LAMBDAS:
        sub = t[t * lam <= _CEIL]
        ratio = _finite_c_lambda(gauge, lam, sub)
        if not np.all(np.isfinite(ratio)):
            return False, math.inf
        worst = max(worst, float(ratio.max()))
        if lam == 2.0 and ratio.size > 3 * _PER_DECADE:
            top = float(ratio[-_PER_DECADE:].max())
            prior = float(ratio[-3 * _PER_DECADE : -_PER_DECADE].max())
            stable = top <= 1.25 * prior
    return bool(vanishes and stable), worst


def _phi_decay(gauge: GrowthFunction):
    """phi decreasing over s = 2^-1 .. 2^-14 and at most 0.05 at the end."""
    scales = 0.5 ** np.arange(1, 15)
    vals = np.array([phi_of(gauge, s) for s in scales])
    decreasing = np.all(np.diff(vals) <= 1e-9 * np.maximum(vals[:-1], 1e-300))
    smallest = float(vals[-1])
    return bool(decreasing and smallest <= 0.05), smallest


def _diverges(gauge: GrowthFunction) -> bool:
    with np.errstate(over="ignore"):
        hi = float(gauge(np.float64(_CEIL)))
    return math.isfinite(hi) and hi >= 100.0 * float(gauge(np.float64(1.0)))


def _n_limits(gauge: GrowthFunction) -> bool:
    """L(t)/t at _FLOOR at most 0.2 times its value at 1, at _CEIL at least 5 times."""
    t = np.array([_FLOOR, 1.0, _CEIL])
    with np.errstate(over="ignore"):
        rho = gauge(t) / t
    if not np.all(np.isfinite(rho)):
        return False
    return bool(rho[0] <= 0.2 * rho[1] and rho[2] >= 5.0 * rho[1])


def _convex_fine(gauge: GrowthFunction) -> bool:
    t = _probe_grid()
    vals = gauge(t)
    slopes = np.diff(vals) / np.diff(t)
    drops = np.diff(slopes) < -1e-9 * np.maximum(slopes[:-1], 1e-300)
    return not bool(np.any(drops))


def _convex_decade_chords(gauge: GrowthFunction) -> bool:
    t = _FLOOR * 10.0 ** np.arange(_DECADES + 1)
    vals = gauge(t)
    a, m, b = t[:-2], t[1:-1], t[2:]
    fa, fm, fb = vals[:-2], vals[1:-1], vals[2:]
    interp = fa + (fb - fa) * (m - a) / (b - a)
    return bool(np.all(fm <= interp * (1.0 + 1e-9)))


def _rv_slope(gauge: GrowthFunction) -> float | None:
    t = np.geomspace(_FLOOR, _FLOOR * 100.0, 9)
    with np.errstate(divide="ignore"):
        x = np.log(t)
        y = np.log(gauge(t))
    if not np.all(np.isfinite(y)):
        return None
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def classify_gauge(gauge: GrowthFunction) -> GaugeClassReport:
    """Empirical class report for a gauge (finite-probe evidence, not proof)."""
    is_a0, c_worst = _is_a0(gauge)
    if is_a0:
        decay_ok, smallest = _phi_decay(gauge)
        is_a1 = decay_ok and _diverges(gauge)
    else:
        smallest = math.nan
        is_a1 = False
    limits_ok = _n_limits(gauge)
    is_n = bool(limits_ok and _convex_fine(gauge))
    wide_n = bool(limits_ok and _convex_decade_chords(gauge))
    kappa_val, diag = kappa_probe(gauge) if is_a0 else (None, "kappa probe skipped: not moderately increasing")
    kappa_a2 = kappa_val if (kappa_val is not None and is_a1 and is_n) else None
    a2_op = bool(is_a1 and wide_n and kappa_val is not None)
    if gauge.rv_index_closed is not None:
        rv = float(gauge.rv_index_closed)
    else:
        rv = _rv_slope(gauge)
    return GaugeClassReport(
        gauge_label=gauge.label,
        is_A0=is_a0,
        c_lambda_worst=c_worst,
        is_A1=is_a1,
        phi_at_smallest_s=smallest,
        is_N_function=is_n,
        kappa_A2=kappa_a2,
        kappa_diagnostic=diag,
        kappa_value=kappa_val,
        a2_operational=a2_op,
        rv_index=rv,
    )


# ---------------------------------------------------------------------------
# named registry used by the CLI and the verification suite

REGISTRY: dict[str, dict] = {
    "power_1_5": {"family": "power", "p": 1.5},
    "power_2": {"family": "power", "p": 2.0},
    "power_3": {"family": "power", "p": 3.0},
    "half_square": {"family": "power", "p": 2.0, "coeff": 0.5},
    "cube_over_3": {"family": "power", "p": 3.0, "coeff": 1.0 / 3.0},
    "power_log_2": {"family": "power_log", "p": 2.0},
    "lambda_0": {"family": "lambda_alpha", "alpha": 0.0},
    "lambda_1": {"family": "lambda_alpha", "alpha": 1.0},
    "lambda_2": {"family": "lambda_alpha", "alpha": 2.0},
    "exp_minus_one": {"family": "exp_minus_one"},
}


def registry_gauges() -> dict[str, GrowthFunction]:
    """Instantiate every named gauge in the registry."""
    return {name: gauge_from_config(cfg) for name, cfg in REGISTRY.items()}


def get_gauge(name: str) -> GrowthFunction:
    """Instantiate one named gauge from the registry, labeled by its name."""
    if name not in REGISTRY:
        raise GaugeError(f"unknown gauge {name!r}; known: {', '.join(sorted(REGISTRY))}")
    return replace(gauge_from_config(REGISTRY[name]), label=name)
