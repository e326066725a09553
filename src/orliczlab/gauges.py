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

The two integrals here, the numeric complement and the kappa integral, use
one adaptive 21-point Gauss-Kronrod rule (QUADPACK's ``qk21``) written in
numpy: every piece of every interval is evaluated in one array call, a
piece is accepted once its Kronrod and Gauss sums differ by at most its
share of ``max(1e-12, 1e-10 * |integral|)``, and the others are halved.
It takes an optional parameter per interval, so the kappa integral runs
all its probe points in one call per step, each probe's chunk split at the
lambda_alpha kink as a breakpoint.  The numeric complement integrates in
v = sqrt(u), where its square-root-like integrand is smooth.

Every inverse of the gauge layer (psi, the right inverse of the derivative,
:meth:`GrowthFunction.inverse` and the Luxemburg norm in ``spaces``)
brackets its root by doubling or halving, then narrows all brackets at once
with one false-position routine, :func:`_false_position` (the Illinois
variant), in dense rounds over the brackets still live.  phi, psi, varphi
and the gauge inverse take arrays; a scalar gives a float.

Class flags reported by :func:`classify_gauge` are measured on finite probe
grids.  They are evidence, not proofs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

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
# Relative bracket width at which GrowthFunction.inverse stops narrowing.
_INVERSE_REL_TOL = 1e-12
# Probe range [_FLOOR, _CEIL] of the numeric transforms and the classifier:
# _DECADES decades, _PER_DECADE geometric points each.
_FLOOR, _CEIL, _DECADES = 1e-8, 1e8, 16
_PER_DECADE = 32


class GaugeError(ValueError):
    """Invalid gauge construction or a violated gauge precondition."""


class NotNFunctionError(GaugeError):
    """Operation requires an N-function and the probe rejected the gauge."""


class BracketError(RuntimeError):
    """A root bracket could not be established within iteration caps."""


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature

# QUADPACK qk21 on [-1, 1] (as doubles): the Kronrod nodes from 1 down to 0
# with their weights, then the 10-point Gauss weights of the odd-numbered
# nodes; the rule mirrors them about 0
_GK_X = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0])
_GK_WK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_GK_X = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
_GK_WK = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _GK_WG[19:10:-2] = [0.06667134430868814, 0.1494513491505806,
                                     0.21908636251598204, 0.26926671930999635,
                                     0.29552422471475287]
# QUADPACK's limit: the most pieces one interval may be split into
_QUAD_PIECES = 200


def _quad(f: Callable, a, b, par=None) -> np.ndarray:
    """Integral of a vectorised ``f`` over each interval [a[i], b[i]], a <= b.

    Adaptive 21-point Gauss-Kronrod: each round calls ``f`` once on the
    (pieces, 21) nodes of every live piece.  A piece is accepted once its
    Kronrod and Gauss sums differ by at most its length's share of
    ``max(1e-12, 1e-10 * |integral|)``, with the integral estimated from
    all current pieces of its interval; the others are halved.  An interval
    that needs more than ``_QUAD_PIECES`` pieces (a non-integrable or
    non-finite integrand) raises :class:`BracketError`.  With ``par``, one
    parameter per interval (broadcast against a and b), the call is
    ``f(x, par)`` with each piece's parameter as a (pieces, 1) column.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, par) if v is not None))
    shape = args[0].shape
    a, b, *par = (v.ravel() for v in args)
    total = np.zeros(a.shape)
    pieces = np.ones(a.shape, dtype=int)
    owner, lo, hi = np.arange(a.size), a, b
    while owner.size:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        fx = f(mid[:, None] + half[:, None] * _GK_X, *(p[owner, None] for p in par))
        kron = half * (fx @ _GK_WK)
        diff = np.abs(kron - half * (fx @ _GK_WG))
        estimate = total + np.bincount(owner, kron, minlength=a.size)
        tol = np.maximum(1e-12, 1e-10 * np.abs(estimate))[owner]
        ok = diff * (b - a)[owner] <= tol * (hi - lo)
        total += np.bincount(owner[ok], kron[ok], minlength=a.size)
        owner, lo, mid, hi = owner[~ok], lo[~ok], mid[~ok], hi[~ok]
        pieces += np.bincount(owner, minlength=a.size)
        if pieces.max() > _QUAD_PIECES:
            i = pieces.argmax()
            raise BracketError(f"quadrature on [{float(a[i])!r}, {float(b[i])!r}]: no"
                               f" convergence in {_QUAD_PIECES} pieces")
        owner = np.repeat(owner, 2)
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    return total.reshape(shape)


# ---------------------------------------------------------------------------
# root refinement


def _false_position(f: Callable, level, lo, hi, f_lo, f_hi, live, rtol: float,
                    floor: float = 0.0, strict: bool = False, done: Callable | None = None):
    """Narrow the brackets [lo[i], hi[i]] of the elements ``live``, in place.

    ``f(x, idx)`` is a nondecreasing function at points x of the elements
    idx, and each element's root is the least x with f(x) >= level[i]
    (> level[i] if ``strict``); ``level`` is an array like ``lo``, or one
    number for all.  On entry f_lo and f_hi hold f at the bracket ends, lo
    below the root and hi at or above it; ``hi`` is the end the caller
    keeps.  Each round steps every element whose bracket is wider than
    ``rtol * max(hi, floor)`` once, to the secant root of its end residuals
    f - level, an end kept twice running having its residual halved (the
    Illinois false position of Dowell & Jarratt, BIT 11, 1971).  A secant
    root not strictly inside its bracket (an end residual of exactly 0, an
    infinite or NaN one) falls back to the midpoint, and every second such
    fallback to half the tolerance inside the end it fell on, so an exact
    hit ends one step later while a flat stretch still halves.  ``done(r)``,
    if given, ends an element after a step by the residual at its hi end.

    The live elements' state is gathered once into dense arrays, stepped
    with ``np.where``, and compacted only when an element retires (by width
    or by ``done``); its bracket is then written back to lo and hi.
    """
    level = np.broadcast_to(level, lo.shape)[live]
    a, b = lo[live], hi[live]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN residual
        w_lo, w_hi = f_lo[live] - level, f_hi[live] - level  # the residuals the secant uses
    r_hi = w_hi  # and the true one at hi, for done
    last_up = np.zeros(live.shape, dtype=np.int8)  # 1: the last step moved hi, -1: lo
    inward = np.zeros(live.shape, dtype=bool)  # the next fallback steps in from its end
    keep = b - a > rtol * np.maximum(b, floor)
    while True:
        if not keep.all():
            lo[live[~keep]], hi[live[~keep]] = a[~keep], b[~keep]
            live, level, a, b, w_lo, w_hi, r_hi, last_up, inward = (
                v[keep] for v in (live, level, a, b, w_lo, w_hi, r_hi, last_up, inward))
        if not live.size:
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = w_lo / (w_lo - w_hi)
            x = a + (b - a) * q
        at_lo, at_hi = (q <= 0.0) | (x <= a), (q >= 1.0) | (x >= b)
        fell = ~((q > 0.0) & (q < 1.0) & (x > a) & (x < b))
        inset = 0.5 * rtol * np.maximum(b, floor)
        x = np.where(fell, 0.5 * (a + b), x)
        x = np.where(fell & inward & at_lo, a + inset, x)
        x = np.where(fell & inward & at_hi, b - inset, x)
        inward ^= fell
        v = f(x, live)
        up = v > level if strict else v >= level
        with np.errstate(invalid="ignore", over="ignore"):
            r = v - level
        w_lo = np.where(up, np.where(last_up == 1, 0.5 * w_lo, w_lo), r)
        w_hi = np.where(up, r, np.where(last_up == -1, 0.5 * w_hi, w_hi))
        r_hi = np.where(up, r, r_hi)
        a, b = np.where(up, a, x), np.where(up, x, b)
        last_up = np.where(up, 1, -1)
        keep = b - a > rtol * np.maximum(b, floor)
        if done is not None:
            keep &= ~done(r_hi)


# ---------------------------------------------------------------------------
# evaluation kernels per family


def _power_eval(p: float, coeff: float) -> Callable:
    def ev(t):  # coeff = 1 is exact, so that product is skipped
        out = np.power(t, p)
        return out if coeff == 1.0 else coeff * out

    return ev


def _power_log_eval(p: float) -> Callable:
    def ev(t):
        return np.power(t, p) * np.log1p(t)

    return ev


def _lambda_alpha_eval(alpha: float) -> Callable:
    # t^alpha times the log factor 1/max(1, -log t), built in place as
    # -1/min(-1, log t): log(_KINK) is exactly -1, so the factor is exactly 1
    # at and above the kink (dense passes: a boolean gather and scatter cost
    # more); 0 wherever t > 0 fails, NaN included
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        factor = np.maximum(t, 1e-300, out=np.empty(t.shape))
        with np.errstate(invalid="ignore"):
            np.power(t, alpha, out=out)
        np.log(factor, out=factor)
        np.minimum(factor, -1.0, out=factor)
        np.divide(-1.0, factor, out=factor)
        out *= factor
        np.copyto(out, 0.0, where=~(t > 0.0))
        return out

    return ev


def _expm1_eval() -> Callable:
    def ev(t):
        with np.errstate(over="ignore"):
            return np.expm1(t)

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
    _eval: Callable = field(default=None, repr=False)
    _deriv: Callable | None = field(default=None, repr=False)
    _phi_closed: Callable | None = field(default=None, repr=False)
    _complement: Callable | None = field(default=None, repr=False)

    def __call__(self, t):
        return self._eval(np.asarray(t, dtype=float))

    def derivative(self, t):
        """Right derivative: the family's closed form, or for a quadrature
        complement the right inverse of the source gauge's derivative."""
        return self._deriv(np.asarray(t, dtype=float))

    def inverse(self, y):
        """Smallest t with L(t) >= y per element of ``y`` (a scalar gives a float).

        The bracket doubles up from [0, 1] until L reaches y, then
        :func:`_false_position` narrows it to ``_INVERSE_REL_TOL`` relative
        and the upper end is returned, so L(inverse(y)) >= y.  An element
        y <= 0 reads 0.0; one with no upper bracket in 200 doublings raises
        :class:`BracketError`.
        """
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        lo, hi = np.zeros(flat.shape), np.ones(flat.shape)
        l_lo, l_hi = np.full(flat.shape, float(self._eval(np.float64(0.0)))), np.empty(flat.shape)
        positive = np.flatnonzero(~(flat <= 0.0))
        live = positive
        for _ in range(200):
            if not live.size:
                break
            l_hi[live] = self._eval(hi[live])
            live = live[~(l_hi[live] >= flat[live])]
            lo[live], l_lo[live] = hi[live], l_hi[live]
            hi[live] *= 2.0
        if live.size:
            raise BracketError("gauge inverse: no upper bracket")
        _false_position(lambda t, _: self._eval(t), flat, lo, hi, l_lo, l_hi, positive,
                        _INVERSE_REL_TOL)
        hi[flat <= 0.0] = 0.0
        return _out(hi.reshape(y.shape))


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


# Parameter names per family: the required ones, then the optional ones.
_PARAMS = {
    "power": (("p",), ("coeff",)),
    "power_log": (("p",), ()),
    "lambda_alpha": (("alpha",), ()),
    "exp_minus_one": ((), ()),
}


def make_gauge(family: str, **params) -> GrowthFunction:
    """Construct a gauge from a family tag and its parameters.

    Families: ``power`` (coeff * t^p, coeff optional), ``power_log``
    (t^p * log(1+t)), ``lambda_alpha`` (t^alpha * ((log 1/t)^-1 ∧ 1)) and
    ``exp_minus_one``.  Every parameter must be a finite real number.
    """
    if family not in _PARAMS:
        raise GaugeError(f"unknown gauge family {family!r}")
    required, optional = _PARAMS[family]
    extra = set(params) - {*required, *optional}
    if extra:
        raise GaugeError(f"{family} family: unknown parameters {sorted(extra)}")
    for name in required:
        if name not in params:
            raise GaugeError(f"{family} family: missing parameter {name}")
    for name, v in params.items():
        # abs(v) <= max float also refuses NaN, and an int too large for a float
        finite = isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max
        if isinstance(v, bool) or not finite:
            raise GaugeError(f"{family} family: {name} must be a finite real number, got {v!r}")
    params = {name: float(v) for name, v in params.items()}
    if family == "power":
        p, coeff = params["p"], params.get("coeff", 1.0)
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
        )
    if family == "power_log":
        p = params["p"]
        if p <= 0.0:
            raise GaugeError(f"power_log family: exponent must be positive, got {p}")
        return GrowthFunction(
            family="power_log",
            params=params,
            label=f"t^{p:g}*log(1+t)",
            _eval=_power_log_eval(p),
            _deriv=lambda t, p=p: (
                p * np.power(np.asarray(t, float), p - 1.0) * np.log1p(np.asarray(t, float))
                + np.power(np.asarray(t, float), p) / (1.0 + np.asarray(t, float))
            ),
            _phi_closed=_power_log_phi(p),
        )
    if family == "lambda_alpha":
        alpha = params["alpha"]
        if alpha < 0.0:
            raise GaugeError(f"lambda_alpha family: alpha must be >= 0, got {alpha}")
        return GrowthFunction(
            family="lambda_alpha",
            params=params,
            label=f"lambda^{alpha:g}",
            _eval=_lambda_alpha_eval(alpha),
            _deriv=_lambda_alpha_deriv(alpha),
            _phi_closed=_lambda_alpha_phi(alpha),
        )
    return GrowthFunction(
        family="exp_minus_one",
        params={},
        label="exp(t)-1",
        _eval=_expm1_eval(),
        _deriv=lambda t: np.exp(np.asarray(t, float)),
    )


def gauge_from_config(cfg: dict) -> GrowthFunction:
    """Build a gauge from its serialized form, e.g. {"family": "power", "p": 2.0}."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise GaugeError("gauge config must be a mapping with a 'family' key")
    cfg = dict(cfg)
    family = cfg.pop("family")
    return make_gauge(family, **cfg)


# ---------------------------------------------------------------------------
# scaling transforms


def _positive(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    bad = x[x <= 0.0]
    if bad.size:
        raise GaugeError(f"{what} > 0, got {float(bad[0])}")
    return x


def _out(x: np.ndarray):
    """A 0-d result as a float, any other as the array."""
    return float(x) if x.ndim == 0 else x


def phi_of(gauge: GrowthFunction, s, *, use_closed: bool = True):
    """sup_t L(s t)/L(t) per element of ``s`` (a scalar gives a float).

    The closed form, when the family has one, takes the whole array in one
    call.  Else each element's value is a supremum over a geometric t-grid
    of 4096 points, doubled until two consecutive refinements agree to 1e-6
    relative or the grid reaches 2^20 points; it is a lower bound of the
    true supremum that dominates every probed ratio.
    """
    s = _positive(s, "phi transform needs s")
    if use_closed and gauge._phi_closed is not None:
        return _out(np.asarray(gauge._phi_closed(s), dtype=float))
    return _out(np.array([_phi_grid_sup(gauge, x) for x in s.ravel()]).reshape(s.shape))


def _phi_grid_sup(gauge: GrowthFunction, s: float) -> float:
    points = 4096
    prev = None
    while True:
        t = np.geomspace(_FLOOR, 1.0 / _FLOOR, points)
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


def psi_of(gauge: GrowthFunction, t):
    """inf {s >= 0 : phi(s) >= t} per element of ``t`` (a scalar gives a float).

    Per element the bracket halves down from 1 while phi stays >= t, or
    doubles up from 1 until it reaches t; :func:`_false_position` then
    narrows all brackets to 1e-9 relative and the upper end is returned,
    so phi(psi_of(t)) >= t holds for the returned approximant.  An element
    whose phi never drops below t by s = 1e-30 (possible only outside the
    vanishing-scaling class) reads 0.0; one whose phi stays below t past
    s = 1e30 raises :class:`BracketError`.
    """
    t = _positive(t, "psi transform needs t")
    flat = t.ravel()
    lo, hi = np.ones(flat.shape), np.ones(flat.shape)
    phi_lo, phi_hi = np.full((2, flat.size), phi_of(gauge, 1.0))
    down = phi_hi >= flat
    zero = np.zeros(flat.shape, dtype=bool)
    live = np.flatnonzero(down)
    while live.size:  # halving: stop at the first s with phi(s) < t
        lo[live] *= 0.5
        phi_lo[live] = phi_of(gauge, lo[live])
        live = live[~(phi_lo[live] < flat[live])]
        hi[live], phi_hi[live] = lo[live], phi_lo[live]
        zero[live[lo[live] < 1e-30]] = True
        live = live[~zero[live]]
    live = np.flatnonzero(~down)
    while live.size:  # doubling: stop at the first s with phi(s) >= t
        hi[live] *= 2.0
        phi_hi[live] = phi_of(gauge, hi[live])
        live = live[~(phi_hi[live] >= flat[live])]
        lo[live], phi_lo[live] = hi[live], phi_hi[live]
        if np.any(hi[live] > 1e30):
            raise BracketError("psi transform: no upper bracket")
    _false_position(lambda s, _: phi_of(gauge, s), flat, lo, hi, phi_lo, phi_hi,
                    np.flatnonzero(~zero), 1e-9)
    hi[zero] = 0.0
    return _out(hi.reshape(t.shape))


def varphi_of(gauge: GrowthFunction, t):
    """1 / psi(1 / t) per element of ``t`` (a scalar gives a float); +inf where psi(1/t) = 0."""
    t = _positive(t, "varphi transform needs t")
    denom = np.asarray(psi_of(gauge, 1.0 / t))
    out = np.full(denom.shape, math.inf)
    np.divide(1.0, denom, out=out, where=denom != 0.0)
    return _out(out)


# ---------------------------------------------------------------------------
# complementary gauge and Young's inequality


def _right_inverse_of_derivative(gauge: GrowthFunction) -> Callable:
    a = gauge.derivative

    def atilde(u):
        # inf {s >= 0 : a(s) > u} per element, narrowed by false position; it
        # keeps the upper end so the integrated complementary is biased
        # upward, never below the truth.
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0):
            raise GaugeError("right inverse needs u >= 0")
        flat = u.ravel()
        keep = ~np.isnan(flat)  # a NaN level reads NaN, without a root search
        lo, hi = np.zeros(flat.shape), np.ones(flat.shape)
        a_lo, a_hi = np.full(flat.shape, float(a(0.0))), a(hi)
        # doubling from 1 while a(hi) <= u; every moving element has one hi
        live = np.flatnonzero(keep & ~(a_hi > flat))
        while live.size:
            lo[live], a_lo[live] = hi[live], a_hi[live]
            hi[live] *= 2.0
            a_hi[live] = a(hi[live])
            live = live[~(a_hi[live] > flat[live])]
            if live.size and hi[live[0]] > 1e30:
                raise BracketError("right inverse: derivative never exceeds level")
        _false_position(lambda s, _: a(s), flat, lo, hi, a_lo, a_hi, np.flatnonzero(keep), 1e-13,
                        floor=1.0, strict=True)
        hi[~keep] = np.nan
        return hi.reshape(u.shape)

    return atilde


def complementary_gauge(gauge: GrowthFunction) -> GrowthFunction:
    """Complementary gauge of an N-function.

    Uses the closed form when the family has one, else integrates the right
    inverse of the right derivative over the gaps between the sorted
    arguments in one :func:`_quad` call, in the variable v = sqrt(u).  On
    every route a negative or NaN argument reads NaN, in the value and the
    derivative alike: a gauge is stated for t >= 0.  Raises
    :class:`NotNFunctionError` when the strict N-function probe rejects the
    gauge.
    """
    if not _is_n_function(gauge):
        raise NotNFunctionError(
            f"gauge {gauge.label} failed the N-function probe; no complementary gauge"
        )
    comp = gauge._complement() if gauge._complement is not None else _numeric_complement(gauge)
    nan_below_0 = lambda f: lambda t: f(np.where(t < 0.0, np.nan, t))
    return replace(comp, _eval=nan_below_0(comp._eval), _deriv=nan_below_0(comp._deriv))


def _numeric_complement(gauge: GrowthFunction) -> GrowthFunction:
    atilde = _right_inverse_of_derivative(gauge)
    label = f"complement({gauge.label})"

    def ev(t):
        flat = np.atleast_1d(t).ravel()
        if np.isposinf(flat).any():
            raise GaugeError(f"{label}: t = inf has no quadrature; the argument must be finite")
        order = np.argsort(flat)
        # running max of the sorted t (NaN last, read as 0), so a t at or
        # below the previous one adds an empty gap; a NaN then reads NaN
        edges = np.maximum.accumulate(np.fmax(flat[order], 0.0))
        # each gap integrates in v = sqrt(u), int atilde(u) du = int 2 v atilde(v^2) dv,
        # which is smooth where atilde grows like sqrt(u) from 0
        roots = np.sqrt(edges)
        try:
            gaps = _quad(lambda v: 2.0 * v * atilde(v * v),
                         np.concatenate([[0.0], roots])[:-1], roots)
        except BracketError as err:  # a t past the right inverse's bracket, say
            msg = f"{label}: no quadrature up to t = {float(edges[-1])!r}: {err}"
            raise BracketError(msg) from None
        vals = np.empty(flat.shape)
        vals[order] = np.cumsum(gaps)
        vals[np.isnan(flat)] = np.nan
        return vals.reshape(t.shape) if t.shape else np.float64(vals[0])

    # the complement's right derivative is the right inverse it integrates
    return GrowthFunction(family="numeric", params={"source": gauge.label}, label=label,
                          _eval=ev, _deriv=atilde)


def young_gap(gauge: GrowthFunction, comp: GrowthFunction, s, t):
    """L(s) + L~(t) - s t; nonnegative for a true complementary pair."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return gauge(s) + comp(t) - s * t


# ---------------------------------------------------------------------------
# kappa integral


def kappa_probe(gauge: GrowthFunction) -> float | None:
    """Worst ratio of int_0^1 L(s t)/s^2 ds to L(t) over 13 geometric t in [1e-3, 1e3].

    The integral is computed under s = e^-u, doubling the upper limit until
    the last chunk contributes less than 1e-8 of the running total.  Each
    probe t's chunk is split at u = 1 + ln t (clipped to the chunk), where
    t e^-u crosses the lambda_alpha kink, and both halves go to one
    :func:`_quad` call, so no round is spent locating the kink.  Returns
    None when the integral fails to converge by u = 512, or when the gauge
    vanishes at a probe t.
    """
    t = np.geomspace(1e-3, 1e3, 13)
    integrand = lambda u, t: gauge(t * np.exp(-u)) * np.exp(u)
    kink_u = 1.0 + np.log(t)
    total = np.zeros(t.shape)
    live = np.arange(t.size)
    lo, hi = 0.0, 4.0
    while live.size:  # every probe t still live integrates this chunk in one call
        if hi > 512.0:
            return None
        cut = np.clip(kink_u[live], lo, hi)
        edges = np.stack([np.full(cut.shape, lo), cut, np.full(cut.shape, hi)])
        chunk = _quad(integrand, edges[:-1], edges[1:], par=t[live]).sum(axis=0)
        total[live] += chunk
        if lo > 0.0:
            live = live[~(chunk <= 1e-8 * total[live])]
        lo, hi = hi, hi * 2.0
    denom = gauge(t)
    if np.any(denom <= 0.0):
        return None
    return float(np.max(total / denom))


# ---------------------------------------------------------------------------
# classification

# Dilations at which the A0 probe measures sup_t L(lam t)/L(t).
_LAMBDAS = (1.5, 2.0, 4.0)


@dataclass(frozen=True)
class GaugeClassReport:
    """Empirical class flags for one gauge.

    ``kappa_A2`` is present only when the strict flags admit it;
    ``kappa_value`` always carries the measured integral when it converges.
    ``a2_operational`` is the inequality lab's admission gate: vanishing
    scaling plus a convergent kappa integral plus N-like behaviour at
    decade scale (local kinks that vanish under equivalent rescaling do
    not disqualify a gauge there).
    """

    is_A0: bool
    c_lambda_worst: float
    is_A1: bool
    is_N_function: bool
    kappa_A2: float | None
    kappa_value: float | None
    a2_operational: bool


def _probe_grid() -> np.ndarray:
    return np.geomspace(_FLOOR, _CEIL, _DECADES * _PER_DECADE + 1)


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
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = gauge(lam * sub) / gauge(sub)
        if not np.all(np.isfinite(ratio)):
            return False, math.inf
        worst = max(worst, float(ratio.max()))
        if lam == 2.0 and ratio.size > 3 * _PER_DECADE:
            top = float(ratio[-_PER_DECADE:].max())
            prior = float(ratio[-3 * _PER_DECADE : -_PER_DECADE].max())
            stable = top <= 1.25 * prior
    return bool(vanishes and stable), worst


def _phi_decay(gauge: GrowthFunction) -> bool:
    """phi decreasing over s = 2^-1 .. 2^-14 and at most 0.05 at the end."""
    scales = 0.5 ** np.arange(1, 15)
    vals = phi_of(gauge, scales)
    decreasing = np.all(np.diff(vals) <= 1e-9 * np.maximum(vals[:-1], 1e-300))
    return bool(decreasing and vals[-1] <= 0.05)


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


def _is_n_function(gauge: GrowthFunction) -> bool:
    """The strict N-function probe: the limits of L(t)/t and fine-grid convexity."""
    return bool(_n_limits(gauge) and _convex_fine(gauge))


def _convex_decade_chords(gauge: GrowthFunction) -> bool:
    t = _FLOOR * 10.0 ** np.arange(_DECADES + 1)
    vals = gauge(t)
    a, m, b = t[:-2], t[1:-1], t[2:]
    fa, fm, fb = vals[:-2], vals[1:-1], vals[2:]
    interp = fa + (fb - fa) * (m - a) / (b - a)
    return bool(np.all(fm <= interp * (1.0 + 1e-9)))


def classify_gauge(gauge: GrowthFunction) -> GaugeClassReport:
    """Empirical class report for a gauge (finite-probe evidence, not proof)."""
    is_a0, c_worst = _is_a0(gauge)
    is_a1 = is_a0 and _phi_decay(gauge) and _diverges(gauge)
    is_n = _is_n_function(gauge)
    wide_n = bool(_n_limits(gauge) and _convex_decade_chords(gauge))
    kappa_val = kappa_probe(gauge) if is_a0 else None
    kappa_a2 = kappa_val if (kappa_val is not None and is_a1 and is_n) else None
    a2_op = bool(is_a1 and wide_n and kappa_val is not None)
    return GaugeClassReport(
        is_A0=is_a0,
        c_lambda_worst=c_worst,
        is_A1=is_a1,
        is_N_function=is_n,
        kappa_A2=kappa_a2,
        kappa_value=kappa_val,
        a2_operational=a2_op,
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
