import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orliczlab import gauges as G

KINK = math.exp(-1.0)


def brute_phi(gauge, s, points=8192):
    # independent sup oracle: dense geometric grid, no refinement logic
    t = np.geomspace(G._FLOOR, 1.0 / G._FLOOR, points)
    return float(np.max(gauge(s * t) / gauge(t)))


# ---------------------------------------------------------------------------
# families and conventions


def test_power_eval_and_inverse():
    g = G.make_gauge("power", p=2.0)
    assert_allclose(g([0.0, 1.0, 3.0]), [0.0, 1.0, 9.0])
    assert g.inverse(4.0) == pytest.approx(2.0, rel=1e-10)
    assert g.inverse(0.0) == 0.0


def test_power_rejects_bad_params():
    with pytest.raises(G.GaugeError):
        G.make_gauge("power", p=0.0)
    with pytest.raises(G.GaugeError):
        G.make_gauge("power", p=2.0, coeff=-1.0)
    with pytest.raises(G.GaugeError):
        G.make_gauge("power", p=2.0, slope=1.0)
    with pytest.raises(G.GaugeError):
        G.make_gauge("powr", p=2.0)


@pytest.mark.parametrize("family, name", [("power", "p"), ("power_log", "p"),
                                          ("lambda_alpha", "alpha")])
def test_missing_parameter_is_named(family, name):
    with pytest.raises(G.GaugeError, match=f"{family} family: missing parameter {name}$"):
        G.make_gauge(family)


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, True, "2", "abc", [1, 2]])
@pytest.mark.parametrize("family, name", [("power", "p"), ("power", "coeff"),
                                          ("power_log", "p"), ("lambda_alpha", "alpha")])
def test_parameter_must_be_a_finite_real(family, name, value):
    params = {"p": 2.0, name: value} if family != "lambda_alpha" else {name: value}
    with pytest.raises(G.GaugeError, match=f"{family} family: {name} must be a finite real"):
        G.make_gauge(family, **params)


def test_lambda_alpha_conventions():
    for alpha in (0.0, 1.0, 2.0):
        g = G.make_gauge("lambda_alpha", alpha=alpha)
        # log factor saturates at the kink; value 1 at t = 1 via the min branch
        assert float(g(np.float64(1.0))) == 1.0
        assert float(g(np.float64(KINK))) == pytest.approx(math.exp(-alpha), rel=1e-12)
        assert float(g(np.float64(0.0))) == 0.0
        left = float(g(np.float64(KINK - 1e-12)))
        right = float(g(np.float64(KINK + 1e-12)))
        assert left == pytest.approx(right, rel=1e-9)
    g1 = G.make_gauge("lambda_alpha", alpha=1.0)
    t = math.exp(-2.0)
    assert float(g1(np.float64(t))) == pytest.approx(t / 2.0, rel=1e-12)


def test_lambda_alpha_equals_two_branch_formula():
    # the log factor counts only below the kink; the values equal the
    # two-branch formula bit for bit, edge points and 0-d inputs included
    edge = np.array([0.0, 5e-324, 1e-310, np.nextafter(KINK, 0.0), KINK,
                     np.nextafter(KINK, 1.0), 1.0, np.inf, np.nan, -1.0])
    rng = np.random.default_rng(11)
    t = np.concatenate([edge, rng.uniform(0.0, 2.0, 100_000),
                        np.exp(rng.uniform(-745.0, 5.0, 1000))])
    for alpha in (0.0, 1.0, 2.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(t < KINK, -1.0 / np.log(np.maximum(t, 1e-300)), 1.0)
            formula = np.where(t > 0.0, np.power(t, alpha) * factor, 0.0)
        g = G.make_gauge("lambda_alpha", alpha=alpha)
        assert np.array_equal(g(t), formula)
        for i, point in enumerate(edge):
            got = g(np.float64(point))
            assert got.shape == () and got.tobytes() == formula[i].tobytes()


def _masked_lambda_alpha(t, alpha):
    # the boolean gather-and-scatter form the dense evaluation replaced
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    with np.errstate(invalid="ignore"):
        np.power(t, alpha, out=out)
    low = t < KINK
    factor = np.maximum(t[low], 1e-300)
    np.log(factor, out=factor)
    np.divide(-1.0, factor, out=factor)
    out[low] *= factor
    np.copyto(out, 0.0, where=~(t > 0.0))
    return out


def _copyto_lambda_alpha(t, alpha):
    # the dense form with the factor -1/log t reset to 1 by copyto at the kink
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    factor = np.maximum(t, 1e-300, out=np.empty(t.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(t, alpha, out=out)
        np.log(factor, out=factor)
        np.divide(-1.0, factor, out=factor)
    np.copyto(factor, 1.0, where=~(t < KINK))
    out *= factor
    np.copyto(out, 0.0, where=~(t > 0.0))
    return out


def test_lambda_alpha_dense_matches_masked_form():
    # the in-place factor 1/max(1, -log t) is exactly 1 at and above the kink
    # because log(KINK) is exactly -1; both earlier forms give the same bits,
    # edge points as 0-d inputs included
    assert np.log(KINK) == -1.0
    edge = np.array([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e-300,
                     np.nextafter(KINK, 0.0), KINK, np.nextafter(KINK, 1.0), 1e150])
    rng = np.random.default_rng(5)
    t = np.concatenate([edge, rng.uniform(-0.5, 3.0, 50_000), np.exp(rng.uniform(-745.0, 40.0, 5000)),
                        KINK * (1.0 + rng.uniform(-1e-12, 1e-12, 20_000))])
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
        g = G.make_gauge("lambda_alpha", alpha=alpha)
        # no new warning; t^3 overflows at t = 1e150 in every form
        with np.errstate(divide="raise", over="raise" if alpha < 3.0 else "ignore", invalid="raise"):
            got = g(t)
        with np.errstate(over="ignore"):
            assert got.tobytes() == _masked_lambda_alpha(t, alpha).tobytes()
            assert got.tobytes() == _copyto_lambda_alpha(t, alpha).tobytes()
            for point in edge:
                assert g(np.float64(point)).tobytes() == _copyto_lambda_alpha(point, alpha).tobytes()


def test_lambda_zero_is_bounded():
    g = G.make_gauge("lambda_alpha", alpha=0.0)
    t = np.geomspace(1e-10, 1e10, 101)
    assert np.all(g(t) <= 1.0 + 1e-15)


def test_registry_gauges_vanish_at_zero():
    for g in G.registry_gauges().values():
        assert float(g(np.float64(0.0))) == 0.0


def test_derivative_matches_finite_difference():
    for name in ("power_2", "power_log_2", "lambda_1", "exp_minus_one"):
        g = G.gauge_from_config(G.REGISTRY[name])
        t = np.array([0.05, 0.2, 0.9, 3.0])
        h = 1e-7 * np.maximum(t, 1.0)
        fd = (g(t + h) - g(t - h)) / (2 * h)
        assert_allclose(g.derivative(t), fd, rtol=1e-5)


# ---------------------------------------------------------------------------
# phi / psi / varphi


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_power_transform_closed_forms(p):
    g = G.make_gauge("power", p=p)
    for s in (0.3, 1.0, 2.5):
        assert G.phi_of(g, s) == pytest.approx(s**p, rel=1e-12)
    for t in (0.5, 2.0, 7.0):
        assert G.psi_of(g, t) == pytest.approx(t ** (1.0 / p), rel=1e-8)
        assert G.varphi_of(g, t) == pytest.approx(t ** (1.0 / p), rel=1e-8)


@pytest.mark.parametrize("name", ["power_2", "lambda_1", "lambda_0"])
@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 5.0])
def test_numeric_phi_agrees_with_closed(name, s):
    # families whose scaling sup is attained at finite t (or is constant in t)
    g = G.gauge_from_config(G.REGISTRY[name])
    closed = G.phi_of(g, s)
    numeric = G.phi_of(g, s, use_closed=False)
    assert numeric == pytest.approx(closed, rel=2e-5)
    assert numeric <= closed * (1.0 + 1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 5.0])
def test_numeric_phi_lower_bounds_slow_tail(s):
    # power_log approaches its sup only as t -> inf (log-slow), so the grid
    # value is a certified lower bound within the truncated range's log gap
    g = G.gauge_from_config(G.REGISTRY["power_log_2"])
    closed = G.phi_of(g, s)
    numeric = G.phi_of(g, s, use_closed=False)
    assert numeric <= closed * (1.0 + 1e-12)
    assert numeric >= closed * (1.0 - abs(math.log(min(s, 1.0 / s))) / math.log(1e8) - 1e-9)


def test_phi_lambda1_half_golden():
    # dense-log-grid sup oracle (>= 4096 probes): the ratio saturates at 1
    # wherever both arguments sit past the kink, so the sup is exactly s.
    g = G.make_gauge("lambda_alpha", alpha=1.0)
    oracle = brute_phi(g, 0.5, points=4096)
    assert oracle == pytest.approx(0.5, rel=1e-9)
    assert G.phi_of(g, 0.5) == pytest.approx(oracle, rel=1e-6)
    assert G.phi_of(g, 0.5, use_closed=False) == pytest.approx(oracle, rel=1e-6)


def test_phi_rejects_nonpositive_scale():
    g = G.make_gauge("power", p=2.0)
    with pytest.raises(G.GaugeError):
        G.phi_of(g, 0.0)


def test_phi_overflow_reported():
    g = G.make_gauge("exp_minus_one")
    with pytest.raises(G.GaugeError, match="overflow"):
        G.phi_of(g, 2.0, use_closed=False)


def test_psi_lambda1_bisection_vs_scan():
    # scan oracle: first s on a 1e-6 grid whose closed transform reaches 2
    g = G.make_gauge("lambda_alpha", alpha=1.0)
    s = np.arange(1.0, 2.0, 1e-6)
    vals = g._phi_closed(s)
    scan = float(s[np.searchsorted(vals, 2.0)])
    bisected = G.psi_of(g, 2.0)
    assert bisected == pytest.approx(scan, abs=1e-5)
    assert G.phi_of(g, bisected) >= 2.0 * (1.0 - 1e-9)


def test_psi_degenerate_for_saturating_transform():
    # lambda_0 scaling sup never drops below 1, so the inverse hits 0
    g = G.make_gauge("lambda_alpha", alpha=0.0)
    assert G.psi_of(g, 0.5) == 0.0
    assert G.varphi_of(g, 2.0) == math.inf


def scalar_bracket(f, level, lo, hi, f_lo, f_hi, rtol, floor=0.0, strict=False, done=None):
    """One element of gauges._false_position replayed on scalars; returns
    its final (lo, hi) and the number of steps it took."""
    with np.errstate(invalid="ignore", over="ignore"):
        w_lo, w_hi = np.float64(f_lo) - level, np.float64(f_hi) - level
    r_hi, last_up, inward, steps = w_hi, 0, False, 0
    while hi - lo > rtol * max(hi, floor):
        steps += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = w_lo / (w_lo - w_hi)
            x = lo + (hi - lo) * q
        if not (0.0 < q < 1.0 and lo < x < hi):
            inset = 0.5 * rtol * max(hi, floor)
            if inward and (q >= 1.0 or x >= hi):
                x = hi - inset
            elif inward and (q <= 0.0 or x <= lo):
                x = lo + inset
            else:
                x = 0.5 * (lo + hi)
            inward = not inward
        v = f(x)
        with np.errstate(invalid="ignore", over="ignore"):
            r = np.float64(v) - level
        if v > level if strict else v >= level:
            if last_up == 1:
                w_lo *= 0.5
            hi, r_hi, w_hi, last_up = x, r, r, 1
        else:
            if last_up == -1:
                w_hi *= 0.5
            lo, w_lo, last_up = x, r, -1
        if done is not None and done(r_hi):
            break
    return float(lo), float(hi), steps


def scalar_false_position(*args, **kwargs):
    """The kept hi end of :func:`scalar_bracket`."""
    return scalar_bracket(*args, **kwargs)[1]


# one element per path of the refinement, each (f, level, lo, hi): a cube; an
# exact first secant hit; a jump, whose residual at hi never falls below 0.3;
# exp from an infinite hi residual; log from a -inf lo residual
_BRACKET_CASES = (
    (lambda x: x**3, 2.0, 0.0, 4.0),
    (lambda x: x, 1.0, 0.0, 2.0),
    (lambda x: 1.0 + 0.5 * (x >= 1.3), 1.2, 0.0, 2.0),
    (lambda x: np.exp(x) if x < 8.0 else np.inf, 10.0, 0.0, 16.0),
    (np.log, 1.0, 0.0, 5.0),
)


@pytest.mark.parametrize("done", [None, lambda r: np.abs(r) <= 1e-9])
def test_false_position_retires_each_element_as_its_scalar_replay(done):
    fs = [case[0] for case in _BRACKET_CASES]
    level, lo, hi = (np.array([case[k] for case in _BRACKET_CASES] + [7.0]) for k in (1, 2, 3))
    f = lambda x, idx: np.array([fs[i](v) for i, v in zip(idx, x)])
    live = np.arange(len(fs))  # the last element is not live and keeps its bracket
    with np.errstate(divide="ignore", over="ignore"):
        f_lo, f_hi = (np.append(f(ends[live], live), 7.0) for ends in (lo, hi))
        want = [scalar_bracket(fs[i], level[i], lo[i], hi[i], f_lo[i], f_hi[i], 1e-12,
                               done=done) for i in live]
        G._false_position(f, level, lo, hi, f_lo, f_hi, live, 1e-12, done=done)
    assert lo.tobytes() == np.array([w[0] for w in want] + [7.0]).tobytes()
    assert hi.tobytes() == np.array([w[1] for w in want] + [7.0]).tobytes()
    steps = [w[2] for w in want]
    assert len(set(steps)) >= 4, steps  # the elements retire at different rounds
    wide = hi - lo > 1e-12 * hi
    if done is None:
        assert not wide.any()
    else:  # the cube ends by its residual, the jump by its width
        assert wide[0] and wide[1] and not wide[2], (lo, hi)


def _scalar_psi(gauge, t):
    # one element of the array psi: its bracket, then the refinement replayed
    phi = lambda s: G.phi_of(gauge, s)
    lo = hi = 1.0
    phi_lo = phi_hi = phi(1.0)
    if phi_hi >= t:
        while True:
            lo *= 0.5
            phi_lo = phi(lo)
            if phi_lo < t:
                break
            hi, phi_hi = lo, phi_lo
            if lo < 1e-30:
                return 0.0
    else:
        while True:
            hi *= 2.0
            phi_hi = phi(hi)
            if phi_hi >= t:
                break
            lo, phi_lo = hi, phi_hi
    return scalar_false_position(phi, t, lo, hi, phi_lo, phi_hi, 1e-9)


def _scalar_varphi(gauge, t):
    denom = _scalar_psi(gauge, 1.0 / t)
    return math.inf if denom == 0.0 else 1.0 / denom


# every registry gauge with a closed phi, and a square that takes the grid sup
_TRANSFORM_GAUGES = {
    **{name: g for name, g in G.registry_gauges().items() if g._phi_closed is not None},
    "power_2_numeric": dataclasses.replace(G.get_gauge("power_2"), _phi_closed=None),
}


def _transform_grid(name):
    # t < 1 and t > 1 both, so lambda_0's psi reads 0 and its varphi inf
    x = np.array([0.03, 0.25, 0.5, 0.9, 1.0, 1.7, 2.0, 4.0, 11.0])
    if name.endswith("numeric"):
        x = x[[1, 5, 7]]  # each numeric phi is a grid sup: keep the root searches few
    return x.reshape(3, -1)


@pytest.mark.parametrize("name", sorted(_TRANSFORM_GAUGES))
def test_array_transforms_equal_the_scalar_loop_bitwise(name):
    g = _TRANSFORM_GAUGES[name]
    grid = _transform_grid(name)
    x = grid.ravel()
    for transform, ref in ((G.phi_of, G.phi_of), (G.psi_of, _scalar_psi),
                           (G.varphi_of, _scalar_varphi)):
        want = np.array([ref(g, float(v)) for v in grid.ravel()]).reshape(grid.shape)
        got = transform(g, grid)
        assert got.shape == grid.shape
        np.testing.assert_array_equal(got, want)
        for v in (float(grid.flat[0]), np.float64(grid.flat[0])):
            out = transform(g, v)
            assert type(out) is float and out == want.flat[0]
    if name == "lambda_0":
        assert (G.psi_of(g, x[x < 1.0]) == 0.0).all()
        assert np.isposinf(G.varphi_of(g, x[x > 1.0])).all()


def test_array_transforms_refuse_a_nonpositive_element():
    g = G.get_gauge("power_2")
    for transform, name in ((G.phi_of, "phi"), (G.psi_of, "psi"), (G.varphi_of, "varphi")):
        with pytest.raises(G.GaugeError, match=rf"{name} transform needs .* > 0, got -1\.0"):
            transform(g, np.array([2.0, -1.0, 0.0]))


def test_array_psi_raises_when_any_element_has_no_upper_bracket():
    # lambda_0's phi grows as 1 + log s: t = 100 needs s = e^99 > 1e30
    g = G.get_gauge("lambda_0")
    with pytest.raises(G.BracketError, match="no upper bracket"):
        G.psi_of(g, np.array([0.5, 2.0, 100.0]))


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=1e-3, max_value=1e3),
    name=st.sampled_from(["power_1_5", "power_log_2", "lambda_1", "lambda_2"]),
)
def test_phi_submultiplicative(s, t, name):
    g = G.gauge_from_config(G.REGISTRY[name])
    lhs = G.phi_of(g, s * t)
    rhs = G.phi_of(g, s) * G.phi_of(g, t)
    assert lhs <= rhs * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=1e-4, max_value=1e4),
    lam=st.floats(min_value=1e-2, max_value=1.0),
    name=st.sampled_from(["power_2", "power_log_2", "lambda_1"]),
)
def test_gauge_monotone(t, lam, name):
    g = G.gauge_from_config(G.REGISTRY[name])
    assert float(g(np.float64(lam * t))) <= float(g(np.float64(t))) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# complementary gauge and Young's inequality


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_complementary_normalized_power(p):
    # t^p/p pairs with t^q/q for the conjugate exponent
    q = p / (p - 1.0)
    g = G.make_gauge("power", p=p, coeff=1.0 / p)
    comp = G.complementary_gauge(g)
    t = np.geomspace(0.1, 10.0, 31)
    assert_allclose(comp(t), t**q / q, rtol=1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_complementary_plain_power_closed_form(p):
    # for coeff*t^p the complementary is (coeff*p)^(1-q) t^q / q
    q = p / (p - 1.0)
    g = G.make_gauge("power", p=p)
    comp = G.complementary_gauge(g)
    t = np.geomspace(0.1, 10.0, 31)
    assert_allclose(comp(t), p ** (1.0 - q) * t**q / q, rtol=1e-6)


def test_complementary_quadrature_route_matches_closed():
    # same gauge, closed hook removed: right-inverse bisection + quadrature
    g = G.make_gauge("power", p=3.0, coeff=1.0 / 3.0)
    stripped = dataclasses.replace(g, _complement=None)
    comp = G.complementary_gauge(stripped)
    t = np.geomspace(0.1, 10.0, 13)
    assert_allclose(comp(t), t**1.5 / 1.5, rtol=1e-6)


def test_complementary_quadrature_route_has_a_derivative():
    # the complement of t^2 is t^2/4, so its right derivative is t/2
    stripped = dataclasses.replace(G.get_gauge("power_2"), _complement=None)
    comp = G.complementary_gauge(stripped)
    t = np.geomspace(0.1, 10.0, 13)
    assert_allclose(comp.derivative(t), t / 2.0, rtol=0.0, atol=1e-12)
    assert np.isfinite(G.complementary_gauge(G.get_gauge("power_log_2")).derivative(1.0))


def test_numeric_complement_non_finite_arguments():
    # a NaN reads NaN, as in every closed-form complement, and leaves the
    # other arguments alone; t = inf is refused up front, by name, and a t
    # too large for the right inverse's bracket is named with its complement
    comp = G.complementary_gauge(G.get_gauge("power_log_2"))
    vals = comp(np.array([-1.0, 0.0, 2.0, 2.0, np.nan]))
    assert np.isnan(vals[0]) and vals[1] == 0.0 and vals[2] == vals[3]
    assert vals[2] == pytest.approx(float(comp(2.0)), rel=1e-15)
    assert np.isnan(vals[4]) and np.isnan(comp(np.nan))
    assert np.isnan(G.complementary_gauge(G.get_gauge("power_2"))(np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.inf, np.array([1.0, np.inf])):
            with pytest.raises(G.GaugeError, match=r"complement\(power_log_2\).*inf"):
                comp(t)
        for t in (1e300, np.array([1.0, 1e300, 2.0])):
            with pytest.raises(G.BracketError, match=r"complement\(power_log_2\).*t = 1e\+300"):
                comp(t)


@pytest.mark.parametrize("name", ["power_2", "power_1_5", "power_log_2"])
def test_complement_reads_nan_at_negative_arguments(name):
    # closed forms of even (q = 2) and odd (q = 3) conjugate exponent, and the
    # quadrature route: a gauge is stated for t >= 0, so every route reads NaN
    comp = G.complementary_gauge(G.get_gauge(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = comp(np.array([-1.0, 2.0, -5e-324, 0.0]))
        assert np.isnan(comp(-1.0)) and np.isnan(vals[[0, 2]]).all()
        assert vals[3] == 0.0 and vals[1] == pytest.approx(float(comp(2.0)), rel=1e-15)
        # the derivative too, and a NaN argument reads NaN on the quadrature
        # route's right inverse without a bisection that could not end
        slopes = comp.derivative(np.array([-1.0, 2.0, -5e-324, np.nan]))
        assert np.isnan(comp.derivative(-1.0)) and np.isnan(slopes[[0, 2, 3]]).all()
        assert slopes[1] == float(comp.derivative(2.0)) > 0.0


def _scalar_right_inverse(a, u):
    # one element of the array right inverse: its bracket, then the refinement replayed
    value = lambda s: float(a(np.float64(s)))
    lo, hi = 0.0, 1.0
    a_lo, a_hi = value(lo), value(hi)
    while not a_hi > u:
        lo, a_lo = hi, a_hi
        hi *= 2.0
        a_hi = value(hi)
    return scalar_false_position(value, u, lo, hi, a_lo, a_hi, 1e-13, floor=1.0, strict=True)


def test_right_inverse_matches_scalar_replay():
    g = G.get_gauge("power_log_2")
    atilde = G._right_inverse_of_derivative(g)
    u = np.array([0.0, 1e-9, 0.5, 3.0, 1e4])
    want = np.array([_scalar_right_inverse(g.derivative, x) for x in u])
    assert_allclose(atilde(u), want, rtol=1e-13, atol=0.0)
    assert_allclose(atilde(u[::-1].reshape(5, 1)).ravel(), want[::-1], rtol=1e-13, atol=0.0)
    assert atilde(np.float64(0.5)).shape == ()
    with pytest.raises(G.GaugeError, match="u >= 0"):
        atilde(np.array([1.0, -1e-12]))
    # the complement maps a negative argument to NaN before its right inverse
    assert np.isnan(G.complementary_gauge(g).derivative(-1.0))


def test_quad_is_exact_on_polynomials_up_to_degree_20():
    for k in range(21):
        got = G._quad(lambda x: x**k, -0.5, 1.5)
        assert got == pytest.approx((1.5 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1), rel=1e-14)


def test_quad_sqrt_endpoint_singularity():
    # the complement's integrand behaves as sqrt(u) at u = 0
    assert abs(float(G._quad(np.sqrt, 0.0, 1.0)) - 2.0 / 3.0) <= 1e-12


def test_quad_integrates_each_interval_in_one_call():
    a = np.array([[0.0, 1.0], [2.0, 3.0], [-1.0, 0.25]])
    b = np.array([[1.0, 1.0], [7.0, 30.0], [0.25, 40.0]])
    got = G._quad(np.cos, a, b)
    assert got.shape == (3, 2)
    assert_allclose(got, np.sin(b) - np.sin(a), rtol=1e-10, atol=1e-12)
    assert got[0, 1] == 0.0


def test_quad_refuses_a_non_integrable_integrand():
    rows = []

    def inv(x):
        rows.append(x.shape[0])
        return 1.0 / x

    with pytest.raises(G.BracketError, match=r"\[0\.0, 1\.0\]"):
        G._quad(inv, np.array([2.0, 0.0]), np.array([3.0, 1.0]))
    # the work stays bounded: no round holds more than the piece limit
    assert max(rows) <= G._QUAD_PIECES


def test_quad_with_per_interval_parameters_matches_one_call_each():
    a = np.array([0.0, 4.0, 8.0, 0.5, 2.0])
    b = np.array([4.0, 8.0, 16.0, 0.5, 30.0])
    c = np.array([1e-3, 0.1, 1.0, 5.0, 40.0])
    f = lambda x, c: np.exp(-c * x) * np.cos(x) + c
    got = G._quad(f, a, b, par=c)
    want = np.array([float(G._quad(lambda x, ci=ci: f(x, ci), ai, bi))
                     for ai, bi, ci in zip(a, b, c)])
    assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # the parameter broadcasts against the limits, and a column reaches f per piece
    seen = []
    G._quad(lambda x, c: seen.append(c.shape) or x * c, 0.0, 1.0, par=c)
    assert {shape[1] for shape in seen} == {1}
    assert_allclose(G._quad(lambda x, c: x * c, 0.0, 1.0, par=c), 0.5 * c, rtol=1e-15)


def _right_inverse_levels():
    """208 levels: edge values, two NaN, and 200 over e^-20..e^20."""
    rng = np.random.default_rng(3)
    return np.concatenate([[0.0, np.nan, 1e-9, 0.5, np.nan, 3.0, 1e4, 1e12],
                           np.exp(rng.uniform(-20.0, 20.0, 200))])


def test_right_inverse_equals_per_element_replay_bitwise():
    g = G.get_gauge("power_log_2")
    atilde = G._right_inverse_of_derivative(g)
    u = _right_inverse_levels()
    want = np.array([np.nan if np.isnan(x) else _scalar_right_inverse(g.derivative, x)
                     for x in u])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the frozen elements feed no value that warns
        got = atilde(u.reshape(8, -1))
    assert got.shape == (8, 26)
    assert got.ravel().tobytes() == want.tobytes()


# Ceilings a little above what the refinement takes, so that a fallback to
# bisection fails here and not only in the benchmark: psi takes 8 to 13
# rounds per call on the transform grid (bisection about 30), the right
# inverse 23 on its 208 levels (bisection 44), and the power_log_2
# complement one quadrature round on 16 points (40 when it integrated in u)
_PSI_ROUNDS, _RIGHT_INVERSE_ROUNDS, _COMPLEMENT_QUAD_ROUNDS = 14, 25, 2


def test_root_and_quadrature_rounds_stay_under_their_ceilings(monkeypatch):
    refine, quad = G._false_position, G._quad
    roots, quads = [], []  # the rounds of each refinement, of each quadrature

    def counted(f, log):
        log.append(0)
        k = len(log) - 1

        def step(*args):
            log[k] += 1
            return f(*args)

        return step

    monkeypatch.setattr(G, "_false_position",
                        lambda f, *args, **kwargs: refine(counted(f, roots), *args, **kwargs))
    monkeypatch.setattr(G, "_quad", lambda f, a, b: quad(counted(f, quads), a, b))
    for name, g in _TRANSFORM_GAUGES.items():
        x = _transform_grid(name)
        roots.clear()
        G.psi_of(g, x)
        G.varphi_of(g, x)
        assert len(roots) == 2 and max(roots) <= _PSI_ROUNDS, (name, roots)
    roots.clear()
    G._right_inverse_of_derivative(G.get_gauge("power_log_2"))(_right_inverse_levels())
    assert len(roots) == 1 and roots[0] <= _RIGHT_INVERSE_ROUNDS, roots
    G.complementary_gauge(G.get_gauge("power_log_2"))(np.geomspace(0.05, 20.0, 16))
    assert len(quads) == 1 and quads[0] <= _COMPLEMENT_QUAD_ROUNDS, quads


@pytest.mark.parametrize("name", ["power_1_5", "power_log_2", "lambda_2", "exp_minus_one"])
def test_gauge_inverse_on_arrays_equals_the_per_element_calls(name):
    g = G.get_gauge(name)
    y = np.array([[0.0, 1e-6, 0.3, 1.0], [2.0, 4.0, 1e3, -1.0]])
    got = g.inverse(y)
    want = np.array([g.inverse(float(v)) for v in y.ravel()])
    assert got.shape == y.shape and got.tobytes() == want.tobytes()
    assert type(g.inverse(2.0)) is float and g.inverse(0.0) == 0.0
    assert (got[y <= 0.0] == 0.0).all() and (g(got[y > 0.0]) >= y[y > 0.0]).all()
    # lambda_0 is bounded by 1: no upper bracket for a level above it
    with pytest.raises(G.BracketError, match="no upper bracket"):
        G.get_gauge("lambda_0").inverse(np.array([0.5, 2.0]))


def test_complementary_rejects_non_n_functions():
    for name in ("lambda_0", "lambda_1", "lambda_2", "exp_minus_one"):
        with pytest.raises(G.NotNFunctionError):
            G.complementary_gauge(G.gauge_from_config(G.REGISTRY[name]))


def _n_function_registry():
    out = {}
    for name, cfg in G.REGISTRY.items():
        g = G.gauge_from_config(cfg)
        if G.classify_gauge(g).is_N_function:
            out[name] = g
    return out


def test_strict_n_flags_match_expectation():
    flags = {name: G.classify_gauge(G.gauge_from_config(cfg)).is_N_function
             for name, cfg in G.REGISTRY.items()}
    assert flags == {
        "power_1_5": True,
        "power_2": True,
        "power_3": True,
        "half_square": True,
        "cube_over_3": True,
        "power_log_2": True,
        "lambda_0": False,
        "lambda_1": False,
        "lambda_2": False,
        "exp_minus_one": False,
    }


def test_young_gap_nonnegative_for_n_registry():
    s = np.geomspace(0.05, 20.0, 32)
    t = np.geomspace(0.05, 20.0, 32)
    ss, tt = np.meshgrid(s, t)
    for name, g in _n_function_registry().items():
        comp = G.complementary_gauge(g)
        gaps = G.young_gap(g, comp, ss, tt)
        assert gaps.min() >= -1e-9, f"Young gap violated for {name}: {gaps.min()}"


def test_young_equality_on_derivative_line():
    g = G.make_gauge("power", p=2.0, coeff=0.5)
    comp = G.complementary_gauge(g)
    s = np.linspace(0.05, 5.0, 32)
    gaps = G.young_gap(g, comp, s, g.derivative(s))
    assert np.max(np.abs(gaps)) <= 1e-6


# ---------------------------------------------------------------------------
# kappa integral and classification


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_kappa_power_closed_form(p):
    g = G.make_gauge("power", p=p)
    assert G.kappa_probe(g) == pytest.approx(1.0 / (p - 1.0), rel=1e-4)


def test_kappa_diverges_for_lambda1():
    assert G.kappa_probe(G.make_gauge("lambda_alpha", alpha=1.0)) is None


def test_kappa_converges_for_lambda2():
    val = G.kappa_probe(G.make_gauge("lambda_alpha", alpha=2.0))
    assert val == pytest.approx(1.0, abs=0.05)


def test_classification_matrix():
    reports = {name: G.classify_gauge(g) for name, g in G.registry_gauges().items()}
    assert reports["power_2"].is_A0 and reports["power_2"].is_A1
    assert reports["power_2"].kappa_A2 == pytest.approx(1.0, rel=1e-4)
    assert reports["lambda_0"].is_A0 and not reports["lambda_0"].is_A1
    assert reports["lambda_1"].is_A1 and not reports["lambda_1"].a2_operational
    assert reports["lambda_2"].is_A1 and reports["lambda_2"].a2_operational
    assert reports["lambda_2"].kappa_A2 is None
    assert reports["lambda_2"].kappa_value == pytest.approx(1.0, abs=0.05)
    assert not reports["exp_minus_one"].is_A0
    assert reports["exp_minus_one"].c_lambda_worst == math.inf


# classify_gauge per registry gauge: the flags and c_lambda_worst, then
# kappa_value, pinned to 1e-14 relative: how many rows the Kronrod product
# holds per call can move its last bits
_CLASS_PINS = {
    "power_1_5": (True, 8.0, True, True, True, True, 2.0000000000000004),
    "power_2": (True, 16.0, True, True, True, True, 1.0000000000000002),
    "power_3": (True, 64.0, True, True, True, True, 0.5000000000000001),
    "half_square": (True, 16.0, True, True, True, True, 1.0000000000000002),
    "cube_over_3": (True, 64.0, True, True, True, True, 0.5000000000000002),
    "power_log_2": (True, 63.99999904000002, True, True, True, True, 0.8562561160523465),
    "lambda_0": (True, 2.3745408771501095, False, False, False, False, None),
    "lambda_1": (True, 9.498163508600438, True, False, False, False, None),
    "lambda_2": (True, 37.99265403440175, True, False, False, True, 0.999851504493224),
    "exp_minus_one": (False, math.inf, False, False, False, False, None),
}


@pytest.mark.parametrize("name", sorted(G.REGISTRY))
def test_classify_gauge_pins_every_registry_report(name):
    is_a0, c_worst, is_a1, is_n, has_a2, a2_op, kappa = _CLASS_PINS[name]
    r = G.classify_gauge(G.get_gauge(name))
    assert (r.is_A0, r.is_A1, r.is_N_function, r.a2_operational) == (is_a0, is_a1, is_n, a2_op)
    assert r.c_lambda_worst == pytest.approx(c_worst, rel=1e-14)
    assert (r.kappa_A2 is not None) == has_a2
    if kappa is None:
        assert r.kappa_value is None
    else:
        assert r.kappa_value == pytest.approx(kappa, rel=1e-14, abs=0.0)
        assert r.kappa_A2 in (None, r.kappa_value)


# kappa_probe splits each chunk at the lambda_alpha kink, so on u <= 8 (its
# first two chunks) no quadrature takes more rounds than this; without the
# split the lambda gauges take 22 to 27
_KAPPA_QUAD_ROUNDS = 3


@pytest.mark.parametrize("name", sorted(name for name, pins in _CLASS_PINS.items() if pins[0]))
def test_kappa_quadrature_rounds_stay_under_their_ceiling(monkeypatch, name):
    # every gauge the classifier probes (the A0 ones)
    quad, rounds = G._quad, []

    def counted(f, a, b, par=None):
        n = [0]

        def step(*args):
            n[0] += 1
            return f(*args)

        out = quad(step, a, b, par=par)
        rounds.append((float(np.max(b)), n[0]))
        return out

    monkeypatch.setattr(G, "_quad", counted)
    G.kappa_probe(G.get_gauge(name))
    early = [n for top, n in rounds if top <= 8.0]
    assert len(early) == 2 and max(early) <= _KAPPA_QUAD_ROUNDS, rounds


def test_classification_invariants():
    gauges = dict(G.registry_gauges())
    # a square without closed forms: the classifier takes every numeric route
    gauges["numeric_square"] = G.GrowthFunction("numeric", {}, "t^2", _eval=np.square)
    for name, g in gauges.items():
        r = G.classify_gauge(g)
        if r.is_A1:
            assert r.is_A0, name
        if r.kappa_A2 is not None:
            assert r.is_A1 and r.is_N_function, name
        if r.is_A0:
            assert math.isfinite(r.c_lambda_worst), name
