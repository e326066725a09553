import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orliczlab import gauges as G

KINK = math.exp(-1.0)


def brute_phi(gauge, s, points=8192):
    # independent sup oracle: dense geometric grid, no refinement logic
    t = np.geomspace(gauge.domain_floor, 1.0 / gauge.domain_floor, points)
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
    # the log factor is evaluated only below the kink; the values equal the
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


def test_lambda_zero_is_bounded():
    g = G.make_gauge("lambda_alpha", alpha=0.0)
    t = np.geomspace(1e-10, 1e10, 101)
    assert np.all(g(t) <= 1.0 + 1e-15)


def test_table_gauge_interpolates_loglinear():
    g = G.make_gauge("table", knots=[[0.1, 0.01], [1.0, 1.0], [10.0, 100.0]])
    # exact at knots, geometric midpoint in between (slope 2 in log-log)
    assert_allclose(g([0.1, 1.0, 10.0]), [0.01, 1.0, 100.0], rtol=1e-12)
    assert float(g(np.float64(math.sqrt(0.1)))) == pytest.approx(0.1, rel=1e-12)
    # end-slope extrapolation keeps the power-law tails
    assert float(g(np.float64(0.01))) == pytest.approx(1e-4, rel=1e-10)
    assert float(g(np.float64(100.0))) == pytest.approx(1e4, rel=1e-10)


def test_table_gauge_rejects_bad_knots():
    with pytest.raises(G.GaugeError):
        G.make_gauge("table", knots=[[1.0, 1.0]])
    with pytest.raises(G.GaugeError):
        G.make_gauge("table", knots=[[1.0, 1.0], [0.5, 2.0]])
    with pytest.raises(G.GaugeError):
        G.make_gauge("table", knots=[[0.5, -1.0], [1.0, 1.0]])


def test_config_round_trip():
    for cfg in G.REGISTRY.values():
        g = G.gauge_from_config(cfg)
        again = G.gauge_from_config(g.to_config())
        t = np.geomspace(1e-4, 1e4, 33)
        assert_allclose(again(t), g(t), rtol=0.0)


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
    stripped = G.GrowthFunction(
        family=g.family, params=g.params, label=g.label,
        _eval=g._eval, _deriv=g._deriv, _phi_closed=g._phi_closed,
        _complement=None, rv_index_closed=g.rv_index_closed,
    )
    comp = G.complementary_gauge(stripped)
    t = np.geomspace(0.1, 10.0, 13)
    assert_allclose(comp(t), t**1.5 / 1.5, rtol=1e-6)


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
    val, diag = G.kappa_probe(g)
    assert diag == "ok"
    assert val == pytest.approx(1.0 / (p - 1.0), rel=1e-4)


def test_kappa_diverges_for_lambda1():
    val, diag = G.kappa_probe(G.make_gauge("lambda_alpha", alpha=1.0))
    assert val is None
    assert "converge" in diag


def test_kappa_converges_for_lambda2():
    val, diag = G.kappa_probe(G.make_gauge("lambda_alpha", alpha=2.0))
    assert diag == "ok"
    assert val == pytest.approx(1.0, abs=0.05)


def test_classification_matrix():
    reports = {name: G.classify_gauge(g) for name, g in G.registry_gauges().items()}
    assert reports["power_2"].is_A0 and reports["power_2"].is_A1
    assert reports["power_2"].kappa_A2 == pytest.approx(1.0, rel=1e-4)
    assert reports["power_2"].rv_index == pytest.approx(2.0)
    assert reports["lambda_0"].is_A0 and not reports["lambda_0"].is_A1
    assert reports["lambda_1"].is_A1 and not reports["lambda_1"].a2_operational
    assert reports["lambda_2"].is_A1 and reports["lambda_2"].a2_operational
    assert reports["lambda_2"].kappa_A2 is None
    assert reports["lambda_2"].kappa_value == pytest.approx(1.0, abs=0.05)
    assert not reports["exp_minus_one"].is_A0
    assert reports["exp_minus_one"].c_lambda_worst == math.inf


def test_classification_invariants():
    gauges = dict(G.registry_gauges())
    gauges["table_power"] = G.make_gauge(
        "table", knots=[[10.0**k, 10.0 ** (2 * k)] for k in range(-6, 7)]
    )
    for name, g in gauges.items():
        r = G.classify_gauge(g)
        if r.is_A1:
            assert r.is_A0, name
        if r.kappa_A2 is not None:
            assert r.is_A1 and r.is_N_function, name
        if r.is_A0:
            assert math.isfinite(r.c_lambda_worst), name


def test_table_power_classifies_like_power():
    g = G.make_gauge("table", knots=[[10.0**k, 10.0 ** (2 * k)] for k in range(-6, 7)])
    r = G.classify_gauge(g)
    assert r.is_A0 and r.is_A1 and r.is_N_function
    assert r.kappa_A2 == pytest.approx(1.0, rel=1e-3)
    assert r.rv_index == pytest.approx(2.0, abs=1e-6)


def test_rv_index_estimates():
    assert G.classify_gauge(G.make_gauge("power", p=1.5)).rv_index == pytest.approx(1.5)
    lam = G.classify_gauge(G.make_gauge("lambda_alpha", alpha=1.0)).rv_index
    assert lam == pytest.approx(1.0, abs=0.1)
    assert G.classify_gauge(G.make_gauge("power_log", p=2.0)).rv_index == pytest.approx(3.0)
