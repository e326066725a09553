import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orliczlab import gauges as G
from orliczlab import spaces as S
from orliczlab._rng import substream


@pytest.fixture
def space4():
    return S.DiscreteMeasureSpace(np.array([1.0, 1.0, 2.0, 0.5]))


def test_space_validation():
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([]))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, 2.0]), labels=("a",))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, 2.0]), labels=("a", "a"))
    sp = S.DiscreteMeasureSpace(np.array([1.0, 2.0]))
    assert sp.labels == ("x0", "x1")
    assert sp.total_mass == 3.0


def test_vector_shape_checks(space4):
    with pytest.raises(ValueError):
        S.OrliczVector(space4, np.zeros((3, 2)))
    v = S.OrliczVector(space4, np.arange(4.0))
    assert v.values.shape == (4, 1)
    with pytest.raises(ValueError):
        v.plus(S.OrliczVector(S.DiscreteMeasureSpace(np.ones(4) * 2.0), np.zeros((4, 1))))


def test_modular_two_atom_hand_value():
    sp = S.DiscreteMeasureSpace(np.array([1.0, 2.0]))
    f = S.OrliczVector(sp, np.array([[3.0], [1.0]]))
    assert S.modular(f, G.make_gauge("power", p=2.0)) == 11.0


def test_modular_of_norms_matches_scalar(space4):
    rng = substream(7, "spaces-kernel")
    vals = rng.normal(size=(5, 3, space4.n_atoms))
    gauge = G.make_gauge("power_log", p=2.0)
    kernel = S.modular_of_norms(np.abs(vals), space4.weights, gauge)
    assert kernel.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            f = S.OrliczVector(space4, np.abs(vals[i, j])[:, None])
            assert kernel[i, j] == pytest.approx(S.modular(f, gauge), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_luxemburg_power_is_weighted_lp(space4, p):
    rng = substream(11, "spaces-lp", p)
    f = S.OrliczVector(space4, rng.normal(size=(4, 2)))
    expect = float(np.dot(space4.weights, f.norms() ** p)) ** (1.0 / p)
    got = S.luxemburg_norm(f, G.make_gauge("power", p=p))
    assert got == pytest.approx(expect, rel=1e-9)


def test_luxemburg_zero_vector(space4):
    f = S.OrliczVector(space4, np.zeros((4, 2)))
    assert S.luxemburg_norm(f, G.make_gauge("power", p=2.0)) == 0.0


def test_luxemburg_modular_contract(space4):
    gauge = G.make_gauge("lambda_alpha", alpha=1.0)
    rng = substream(3, "spaces-contract")
    for _ in range(5):
        f = S.OrliczVector(space4, rng.normal(size=(4, 2)) * np.exp(rng.uniform(-2, 2)))
        lam = S.luxemburg_norm(f, gauge, tol=1e-9)
        assert abs(S.modular(f.scaled(1.0 / lam), gauge) - 1.0) <= 1e-9


def test_luxemburg_eight_atom_scan_oracle():
    # independent oracle: dense geometric lambda scan for the smallest
    # feasible scale, compared against the bisection result
    sp = S.DiscreteMeasureSpace(np.arange(1.0, 9.0) / 4.0)
    rng = substream(42, "spaces-golden")
    f = S.OrliczVector(sp, rng.normal(size=(8, 2)))
    gauge = G.make_gauge("lambda_alpha", alpha=1.0)

    lam_grid = np.geomspace(f.norms().max() / 64.0, f.norms().max() * 64.0, 2_000_001)
    mods = (gauge(f.norms()[None, :] / lam_grid[:, None]) @ sp.weights)
    oracle = float(lam_grid[np.searchsorted(-mods, -1.0)])

    got = S.luxemburg_norm(f, gauge)
    assert got == pytest.approx(oracle, rel=2e-5)


def test_luxemburg_upper_bracket_exhaustion():
    # gauge bounded below away from zero: modular can never reach 1
    gauge = G.make_gauge("table", knots=[[0.5, 2.0], [1.0, 2.0], [2.0, 4.0]])
    sp = S.DiscreteMeasureSpace(np.array([1.0, 1.0]))
    f = S.OrliczVector(sp, np.ones((2, 1)))
    with pytest.raises(G.BracketError):
        S.luxemburg_norm(f, gauge)


def test_luxemburg_saturating_gauge_returns_zero():
    # lambda_0 is bounded by 1; with total mass below 1 every scale is
    # feasible and the infimum is 0
    gauge = G.make_gauge("lambda_alpha", alpha=0.0)
    sp = S.DiscreteMeasureSpace(np.array([0.25, 0.25]))
    f = S.OrliczVector(sp, np.ones((2, 1)))
    assert S.luxemburg_norm(f, gauge) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    p=st.sampled_from([1.5, 2.0]),
    alpha=st.sampled_from([1.0, 2.0]),
    use_power=st.booleans(),
)
def test_luxemburg_homogeneous(c, p, alpha, use_power):
    gauge = (
        G.make_gauge("power", p=p) if use_power else G.make_gauge("lambda_alpha", alpha=alpha)
    )
    sp = S.DiscreteMeasureSpace(np.array([1.0, 2.0, 0.5]))
    rng = substream(5, "spaces-homog")
    f = S.OrliczVector(sp, rng.normal(size=(3, 2)))
    base = S.luxemburg_norm(f, gauge)
    assert S.luxemburg_norm(f.scaled(c), gauge) == pytest.approx(c * base, rel=1e-9)


def test_luxemburg_batch_kernel(space4):
    gauge = G.make_gauge("lambda_alpha", alpha=2.0)
    rng = substream(9, "spaces-batch")
    norms = np.abs(rng.normal(size=(3, 2, 4)))
    batch = S.luxemburg_of_norms(norms, space4.weights, gauge)
    assert batch.shape == (3, 2)
    f = S.OrliczVector(space4, norms[1, 0][:, None])
    assert batch[1, 0] == pytest.approx(S.luxemburg_norm(f, gauge), rel=1e-12)


@pytest.mark.parametrize("name", ["power_2", "power_1_5", "lambda_1", "power_log_2"])
def test_norm_relations_hold(space4, name):
    gauge = G.gauge_from_config(G.REGISTRY[name])
    report = S.verify_norm_relations(space4, gauge, n_samples=48, seed=101)
    assert report.passed, report
    assert report.unit_ball_max <= 1.0 + 1e-12
    assert report.modular_bound_margin >= -1e-5
    assert report.norm_bound_margin >= -1e-5
    assert report.gamma_hat <= report.alpha_star
    assert report.faithful_ratio <= 1.0 + 1e-9


def test_alpha_star_power2_closed_form(space4):
    # 2 phi(2/alpha) = 1 at alpha = 2 * 2^(1/p) for power gauges
    report = S.verify_norm_relations(space4, G.make_gauge("power", p=2.0), n_samples=8, seed=1)
    assert report.alpha_star == pytest.approx(2.0 * 2.0**0.5, rel=2e-2)
    assert report.alpha_star >= 2.0 * 2.0**0.5 - 1e-12


def test_space_config_roundtrip(space4):
    cfg = space4.to_config()
    assert list(cfg) == ["weights"]
    assert cfg["weights"] == list(space4.weights)
    rebuilt = S.DiscreteMeasureSpace.from_config(cfg)
    assert np.array_equal(rebuilt.weights, space4.weights)
    with pytest.raises(ValueError, match="weights"):
        S.DiscreteMeasureSpace.from_config({})
