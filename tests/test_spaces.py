import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orliczlab import gauges as G
from orliczlab import spaces as S
from orliczlab._rng import substream
from test_gauges import scalar_false_position


@pytest.fixture
def space4():
    return S.DiscreteMeasureSpace(np.array([1.0, 1.0, 2.0, 0.5]))


def atom_norms(values):
    """Per-atom Euclidean norms of (..., atoms, dim) vector values."""
    return np.linalg.norm(values, axis=-1)


def lux(norms, space, gauge):
    """Luxemburg norm of one row of per-atom norms."""
    return float(S.luxemburg_of_norms(np.asarray(norms)[None, :], space.weights, gauge)[0])


def test_space_validation():
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        S.DiscreteMeasureSpace(np.array([]))


def test_modular_two_atom_hand_value():
    sp = S.DiscreteMeasureSpace(np.array([1.0, 2.0]))
    gauge = G.make_gauge("power", p=2.0)
    assert S.modular_of_norms(np.array([3.0, 1.0]), sp.weights, gauge) == 11.0


def test_modular_of_norms_matches_scalar(space4):
    rng = substream(7, "spaces-kernel")
    vals = rng.normal(size=(5, 3, space4.n_atoms))
    gauge = G.make_gauge("power_log", p=2.0)
    kernel = S.modular_of_norms(np.abs(vals), space4.weights, gauge)
    assert kernel.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            row = np.abs(vals[i, j])
            assert kernel[i, j] == pytest.approx(np.dot(space4.weights, gauge(row)), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_luxemburg_power_is_weighted_lp(space4, p):
    rng = substream(11, "spaces-lp", p)
    norms = atom_norms(rng.normal(size=(4, 2)))
    expect = float(np.dot(space4.weights, norms**p)) ** (1.0 / p)
    got = lux(norms, space4, G.make_gauge("power", p=p))
    assert got == pytest.approx(expect, rel=1e-9)


def test_luxemburg_zero_vector(space4):
    assert lux(np.zeros(4), space4, G.make_gauge("power", p=2.0)) == 0.0


def test_luxemburg_modular_contract(space4):
    gauge = G.make_gauge("lambda_alpha", alpha=1.0)
    rng = substream(3, "spaces-contract")
    for _ in range(5):
        values = rng.normal(size=(4, 2)) * np.exp(rng.uniform(-2, 2))
        lam = lux(atom_norms(values), space4, gauge)
        unit = S.modular_of_norms(atom_norms(values * (1.0 / lam)), space4.weights, gauge)
        assert abs(unit - 1.0) <= 1e-9


def test_luxemburg_eight_atom_scan_oracle():
    # independent oracle: dense geometric lambda scan for the smallest
    # feasible scale, compared against the bisection result
    sp = S.DiscreteMeasureSpace(np.arange(1.0, 9.0) / 4.0)
    rng = substream(42, "spaces-golden")
    norms = atom_norms(rng.normal(size=(8, 2)))
    gauge = G.make_gauge("lambda_alpha", alpha=1.0)

    lam_grid = np.geomspace(norms.max() / 64.0, norms.max() * 64.0, 2_000_001)
    mods = (gauge(norms[None, :] / lam_grid[:, None]) @ sp.weights)
    oracle = float(lam_grid[np.searchsorted(-mods, -1.0)])

    got = lux(norms, sp, gauge)
    assert got == pytest.approx(oracle, rel=2e-5)


# Gauge calls per luxemburg_of_norms call, bracket included, pinned a little
# above what the false-position refinement takes (12 or 13 on _lux_rows());
# the bisection it replaced took 34 to 36
_LUX_GAUGE_CALLS = 14


def test_luxemburg_evaluates_each_scale_once(space4):
    # every gauge call sees a new argument: no scale is evaluated twice
    base = G.make_gauge("lambda_alpha", alpha=1.0)
    seen = []

    def counting(t):
        seen.append(t.tobytes())
        return base(t)

    gauge = dataclasses.replace(base, _eval=counting)
    rng = substream(5, "spaces-count")
    for _ in range(5):
        seen.clear()
        norms = atom_norms(rng.normal(size=(4, 2)) * np.exp(rng.uniform(-2, 2)))
        assert lux(norms, space4, gauge) == lux(norms, space4, base)
        assert len(seen) <= _LUX_GAUGE_CALLS and len(set(seen)) == len(seen)


def test_luxemburg_upper_bracket_exhaustion():
    # gauge bounded below away from zero: modular can never reach 1
    gauge = G.GrowthFunction(
        "floor", {}, "2 ∨ 2t", _eval=lambda t: np.where(t > 0.0, np.maximum(2.0, 2.0 * t), 0.0))
    sp = S.DiscreteMeasureSpace(np.array([1.0, 1.0]))
    with pytest.raises(G.BracketError):
        lux(np.ones(2), sp, gauge)


def test_luxemburg_saturating_gauge_returns_zero():
    # lambda_0 is bounded by 1; with total mass below 1 every scale is
    # feasible and the infimum is 0
    gauge = G.make_gauge("lambda_alpha", alpha=0.0)
    sp = S.DiscreteMeasureSpace(np.array([0.25, 0.25]))
    assert lux(np.ones(2), sp, gauge) == 0.0
    rows = np.abs(substream(4, "spaces-saturating").normal(size=(16, 2))) * np.geomspace(
        np.exp(-6.0), np.exp(6.0), 16)[:, None]
    assert np.array_equal(S.luxemburg_of_norms(rows, sp.weights, gauge), np.zeros(16))


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
    values = rng.normal(size=(3, 2))
    base = lux(atom_norms(values), sp, gauge)
    assert lux(atom_norms(c * values), sp, gauge) == pytest.approx(c * base, rel=1e-9)


def test_luxemburg_batch_kernel(space4):
    gauge = G.make_gauge("lambda_alpha", alpha=2.0)
    rng = substream(9, "spaces-batch")
    norms = np.abs(rng.normal(size=(3, 2, 4)))
    batch = S.luxemburg_of_norms(norms, space4.weights, gauge)
    assert batch.shape == (3, 2)
    assert batch[1, 0] == pytest.approx(lux(norms[1, 0], space4, gauge), rel=1e-12)
    assert S.luxemburg_of_norms(np.zeros((0, 4)), space4.weights, gauge).shape == (0,)


def _row_loop_luxemburg(rows, weights, gauge):
    """Reference: one row at a time on scalars, its bracket, then the
    refinement replayed by ``scalar_false_position``."""
    out = []
    for norms in rows:
        top = float(norms.max(initial=0.0))
        if top == 0.0:
            out.append(0.0)
            continue
        mod = lambda lam: float(np.dot(weights, gauge(norms / lam)))
        lo, hi = None, top
        for _ in range(200):
            mod_hi = mod(hi)
            if mod_hi <= 1.0:
                break
            lo, mod_lo, hi = hi, mod_hi, hi * 2.0
        else:
            raise G.BracketError("no upper bracket")
        if lo is None:
            lo = hi
            for _ in range(200):
                nxt = lo * 0.5
                mod_nxt = mod(nxt)
                if mod_nxt > 1.0:
                    lo, mod_lo = nxt, mod_nxt
                    break
                lo = hi = nxt
                mod_hi = mod_nxt
            else:
                out.append(0.0)
                continue
        out.append(scalar_false_position(lambda lam: -mod(lam), -1.0, lo, hi, -mod_lo, -mod_hi,
                                         1e-13, done=lambda r: abs(r) <= 1e-9))
    return np.array(out)


def _lux_rows():
    """Pairwise non-proportional rows: spread over e^-6..e^6, one zero row,
    and rows feasible at their largest value (the bracket halves), one of
    them carried by the 0.5-weight atom alone."""
    rng = substream(13, "spaces-lux-batch")
    spread = np.exp(rng.uniform(-6.0, 6.0, size=(64, 1))) * np.abs(rng.normal(size=(64, 4)))
    light = np.exp(rng.uniform(-6.0, 6.0, size=(8, 1))) * np.column_stack(
        [rng.uniform(0.0, 0.1, size=(8, 3)), np.ones(8)])
    light[0, :3] = 0.0
    return np.vstack([spread, np.zeros((1, 4)), light])


def _flat_table(t):
    return np.where(t < 0.5, 8.0 * t * t, np.where(t <= 1.6, 2.0, 1.25 * t))


# the four gauge-numerics gauges, and a gauge flat at 2 on [0.5, 1.6]: the
# row carried by the 0.5-weight atom then has modular exactly 1 on a
# stretch of scales, where stopping before the first bisection step would
# return the bracket end instead of the norm
BATCH_GAUGES = {
    "power_1_5": G.get_gauge("power_1_5"),
    "power_2": G.get_gauge("power_2"),
    "power_log_2": G.get_gauge("power_log_2"),
    "lambda_2": G.get_gauge("lambda_2"),
    "flat_table": G.GrowthFunction("flat", {}, "flat at 2 on [0.5, 1.6]", _eval=_flat_table),
}


@pytest.mark.parametrize("name", sorted(BATCH_GAUGES))
def test_luxemburg_of_norms_replays_row_loop(space4, name):
    gauge = BATCH_GAUGES[name]
    rows = _lux_rows()
    batch = S.luxemburg_of_norms(rows, space4.weights, gauge)
    assert np.array_equal(batch, _row_loop_luxemburg(rows, space4.weights, gauge))


def test_luxemburg_of_norms_nan_row_raises(space4):
    # a non-finite row is rejected up front and named, also under lambda_2,
    # which maps NaN to 0 and would otherwise read the row as a zero norm
    for name in ("power_2", "lambda_2"):
        for bad in (np.nan, np.inf, -np.inf):
            rows = _lux_rows()
            rows[5, 2] = bad
            with pytest.raises(G.BracketError, match=r"row \(5,\)"):
                S.luxemburg_of_norms(rows, space4.weights, G.get_gauge(name))
            with pytest.raises(G.BracketError, match=r"row \(1, 2\)"):
                S.luxemburg_of_norms(rows[:6].reshape(2, 3, 4), space4.weights,
                                     G.get_gauge(name))
    with pytest.raises(G.BracketError):
        lux([1.0, np.nan, 0.5, 0.2], space4, G.get_gauge("lambda_2"))


@pytest.mark.parametrize("name", sorted(BATCH_GAUGES))
def test_luxemburg_of_norms_evaluates_each_scale_once_per_row(space4, name):
    # the rows are pairwise non-proportional, so a repeated scaled row
    # means one row evaluated twice at one scale; and the calls stay under
    # their ceiling, so a fallback to bisection fails here
    base = BATCH_GAUGES[name]
    seen, calls = [], []

    def counting(t):
        calls.append(t.shape[0])
        seen.extend(row.tobytes() for row in t)
        return base(t)

    gauge = dataclasses.replace(base, _eval=counting)
    rows = _lux_rows()
    batch = S.luxemburg_of_norms(rows, space4.weights, gauge)
    assert np.array_equal(batch, _row_loop_luxemburg(rows, space4.weights, base))
    assert len(calls) <= _LUX_GAUGE_CALLS and len(set(seen)) == len(seen)


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


@pytest.mark.parametrize("name", ["power_1_5", "lambda_2"])
def test_norm_relations_equal_two_separate_luxemburg_searches(monkeypatch, space4, name):
    # the samples and their consecutive sums share one search; a row's norm
    # does not depend on the rows searched with it
    gauge, n = G.get_gauge(name), 64
    joint = S.verify_norm_relations(space4, gauge, n_samples=n, seed=30)
    lux, calls = S.luxemburg_of_norms, []

    def two_searches(norms, weights, g):
        calls.append(norms.shape[0])
        return np.concatenate([lux(norms[:n], weights, g), lux(norms[n:], weights, g)])

    monkeypatch.setattr(S, "luxemburg_of_norms", two_searches)
    assert repr(S.verify_norm_relations(space4, gauge, n_samples=n, seed=30)) == repr(joint)
    assert calls == [2 * n - 1]


def _scalar_alpha_star(gauge, grid):
    for alpha in grid:
        if 2.0 * G.phi_of(gauge, 2.0 / alpha) <= 1.0:
            return float(alpha)
    return None


@pytest.mark.parametrize("name", ["power_1_5", "power_2", "power_log_2", "lambda_1", "lambda_2",
                                  "power_2_numeric"])
def test_alpha_star_equals_the_scalar_loop(name):
    if name.endswith("numeric"):
        gauge = dataclasses.replace(G.get_gauge("power_2"), _phi_closed=None)
    else:
        gauge = G.get_gauge(name)
    grid = np.geomspace(2.0, 512.0, 768)
    got = S._alpha_star(gauge, grid)
    assert type(got) is float and got == _scalar_alpha_star(gauge, grid)
    # a grid whose first match lies in a later chunk
    assert S._alpha_star(gauge, np.concatenate([np.full(100, 2.0), grid])) == got
    with pytest.raises(G.BracketError, match="no quasi-triangle constant"):
        S._alpha_star(gauge, grid[: grid.searchsorted(got)])


def test_norm_relations_reject_a_zero_norm():
    # lambda_0 saturates below modular 1 on a space of mass 1/2: every
    # nonzero sample has Luxemburg norm 0, which must fail by name
    space = S.DiscreteMeasureSpace([0.25, 0.25])
    with pytest.raises(G.BracketError, match="nonzero sample 0 has Luxemburg norm 0"):
        S.verify_norm_relations(space, G.get_gauge("lambda_0"))
