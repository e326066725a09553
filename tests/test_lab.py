"""Tests for the experiment lab: constants, quasi-metrics, experiment runs."""

import sys
import threading
import time
from fnmatch import fnmatch

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orliczlab import lab
from orliczlab._rng import substream
from orliczlab.config import ExperimentConfig
from orliczlab.gauges import get_gauge
from orliczlab.lab import (
    EXPERIMENTS,
    LabError,
    QuasiMetric,
    _max_to_hit,
    _modular_paths,
    _execute,
    derive_moment_constant,
    experiment_defaults,
    good_lambda_bound,
    lenglart_constant,
    run_experiment,
)
from orliczlab.paths import PathGrid, draw_normals, draw_tiles, hitting_index, simulate_batch
from orliczlab.spaces import DiscreteMeasureSpace, luxemburg_of_norms, modular_of_norms


def small(name, replicates=2000, grid_n=128, **params):
    cfg = ExperimentConfig(experiment=name, replicates=replicates, grid_n=grid_n, params=params)
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# constants


def test_good_lambda_bound_values():
    assert_allclose(good_lambda_bound(2.0, 0.1, 1), 0.01)
    assert_allclose(good_lambda_bound(2.0, 0.1, 2), 0.01 / 3.0)
    assert_allclose(good_lambda_bound(1.5, 0.25, 1), 0.0625 / 0.25)
    with pytest.raises(LabError):
        good_lambda_bound(1.0, 0.1, 1)
    with pytest.raises(LabError):
        good_lambda_bound(2.0, 0.1, 3)


def test_moment_constant_reference_value():
    # beta=2, delta=0.1, p=2, c = 0.01: 100 / (0.25 - 0.01) = 416.66...
    assert_allclose(derive_moment_constant(2.0, 0.1, 2.0, 0.01), 100.0 / 0.24, rtol=1e-15)
    assert_allclose(derive_moment_constant(2.0, 0.1, 1.0, 0.01), 10.0 / 0.49, rtol=1e-15)


def test_moment_constant_monotone_in_tail_constant():
    # a weaker tail bound (larger c_delta) can only give a larger constant
    cs = np.linspace(0.0, 0.24, 9)
    vals = [derive_moment_constant(2.0, 0.1, 2.0, c) for c in cs]
    assert np.all(np.diff(vals) > 0)


def test_moment_constant_diverges_at_feasibility_edge():
    near = derive_moment_constant(2.0, 0.1, 2.0, 0.25 - 1e-9)
    assert near > 1e10
    with pytest.raises(LabError, match="infeasible"):
        derive_moment_constant(2.0, 0.1, 2.0, 0.25)
    with pytest.raises(LabError, match="infeasible"):
        derive_moment_constant(2.0, 0.1, 2.0, 0.3)


def test_lenglart_constant_closed_cases():
    # q=2, kappa=1, gamma=1, Phi=t^2: min over eps of eps^-2/(1 - 32 eps^2) = 64
    assert_allclose(lenglart_constant(2.0, 1.0, 1.0, 2.0), 64.0, rtol=1e-3)
    # q=1, kappa=4, gamma=4, Phi=t: min of (1/eps)/(1 - 256 eps) = 1024
    assert_allclose(lenglart_constant(1.0, 4.0, 4.0, 1.0), 1024.0, rtol=1e-3)
    with pytest.raises(LabError):
        lenglart_constant(1.0, 1e9, 4.0, 1.0)


# ---------------------------------------------------------------------------
# quasi-metrics


def test_quasimetric_axioms_on_random_triples():
    space = DiscreteMeasureSpace([1.0, 2.0, 0.5])
    metrics = [
        QuasiMetric.absolute(),
        QuasiMetric.modular_difference(space, get_gauge("power_2")),
        QuasiMetric.modular_difference(space, get_gauge("lambda_2")),
    ]
    rng = substream(11, "quasimetric")
    x, y, z = rng.normal(scale=2.0, size=(3, 1000, space.n_atoms))
    for metric in metrics:
        dxy = metric.distance(x, y)
        dyx = metric.distance(y, x)
        dxx = metric.distance(x, x)
        dxz = metric.distance(x, z)
        dzy = metric.distance(z, y)
        assert np.array_equal(dxy, dyx)  # symmetry, exact
        assert np.all(dxx == 0.0)        # identity, exact
        assert np.all(dxy >= 0.0)
        assert np.all(dxy <= metric.gamma * (dxz + dzy) + 1e-9)


def test_quasimetric_gamma_values():
    space = DiscreteMeasureSpace([1.0])
    assert QuasiMetric.absolute().gamma == 1.0
    assert QuasiMetric.modular_difference(space, get_gauge("power_2")).gamma == 4.0


# ---------------------------------------------------------------------------
# experiment dispatch and registry


def test_unknown_experiment_rejected():
    with pytest.raises(LabError, match="unknown experiment"):
        run_experiment(ExperimentConfig(experiment="nope"))
    with pytest.raises(LabError, match="unknown experiment"):
        experiment_defaults("nope")


def test_unknown_params_rejected():
    with pytest.raises(LabError, match=r"'horizn'.*known: .*horizon"):
        small("good_lambda", horizn=9.0)
    # keys are per experiment: another experiment's knob is unknown here
    with pytest.raises(LabError, match="'orlicz_grid_n'"):
        small("isometry", orlicz_grid_n=8)
    # the knobs the suite and the benchmark pass stay known
    for name, key in (("lenglart", "pairs"), ("moment_constant", "orders"),
                      ("young", "extra_gauges"), ("lenglart", "orlicz_grid_n")):
        assert key in experiment_defaults(name)["params"]


def test_param_values_type_checked():
    with pytest.raises(LabError, match=r"params\.envelope must be a number.*'fifty'"):
        small("orlicz_bdg", envelope="fifty")
    with pytest.raises(LabError, match=r"params\.lambdas must be a list of numbers"):
        small("doob_orlicz", lambdas=["a"])
    with pytest.raises(LabError, match=r"params\.horizon must be a number"):
        small("bdg_scalar", horizon=True)
    # free-form defaults and YAML ints stay accepted
    assert small("lenglart", replicates=200, grid_n=64, pairs="scalar").reports
    assert small("bdg_scalar", replicates=200, grid_n=64, horizon=1).passed


def test_repeated_good_lambda_values_rejected():
    # tail rows are keyed by value: a repeat would pool two passes into one row
    with pytest.raises(LabError, match=r"params\.betas repeats the value 2\.0"):
        small("good_lambda", replicates=300, betas=[2.0, 2.0])
    with pytest.raises(LabError, match=r"params\.deltas repeats the value 0\.1"):
        small("good_lambda", replicates=300, deltas=[0.1, 0.25, 0.1])


def test_registry_and_defaults_cover_each_other():
    assert set(EXPERIMENTS) == {
        "young",
        "moment_constant",
        "isometry",
        "good_lambda",
        "bdg_scalar",
        "doob_orlicz",
        "lenglart",
        "orlicz_bdg",
    }
    for name in EXPERIMENTS:
        defaults = experiment_defaults(name)
        assert {"replicates", "grid_n"} <= set(defaults)


# ---------------------------------------------------------------------------
# analytic experiments


def test_young_experiment_rows():
    res = small("young", replicates=None)
    assert res.passed
    labels = {r.label for r in res.reports}
    assert "young-gap:power_2" in labels
    assert "young-equality:half_square" in labels
    # strict N-functions only: the linear-at-zero lambda_0 must be absent
    assert not any("lambda_0" in label for label in labels)
    for r in res.reports:
        if r.label.startswith("young-gap"):
            assert r.lhs.mean <= 1e-9  # gap never below -1e-9


def test_young_accepts_extra_gauge_config():
    res = small("young", replicates=None, extra_gauges=[{"family": "power", "p": 2.5}])
    assert any(r.label.startswith("young-gap:extra0") for r in res.reports)
    assert res.passed


def test_young_extra_gauges_must_be_a_list_of_gauge_mappings():
    with pytest.raises(LabError, match=r"params\.extra_gauges must be a list"):
        small("young", replicates=None, extra_gauges={"family": "power", "p": 3.0})
    with pytest.raises(LabError, match=r"params\.extra_gauges\[1\] must be a gauge mapping"):
        small("young", replicates=None, extra_gauges=[{"family": "power", "p": 3.0}, 5])


def test_young_reads_grid_n():
    res = small("young", replicates=None, grid_n=64)
    assert res.grid_n == 64
    assert res.reports and all(r.grid_n == 64 for r in res.reports)


def test_unread_sizes_rejected():
    # young and moment_constant draw no replicates; moment_constant has no grid
    with pytest.raises(LabError, match="young: replicates is not used"):
        small("young", replicates=2000)
    with pytest.raises(LabError, match="moment_constant: replicates is not used"):
        small("moment_constant", replicates=2000, grid_n=None)
    with pytest.raises(LabError, match="moment_constant: grid_n is not used"):
        small("moment_constant", replicates=None, grid_n=128)


def test_moment_constant_experiment_feasibility_pattern():
    res = small("moment_constant", replicates=None, grid_n=None)
    # the default beta/delta/p grid is feasible everywhere
    assert res.passed
    by_label = {r.label: r for r in res.reports}
    row = by_label["feasibility:line1:beta2.0:delta0.1:p2.0"]
    assert_allclose(row.extras["constant"], 100.0 / 0.24, rtol=1e-12)
    assert all("constant" in r.extras for r in res.reports)


def test_moment_constant_experiment_flags_infeasible_order():
    # beta=1.5, delta=0.25, line 1: c = 0.25 >= 1.5^-4, so p=4 is infeasible
    res = small("moment_constant", replicates=None, grid_n=None, orders=(4.0,))
    row = {r.label: r for r in res.reports}["feasibility:line1:beta1.5:delta0.25:p4.0"]
    assert "constant" not in row.extras
    assert row.verdict == "fail"
    assert not res.passed


# ---------------------------------------------------------------------------
# Monte Carlo experiments, small replicate counts


def test_isometry_rows_cover_suite():
    res = small("isometry", replicates=3000, grid_n=64)
    assert res.passed
    labels = {r.label for r in res.reports}
    for rule in ("constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix"):
        for stop in ("horizon", "first_exit", "clock_threshold"):
            for tag in ("n", "4n"):
                assert f"isometry-fwd:{rule}:{stop}:atom0@{tag}" in labels
                assert f"isometry-rev:{rule}:{stop}:atom1@{tag}" in labels


def test_isometry_constant_integrand_is_tight():
    res = small("isometry", replicates=2000, grid_n=64)
    for r in res.reports:
        if r.label.startswith("isometry-fwd:constant_e1:horizon:atom0"):
            # I = B_1 and eta = T: the isometry is exact up to MC noise
            assert abs(r.lhs.mean - r.rhs.mean) <= 3.0 * max(r.lhs.stderr, 1e-12)


def test_good_lambda_bounds_column_is_exact():
    res = small("good_lambda", replicates=2000, grid_n=64)
    assert res.passed
    seen = set()
    for r in res.reports:
        if r.label.startswith("good-lambda-line1:beta2.0:delta0.1:"):
            assert r.bound == 0.1**2 / (2.0 - 1.0) ** 2
            seen.add(r.label)
        if r.label.startswith("good-lambda-line2:beta2.0:delta0.1:"):
            assert r.bound == 0.1**2 / (2.0**2 - 1.0)
    assert len(seen) == 16  # 8 lambdas x 2 grids


def test_good_lambda_moment_rows_use_derived_constants():
    res = small("good_lambda", replicates=2000, grid_n=64)
    by_label = {r.label: r for r in res.reports}
    assert_allclose(by_label["moment-p2-fwd@n"].bound, 100.0 / 0.24, rtol=1e-12)
    assert_allclose(by_label["moment-p1-fwd@n"].bound, 10.0 / 0.49, rtol=1e-12)
    assert by_label["moment-p2-rev@4n"].bound == pytest.approx(100.0 / (0.25 - 0.01 / 3.0))


def test_bdg_scalar_ratio_bracket_and_exact_scaling():
    res = small("bdg_scalar", replicates=5000, grid_n=256)
    assert res.passed
    for r in res.reports:
        if r.label.startswith("bdg-upper"):
            assert r.ratio < 4.0 + r.slack
            assert r.extras["scaling_exact"] is True
            assert r.extras["ratio_scaled_2"] == r.ratio
        if r.label.startswith("bdg-lower"):
            assert r.ratio < 1.0 + r.slack  # Q <= sup^2 on average


def test_doob_orlicz_identity_ratio_is_exactly_one():
    res = small("doob_orlicz", replicates=2000, grid_n=64)
    assert res.passed
    rows = [r for r in res.reports if r.label.startswith("conclusion:identity")]
    assert len(rows) == 4  # 2 gauges x 2 grids (lambda_2 included: bound 1)
    for r in rows:
        assert r.ratio == 1.0


def test_doob_orlicz_audit_gates_conclusions():
    res = small("doob_orlicz", replicates=2000, grid_n=64)
    assert res.notes["dominated_pointwise_violations"] == 0
    labels = [r.label for r in res.reports]
    first_conclusion = min(i for i, lab in enumerate(labels) if lab.startswith("conclusion"))
    last_audit = max(i for i, lab in enumerate(labels) if lab.startswith("hypothesis"))
    assert last_audit < first_conclusion  # audits precede conclusions
    assert any(lab.startswith("stability:doob:lambda_2") for lab in labels)


def test_doob_orlicz_doob_bound_is_four():
    res = small("doob_orlicz", replicates=5000, grid_n=64)
    for r in res.reports:
        if r.label.startswith("conclusion:doob:power_2"):
            assert r.bound == 4.0
            assert 1.0 <= r.ratio <= 4.0  # E sup^2 in [E B_T^2, 4 E B_T^2]


def test_lenglart_rejects_uncertified_pair():
    with pytest.raises(LabError, match="uncertified"):
        small("lenglart", pairs="exponential")
    with pytest.raises(LabError, match="certified"):
        small("lenglart", pairs=("scalar", "bogus"))


def test_lenglart_pairs_must_be_a_name_or_a_non_empty_list():
    for pairs in (5, [], ()):
        with pytest.raises(LabError, match=r"params\.pairs must be a certified pair name"):
            small("lenglart", replicates=200, grid_n=64, pairs=pairs)


def test_lenglart_single_pair_selection():
    res = small("lenglart", replicates=1000, grid_n=256, pairs="scalar")
    assert res.passed
    assert all(":orlicz" not in r.label.replace("scalar", "") or "orlicz" not in r.label
               for r in res.reports)
    labels = {r.label for r in res.reports}
    assert "conclusion:scalar:certified" in labels
    assert "scaling-exact:scalar" in labels


def test_lenglart_certified_constant_and_scaling():
    res = small("lenglart", replicates=2000, grid_n=512)
    assert res.passed
    by_label = {r.label: r for r in res.reports}
    assert_allclose(by_label["conclusion:scalar:certified"].bound, 64.0, rtol=1e-3)
    assert_allclose(by_label["conclusion:orlicz:certified"].bound, 1024.0, rtol=1e-3)
    assert by_label["scaling-exact:scalar"].extras["scaling_exact"] is True
    assert by_label["scaling-exact:orlicz"].extras["scaling_exact"] is True
    # the audit equality E (B_tau - B_sigma)^2 = E (tau - sigma) makes the
    # hypothesis rows tight: ratio near 1 for the genuinely stopped window
    row = by_label["hypothesis:orlicz:half-horizon"]
    assert row.ratio == pytest.approx(1.0, abs=0.15)


def test_lenglart_orlicz_pair_runs_every_replicate():
    res = small("lenglart", replicates=40_100, pairs="orlicz", orlicz_grid_n=8)
    row = {r.label: r for r in res.reports}["hypothesis:orlicz:half-horizon"]
    assert row.lhs.n == 40_100


# rows whose slack is the paired stderr of lhs - bound * rhs; all others
# carry the combined stderr of the two sides
PAIRED_ROWS = [
    ("isometry", {}, ["isometry-*"]),
    ("good_lambda", {}, []),
    ("bdg_scalar", {}, ["bdg-*"]),
    ("doob_orlicz", {}, ["hypothesis:*", "conclusion:*"]),
    ("lenglart", {"orlicz_grid_n": 64}, ["tail:scalar:*", "conclusion:scalar:certified",
                                          "hypothesis:orlicz:*", "conclusion:orlicz:doob",
                                          "sweep:orlicz:T*"]),
    ("orlicz_bdg", {}, ["reverse:*:power_2:*", "single-atom-fwd"]),
    # forward rows stay unpaired even when the envelope is 1
    ("orlicz_bdg", {"envelope": 1.0}, ["reverse:*:power_2:*", "reverse:*:lambda_2:*",
                                       "single-atom-fwd"]),
]


@pytest.mark.parametrize("name, params, paired", PAIRED_ROWS)
def test_paired_slack_inventory(name, params, paired):
    res = small(name, replicates=1024, grid_n=64, **params)
    assert not res.notes.get("audit_failed")  # the gated conclusion rows are present
    for r in res.reports:
        assert (r.slack_stderr is not None) == any(fnmatch(r.label, pat) for pat in paired), r.label
    for pat in paired:
        assert any(fnmatch(r.label, pat) for r in res.reports), pat


def test_orlicz_bdg_row_inventory_and_stability():
    res = small("orlicz_bdg", replicates=1024, grid_n=64)
    assert res.passed
    labels = {r.label for r in res.reports}
    for rule in ("sign_of_B1", "two_coord_mix"):
        for gname in ("power_2", "lambda_2"):
            assert f"sweep:{rule}:{gname}" in labels
            assert f"stability:{rule}:{gname}:fine-vs-coarse" in labels
            assert f"stability:{rule}:{gname}:coarse-vs-fine" in labels
            for t in (0.5, 1.0, 2.0):
                for c in (0.5, 1.0, 2.0):
                    assert f"forward:{rule}:{gname}:T{t}:c{c}" in labels
                    assert f"reverse:{rule}:{gname}:T{t}:c{c}" in labels
        assert f"scaling-exact:{rule}" in labels
    assert {"single-atom-fwd", "single-atom-rev",
            "norm-agreement:power_2", "norm-agreement:power_1_5"} <= labels


def test_orlicz_bdg_power_bounds_and_envelope_marking():
    res = small("orlicz_bdg", replicates=1024, grid_n=64)
    for r in res.reports:
        if r.label.startswith("forward:") and ":power_2:" in r.label:
            assert r.bound == 4.0
            assert "bound_kind" not in r.extras
        if r.label.startswith("forward:") and ":lambda_2:" in r.label:
            assert r.extras.get("bound_kind") == "envelope"
        if r.label.startswith("scaling-exact:"):
            assert r.extras["scaling_exact"] is True


def test_orlicz_bdg_norm_agreement_is_tight():
    res = small("orlicz_bdg", replicates=1024, grid_n=64)
    for r in res.reports:
        if r.label.startswith("norm-agreement"):
            assert r.lhs.mean <= 1e-6


def test_degenerate_rows_pass_without_division():
    # rare tail events can leave both sides exactly zero; that is a pass
    from orliczlab.stats import McEstimate, RatioReport

    row = RatioReport("empty", McEstimate.exact(0.0), McEstimate.exact(0.0), 0.5, 64)
    assert row.degenerate and row.passed
    assert np.isnan(row.ratio)


# ---------------------------------------------------------------------------
# batch loop and read-point maxima


def test_max_to_hit_matches_running_max_at_tau_bitwise():
    level = 1.0
    rng = substream(8, "max-to-hit")
    values = np.abs(rng.standard_normal((6, 40)).cumsum(axis=1) * 0.3)
    values[0] = 0.5 * level  # never hits: the row maximum
    values[1, 0] = 2.0 * level  # tau = 0
    values[2, :7] = np.minimum(values[2, :7], 0.5 * level)
    values[2, 7] = level  # exactly at the level: a weak hit
    tau, hit = hitting_index(values, level)
    assert not hit[0] and tau[1] == 0 and tau[2] == 7
    ref = np.maximum.accumulate(values, axis=1)[np.arange(6), tau]
    assert np.array_equal(_max_to_hit(values, tau, hit), ref)


@pytest.mark.parametrize("gname", ["power_2", "lambda_2"])
def test_modular_paths_read_the_running_max_bitwise(gname):
    gauge = get_gauge(gname)
    weights = np.array([1.0, 2.0])
    rng = substream(4, "modular-paths")
    abs_integral = np.abs(rng.standard_normal((5, 17, 2)).cumsum(axis=1))
    eta = np.cumsum(rng.uniform(size=(5, 17, 2)), axis=1)
    read = [4, 8, 16]
    out = _modular_paths(gauge, abs_integral, eta, weights, (0.5, 1.0, 2.0), read)
    for c, (sup, clock) in out.items():
        full = np.maximum.accumulate(modular_of_norms(c * abs_integral, weights, gauge), axis=1)
        if gname == "power_2":
            # the scale c^p is applied to the maximum, not to the path
            mod = modular_of_norms(abs_integral, weights, gauge)
            assert np.array_equal(full, np.maximum.accumulate(c**2 * mod, axis=1))
        for i in read:
            assert np.array_equal(sup[i], full[:, i])
            assert np.array_equal(clock[i], modular_of_norms(c * np.sqrt(eta[:, i]), weights,
                                                             gauge))


def _tile_record(tag, b):
    """A kernel whose outputs record each tile: its tag, size, grid, driver."""
    yield "_tags", (np.array([tag]),)
    yield f"_rows{tag}", (np.array([b.replicates]),)
    yield f"_grid{tag}", (np.array([[b.grid.horizon, b.grid.steps]]),)
    yield f"_increments{tag}", (b.increments,)
    yield f"_paths{tag}", (b.paths,)


@pytest.mark.parametrize("coords", [1, 2])
@pytest.mark.parametrize("factor", [1, 4])
def test_views_match_sequential_batches_bitwise(coords, factor, monkeypatch):
    grid = PathGrid(1.0, 32)
    monkeypatch.setattr(lab, "_TILE_BYTES", 3 * coords * 32 * 8)  # 3 rows a tile
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the draw and kernel threads often
    try:
        # batches 10, 10, 3; tiles 3, 3, 4 (the 1-row remainder folded), 3
        kept = _execute(6, "views", coords, PathGrid(1.0, 32 // factor), 23, 10, _tile_record,
                        factor).kept
    finally:
        sys.setswitchinterval(interval)
    ref = []
    for index, size in enumerate((10, 10, 3)):
        b = simulate_batch(draw_normals(6, ("views", "batch", index), coords, 32, size), grid)
        ref += [("n", b)] if factor == 1 else [("4n", b), ("n", b.coarsened(4))]
    tags = ["n"] if factor == 1 else ["4n", "n"]
    assert list(kept["_tags"]) == tags * 7
    assert list(kept[f"_rows{tags[0]}"]) == [3, 3, 4, 3, 3, 4, 3]
    for tag in tags:
        want = [r for t, r in ref if t == tag]
        assert (kept[f"_grid{tag}"] == [want[0].grid.horizon, want[0].grid.steps]).all()
        assert kept[f"_rows{tag}"].sum() == sum(r.replicates for r in want)
        for attr in ("increments", "paths"):
            assert np.array_equal(kept[f"_{attr}{tag}"],
                                  np.concatenate([getattr(r, attr) for r in want]))


def _extra_threads_joined(baseline, timeout=5.0) -> int:
    """Join the threads started since ``baseline``; the count still alive."""
    started = set(threading.enumerate()) - baseline
    for t in started:
        t.join(timeout)
    assert not any(t.is_alive() for t in started)
    return threading.active_count() - len(baseline)


def _stop(tag, b):
    raise RuntimeError("consumer")


def test_views_leave_no_thread_behind():
    grid = PathGrid(1.0, 16)
    baseline = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="consumer"):
        _execute(1, "threads", 1, grid, 50, 10, _stop)  # stops while the next draw is in flight
    assert _extra_threads_joined(baseline) == 0
    with pytest.raises(RuntimeError, match="consumer"):
        _execute(1, "threads", 2, PathGrid(1.0, 4), 50, 10, _stop, 4)
    assert _extra_threads_joined(baseline) == 0
    tiles = []
    _execute(1, "threads", 1, grid, 50, 10, lambda tag, b: tiles.append(b) or [])
    assert len(tiles) == 5
    assert _extra_threads_joined(baseline) == 0


def test_views_raise_a_draw_error(monkeypatch):
    def failing(seed, stream, *args):
        if stream[-1] == 2:
            raise FloatingPointError("draw failed")
        return draw_tiles(seed, stream, *args)

    monkeypatch.setattr(lab, "draw_tiles", failing)
    baseline = set(threading.enumerate())
    seen = []
    with pytest.raises(FloatingPointError, match="draw failed"):
        _execute(1, "threads", 1, PathGrid(1.0, 16), 50, 10,
                 lambda tag, b: seen.append(b.replicates) or [])
    assert seen == [10, 10]  # batches 0 and 1, then the error of batch 2
    assert _extra_threads_joined(baseline) == 0


def _adds(monkeypatch):
    """Record every tally add as (key, lhs, rhs, bounds)."""
    adds = []
    add = lab._Tally.add

    def record(self, key, lhs, rhs, *bounds):
        adds.append((key, np.array(lhs), np.array(rhs), bounds))
        add(self, key, lhs, rhs, *bounds)

    monkeypatch.setattr(lab._Tally, "add", record)
    return adds


@pytest.mark.parametrize("threads", [2, 4])
def test_tiles_finishing_out_of_order_tally_in_tile_order(monkeypatch, threads):
    """Even tiles sleep, so odd ones finish first; the adds stay sequential."""
    monkeypatch.setattr(lab, "_TILE_BYTES", 3 * 16 * 8)  # 3 rows a tile, 7 tiles
    grid = PathGrid(1.0, 16)
    starts = [t[0, 0, 0] * np.sqrt(grid.dt) for i, size in enumerate((10, 10, 3))
              for t in draw_tiles(5, ("order", "batch", i), 1, 16, lab._tile_rows(size, 16 * 8))]
    done = []

    def kernel(tag, b):
        tile = starts.index(b.increments[0, 0, 0])  # simulate_batch scales by the same factor
        if threads > 1 and tile % 2 == 0:
            time.sleep(0.2)
        done.append(tile)
        yield ("sup", tag), (np.abs(b.paths[:, 0, :]).max(axis=1), b.paths[:, 0, -1] ** 2, 1.0)
        yield "end", (b.paths[:, 0, -1], np.full(b.replicates, tile), 4.0)

    runs, adds = {}, _adds(monkeypatch)
    for n in (1, threads):
        monkeypatch.setattr(lab, "_KERNEL_THREADS", n)
        adds.clear()
        done.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _execute(5, "order", 1, grid, 23, 10, kernel)
        finally:
            sys.setswitchinterval(interval)
        runs[n] = list(adds), list(done)
    (seq, seq_done), (par, par_done) = runs[1], runs[threads]
    assert seq_done == list(range(7)) and sorted(par_done) == seq_done
    assert par_done.index(1) < par_done.index(0)  # a later tile finished first
    assert [key for key, *_ in par] == [key for key, *_ in seq] == [("sup", "n"), "end"] * 3
    for (key, lhs, rhs, bounds), (_, lhs_s, rhs_s, bounds_s) in zip(par, seq):
        assert np.array_equal(lhs, lhs_s) and np.array_equal(rhs, rhs_s), key
        assert bounds == bounds_s
    assert list(seq[-1][2]) == [6, 6, 6]  # the last batch is the last tile


def test_orlicz_bdg_sample_is_the_first_replicates_when_a_later_tile_finishes_first(monkeypatch):
    """The norm-agreement rows read the first 32 replicates of batch 0, in
    tile order, although the first tile's job finishes after later ones."""
    monkeypatch.setattr(lab, "_TILE_BYTES", 8 * 2 * 64 * 8)  # 8 rows a tile
    drawn, begun = [], []

    def draws(seed, stream, *args):
        for tile in draw_tiles(seed, stream, *args):
            drawn.append(tile)
            yield tile

    def slow_first(normals, grid):
        if normals is drawn[0] and lab._KERNEL_THREADS > 1:
            time.sleep(0.5)
        begun.append(next(i for i, t in enumerate(drawn) if t is normals))
        return simulate_batch(normals, grid)

    samples = []

    def lux(sample, weights, gauge):
        samples.append(sample)
        return luxemburg_of_norms(sample, weights, gauge)

    monkeypatch.setattr(lab, "draw_tiles", draws)
    monkeypatch.setattr(lab, "simulate_batch", slow_first)
    monkeypatch.setattr(lab, "luxemburg_of_norms", lux)
    for threads in (1, 2):
        monkeypatch.setattr(lab, "_KERNEL_THREADS", threads)
        drawn.clear()
        begun.clear()
        res = small("orlicz_bdg", replicates=100, grid_n=16)
        assert all(r.passed for r in res.reports if r.label.startswith("norm-agreement"))
    assert begun.index(1) < begun.index(0)  # with two threads, tile 1 began its kernel first
    seq, par = samples[0], samples[2]
    assert seq.shape == (32, 4) and np.array_equal(par, seq)


def test_tile_rows_fold_a_one_row_remainder(monkeypatch):
    monkeypatch.setattr(lab, "_TILE_BYTES", 6 * 100)
    assert lab._tile_rows(13, 100) == [6, 7]
    assert lab._tile_rows(14, 100) == [6, 6, 2]
    assert lab._tile_rows(1, 100) == [1]  # a 1-row batch is a whole batch
    assert lab._tile_rows(5, 10_000) == [2, 3]  # at least 2 rows a tile


# Every Monte Carlo experiment on ragged tiles of 6 rows (12 for the
# scalar Lenglart pair, whose one batch is not a multiple of 12): each last
# batch of 7 rows leaves a 1-row remainder, at 4 atoms for lenglart's
# Orlicz pair and orlicz_bdg, and the first orlicz_bdg tile holds fewer
# than the 32 norm-agreement replicates.
TILED = [
    # experiment, replicates, grid_n, params, bytes of normals per row
    ("isometry", 2048 + 7, 16, {}, 2 * 64 * 8),
    ("good_lambda", 2048 + 7, 8, {}, 32 * 8),
    ("bdg_scalar", 2048 + 7, 16, {}, 16 * 8),
    ("doob_orlicz", 2048 + 7, 8, {}, 32 * 8),
    ("lenglart", 512 + 7, 16, {"orlicz_grid_n": 16}, 2 * 16 * 8),
    ("orlicz_bdg", 512 + 7, 16, {}, 2 * 64 * 8),
]


def _tallied(monkeypatch, name, replicates, grid_n, params):
    """The experiment's reports, and every tally add as (key, lhs, rhs, bounds)."""
    with monkeypatch.context() as patch:
        adds = _adds(patch)
        res = small(name, replicates=replicates, grid_n=grid_n, **params)
    return [repr(r) for r in res.reports], adds


@pytest.mark.parametrize("name, replicates, grid_n, params, row_bytes", TILED)
def test_tiles_match_whole_batches_bitwise(monkeypatch, name, replicates, grid_n, params,
                                           row_bytes):
    monkeypatch.setattr(lab, "_TILE_BYTES", 1 << 40)  # one tile per batch
    whole_reports, whole = _tallied(monkeypatch, name, replicates, grid_n, params)
    monkeypatch.setattr(lab, "_TILE_BYTES", 6 * row_bytes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tiled_reports, tiled = _tallied(monkeypatch, name, replicates, grid_n, params)
    finally:
        sys.setswitchinterval(interval)
    assert [key for key, *_ in tiled] == [key for key, *_ in whole]
    for (key, lhs, rhs, bounds), (_, lhs_w, rhs_w, bounds_w) in zip(tiled, whole):
        assert lhs.dtype == lhs_w.dtype and np.array_equal(lhs, lhs_w), key
        assert rhs.dtype == rhs_w.dtype and np.array_equal(rhs, rhs_w), key
        assert bounds == bounds_w, key
    assert tiled_reports == whole_reports


def test_scaling_rows_fail_on_a_non_homogeneous_kernel(monkeypatch):
    """The scaled sides are computed from a second kernel run on 2x (and
    0.5x) inputs, so a kernel that is not homogeneous breaks them."""
    from orliczlab.paths import quadratic_variation, running_abs_max

    res = small("lenglart", replicates=1000, grid_n=256, pairs="scalar")
    assert {r.label: r for r in res.reports}["scaling-exact:scalar"].passed
    monkeypatch.setattr(lab, "running_abs_max", lambda v, read: running_abs_max(v, read) + 1e-3)
    res = small("lenglart", replicates=1000, grid_n=256, pairs="scalar")
    row = {r.label: r for r in res.reports}["scaling-exact:scalar"]
    assert not row.passed and row.extras["scaling_exact"] is False
    monkeypatch.setattr(lab, "quadratic_variation", lambda inc: quadratic_variation(inc) + 1e-3)
    res = small("bdg_scalar", replicates=1000, grid_n=256)
    upper = {r.label: r for r in res.reports}["bdg-upper:bm"]
    assert upper.extras["scaling_exact"] is False
    assert upper.extras["ratio_scaled_2"] != upper.ratio
