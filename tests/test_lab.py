"""Tests for the experiment lab: constants, quasi-metrics, experiment runs."""

import numbers
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orliczlab import lab
from orliczlab._rng import substream
from orliczlab.config import ExperimentConfig
from orliczlab.gauges import get_gauge, phi_of
from orliczlab.lab import (
    EXPERIMENTS,
    LabError,
    _max_to_hit,
    _execute,
    derive_moment_constant,
    good_lambda_bound,
    lenglart_constant,
    run_experiment,
)
from orliczlab.paths import PathGrid, draw_normals, draw_tiles, hitting_index, simulate_batch
from orliczlab.spaces import DiscreteMeasureSpace, luxemburg_of_norms, modular_of_norms
from orliczlab.stats import paired_stderr


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
    # the Lenglart Orlicz pair's rho1(x, y) = modular of |x - y|, with
    # triangle constant gamma1 = phi(2)
    space = DiscreteMeasureSpace([1.0, 2.0, 0.5])
    rng = substream(11, "quasimetric")
    x, y, z = rng.normal(scale=2.0, size=(3, 1000, space.n_atoms))
    for name in ("power_2", "lambda_2"):
        gauge = get_gauge(name)
        gamma = phi_of(gauge, 2.0)
        rho = lambda a, b: modular_of_norms(np.abs(a - b), space.weights, gauge)
        dxy = rho(x, y)
        assert np.array_equal(dxy, rho(y, x))  # symmetry, exact
        assert np.all(rho(x, x) == 0.0)        # identity, exact
        assert np.all(dxy >= 0.0)
        assert np.all(dxy <= gamma * (rho(x, z) + rho(z, y)) + 1e-9)


def test_quasimetric_gamma_values():
    # the modular difference of t^2 has triangle constant gamma1 = phi(2) = 4;
    # with the clock's gamma2 = 2 it certifies the Orlicz pair at 1024
    gamma1 = phi_of(get_gauge("power_2"), 2.0)
    assert gamma1 == 4.0
    assert_allclose(lenglart_constant(1.0, 2.0 * 2.0, gamma1, 1.0), 1024.0, rtol=1e-3)


# ---------------------------------------------------------------------------
# experiment dispatch and registry


def test_unknown_experiment_rejected():
    with pytest.raises(LabError, match="unknown experiment"):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_unknown_params_rejected():
    with pytest.raises(LabError, match=r"'horizn'.*known: .*horizon"):
        small("good_lambda", horizn=9.0)
    # keys are per experiment: another experiment's knob is unknown here
    with pytest.raises(LabError, match="'orlicz_grid_n'"):
        small("isometry", orlicz_grid_n=8)
    # the knobs the suite and the benchmark pass stay known
    for name, key in (("lenglart", "pairs"), ("moment_constant", "orders"),
                      ("young", "extra_gauges"), ("lenglart", "orlicz_grid_n")):
        assert key in EXPERIMENTS[name].params


def test_verdict_bounds_are_not_params():
    # the lambda_2 envelope and the sweep spread factor are module constants
    with pytest.raises(LabError, match="unknown params 'envelope'"):
        small("orlicz_bdg", envelope=1e9)
    for name in ("lenglart", "orlicz_bdg"):
        with pytest.raises(LabError, match="unknown params 'stability_factor'"):
            small(name, stability_factor=1e9)


def test_param_values_type_checked():
    with pytest.raises(LabError, match=r"params\.exit_level must be a number.*'fifty'"):
        small("isometry", exit_level="fifty")
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


def test_experiment_defaults_are_immutable():
    # the table is built once and shared by every run, so no run may change a default
    for exp in EXPERIMENTS.values():
        with pytest.raises(TypeError):
            exp.params["horizon"] = 0.0
        for value in exp.params.values():
            assert isinstance(value, (numbers.Real, str, tuple)), value


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


def test_lenglart_refuses_grid_n_without_the_scalar_pair():
    # grid_n sizes the scalar pair only; the orlicz pair runs on orlicz_grid_n
    with pytest.raises(LabError, match=r"lenglart: grid_n is read by the scalar pair only"):
        small("lenglart", grid_n=32, pairs="orlicz", orlicz_grid_n=64)


def test_lenglart_refuses_orlicz_grid_n_without_the_orlicz_pair():
    with pytest.raises(LabError,
                       match=r"lenglart: params\.orlicz_grid_n is read by the orlicz pair only"):
        small("lenglart", pairs="scalar", orlicz_grid_n=999999)


def test_lenglart_orlicz_pair_runs_every_replicate():
    res = small("lenglart", replicates=40_100, grid_n=None, pairs="orlicz", orlicz_grid_n=8)
    row = {r.label: r for r in res.reports}["hypothesis:orlicz:half-horizon"]
    assert row.lhs.n == 40_100


# the Monte Carlo experiments, with the sizes their gated rows need
MONTE_CARLO = [("isometry", {}), ("good_lambda", {}), ("bdg_scalar", {}), ("doob_orlicz", {}),
               ("lenglart", {"orlicz_grid_n": 64}), ("orlicz_bdg", {})]


@pytest.mark.parametrize("name, params", MONTE_CARLO, ids=[name for name, _ in MONTE_CARLO])
def test_every_monte_carlo_row_takes_the_paired_slack(monkeypatch, name, params):
    """A row with a sampled side is a tally row, and its slack is the
    ``paired_stderr`` of its key at its bound and direction, which is the
    stderr of lhs - bound * rhs over the key's samples; every other row is
    exact and has slack 0."""
    rows, samples = {}, {}  # label -> (tally, key, reverse); (tally, key) -> sides added
    row, add = lab._Tally.row, lab._Tally.add

    def record_row(self, label, key, bound, grid_n, extras=None, reverse=False):
        rows[label] = (self, key, reverse)
        return row(self, label, key, bound, grid_n, extras, reverse)

    def record_add(self, key, lhs, rhs):
        if np.ndim(lhs) == 1:  # a row group's columns come back as 1-d adds
            samples.setdefault((self, key), []).append((np.array(lhs, float), np.array(rhs, float)))
        add(self, key, lhs, rhs)

    monkeypatch.setattr(lab._Tally, "row", record_row)
    monkeypatch.setattr(lab._Tally, "add", record_add)
    res = small(name, replicates=1024, grid_n=64, **params)
    assert not res.notes.get("audit_failed")  # the gated conclusion rows are present
    assert rows
    for r in res.reports:
        if r.label not in rows:
            assert r.lhs.stderr == r.rhs.stderr == r.slack_stderr == 0.0, r.label
            continue
        tally, key, reverse = rows[r.label]
        lhs, rhs = tally._sides[key]
        if reverse:
            lhs, rhs = rhs, lhs
        assert r.slack_stderr == paired_stderr(lhs, rhs, tally._cross[key], r.bound), r.label
        left, right = (np.concatenate(side) for side in zip(*samples[tally, key]))
        if reverse:
            left, right = right, left
        diff = left - r.bound * right
        direct = np.std(diff, ddof=1) / np.sqrt(diff.size)
        # a constant difference reads a rounding error directly and 0 paired
        scale = np.hypot(r.lhs.stderr, r.bound * r.rhs.stderr) + np.abs(diff).max() / diff.size
        assert abs(r.slack_stderr - direct) <= 1e-9 * scale, r.label


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


def test_orlicz_bdg_case_added_through_the_table_alone(monkeypatch):
    # LLP's constant C = (4 - p)/(2 - p) at p = 1.5, both ways: one table
    # entry gains its rows, and every other row keeps its bits
    base = small("orlicz_bdg", replicates=1024, grid_n=64).reports
    case = lab._BdgCase("sign_of_B1", "power_1_5", 5.0, 5.0)
    monkeypatch.setattr(lab, "_BDG_CASES", (*lab._BDG_CASES, case))
    rows = small("orlicz_bdg", replicates=1024, grid_n=64).reports
    added = [r for r in rows if ":power_1_5" in r.label and not r.label.startswith("norm-")]
    assert [r for r in rows if r not in added] == base
    grid = [f"sign_of_B1:power_1_5:T{t}:c{c}" for t in (0.5, 1.0, 2.0) for c in (0.5, 1.0, 2.0)]
    assert [r.label for r in added] == [
        *(f"{d}:{label}" for label in grid for d in ("forward", "reverse")),
        "sweep:sign_of_B1:power_1_5", "stability:sign_of_B1:power_1_5:fine-vs-coarse",
        "stability:sign_of_B1:power_1_5:coarse-vs-fine"]
    assert all(r.passed for r in added)
    # the table gives the bounds only; the tally pairs every row at them
    assert all(r.bound == 5.0 and r.slack_stderr > 0.0 for r in added[:18])


def test_orlicz_bdg_case_gauge_outside_a2_is_refused(monkeypatch):
    # every case's gauge is gated by its own class report, not lambda_2's alone
    case = lab._BdgCase("sign_of_B1", "exp_minus_one", 5.0, 5.0)
    monkeypatch.setattr(lab, "_BDG_CASES", (*lab._BDG_CASES, case))
    with pytest.raises(LabError, match="exp_minus_one fails the operational A2 probe"):
        small("orlicz_bdg", replicates=1024, grid_n=64)


def test_degenerate_rows_pass_without_division():
    # rare tail events can leave both sides exactly zero; slack 0, so 0 <= 0 passes
    from orliczlab.stats import McEstimate, RatioReport

    row = RatioReport("empty", McEstimate.exact(0.0), McEstimate.exact(0.0), 0.5, 64)
    assert row.passed and row.slack == 0.0
    assert np.isnan(row.ratio)
    tally = lab._Tally({})
    tally.add("tail", np.zeros(50, dtype=bool), np.zeros(50, dtype=bool))
    for reverse in (False, True):
        row = tally.row("tail", "tail", 0.5, 64, reverse=reverse)
        assert row.slack_stderr == 0.0 and row.passed
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


def _tile_record(tag, b):
    """A kernel whose outputs record each tile: its tag, size, grid, driver."""
    yield "_tags", (np.array([tag]),)
    yield f"_rows{tag}", (np.array([b.replicates]),)
    yield f"_grid{tag}", (np.array([[b.grid.horizon, b.grid.steps]]),)
    yield f"_increments{tag}", (b.increments,)
    yield f"_paths{tag}", (b.paths,)


# draw blocks per batch of tiles 3, 3, 4, at each count of kernel tiles a draw holds
BLOCKS = {1: [[3, 3, 4], [3, 3, 4], [3]], 2: [[6, 4], [6, 4], [3]], 4: [[10], [10], [3]]}


@pytest.mark.parametrize("coords", [1, 2])
@pytest.mark.parametrize("factor", [1, 4])
def test_views_match_sequential_batches_bitwise(coords, factor, monkeypatch):
    grid = PathGrid(1.0, 32)
    ref = []
    for index, size in enumerate((10, 10, 3)):
        b = simulate_batch(draw_normals(6, ("views", "batch", index), coords, 32, size), grid)
        ref += [("n", b)] if factor == 1 else [("4n", b), ("n", b.coarsened(4))]
    tags = ["n"] if factor == 1 else ["4n", "n"]
    monkeypatch.setattr(lab, "_TILE_BYTES", 3 * coords * 32 * 8)  # 3 rows a tile
    blocks = []

    def draws(*args):  # the rows of each block a batch's draw fills
        blocks.append(list(args[-1]))
        return draw_tiles(*args)

    monkeypatch.setattr(lab, "draw_tiles", draws)
    for tiles_per_block, want_blocks in BLOCKS.items():
        monkeypatch.setattr(lab, "_DRAW_TILES", tiles_per_block)
        blocks.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the draw and kernel threads often
        try:
            # batches 10, 10, 3; tiles 3, 3, 4 (the 1-row remainder folded), 3; a
            # draw block holds up to tiles_per_block of them as row slices
            kept = _execute(6, "views", coords, PathGrid(1.0, 32 // factor), 23, 10,
                            _tile_record, factor).kept
        finally:
            sys.setswitchinterval(interval)
        assert blocks == want_blocks, tiles_per_block
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
    """Record every tally add as (key, lhs, rhs)."""
    adds = []
    add = lab._Tally.add

    def record(self, key, lhs, rhs):
        adds.append((key, np.array(lhs), np.array(rhs)))
        add(self, key, lhs, rhs)

    monkeypatch.setattr(lab._Tally, "add", record)
    return adds


@pytest.mark.parametrize("threads", [2, 4])
def test_tiles_finishing_out_of_order_tally_in_tile_order(monkeypatch, threads):
    """Even tiles sleep, so odd ones finish first; the adds stay sequential."""
    monkeypatch.setattr(lab, "_TILE_BYTES", 3 * 16 * 8)  # 3 rows a tile, 7 tiles
    grid = PathGrid(1.0, 16)
    starts = [t[0, 0, 0] * np.sqrt(grid.dt) for i, size in enumerate((10, 10, 3))
              for t in draw_tiles(5, ("order", "batch", i), 1, 16, lab._tile_rows(size, 16 * 8))]
    done, blocks = [], []

    def draws(*args):  # the rows of each block a batch's draw fills
        blocks.append(list(args[-1]))
        return draw_tiles(*args)

    monkeypatch.setattr(lab, "draw_tiles", draws)

    def kernel(tag, b):
        tile = starts.index(b.increments[0, 0, 0])  # simulate_batch scales by the same factor
        if threads > 1 and tile % 2 == 0:
            time.sleep(0.2)
        done.append(tile)
        yield ("sup", tag), (np.abs(b.paths[:, 0, :]).max(axis=1), b.paths[:, 0, -1] ** 2)
        yield "end", (b.paths[:, 0, -1], np.full(b.replicates, tile))

    runs, adds = {}, _adds(monkeypatch)
    for n in (1, threads):
        monkeypatch.setattr(lab, "_KERNEL_THREADS", n)
        adds.clear()
        done.clear()
        blocks.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _execute(5, "order", 1, grid, 23, 10, kernel)
        finally:
            sys.setswitchinterval(interval)
        runs[n] = list(adds), list(done)
    (seq, seq_done), (par, par_done) = runs[1], runs[threads]
    assert blocks == [[10], [10], [3]]  # tiles 0-2 and 3-5 are row slices of one draw each
    assert seq_done == list(range(7)) and sorted(par_done) == seq_done
    assert par_done.index(1) < par_done.index(0)  # a later tile finished first
    assert [key for key, *_ in par] == [key for key, *_ in seq] == [("sup", "n"), "end"] * 3
    for (key, lhs, rhs), (_, lhs_s, rhs_s) in zip(par, seq):
        assert np.array_equal(lhs, lhs_s) and np.array_equal(rhs, rhs_s), key
    assert list(seq[-1][2]) == [6, 6, 6]  # the last batch is the last tile


def test_orlicz_bdg_sample_is_the_first_replicates_when_a_later_tile_finishes_first(monkeypatch):
    """The norm-agreement rows read the first 32 replicates of batch 0, in
    tile order, although the first tile's job finishes after later ones."""
    monkeypatch.setattr(lab, "_TILE_BYTES", 8 * 2 * 64 * 8)  # 8 rows a tile, 32 a block
    drawn, begun = [], []

    def draws(seed, stream, *args):
        for block in draw_tiles(seed, stream, *args):
            drawn.append(block)
            yield block

    def tile_of(normals):
        """(draw block, first row) of a kernel tile, a row slice of its block."""
        block = next(i for i, t in enumerate(drawn) if normals.base is t)
        return block, (normals.ctypes.data - drawn[block].ctypes.data) // normals.strides[1]

    def slow_first(normals, grid):
        if tile_of(normals) == (0, 0) and lab._KERNEL_THREADS > 1:
            time.sleep(0.5)
        begun.append(tile_of(normals))
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
    # with two threads, tile 1 (rows 8-15 of the first block) began its kernel first
    assert begun.index((0, 8)) < begun.index((0, 0))
    seq, par = samples[0], samples[2]
    assert seq.shape == (32, 4) and np.array_equal(par, seq)


def test_tile_rows_fold_a_one_row_remainder(monkeypatch):
    monkeypatch.setattr(lab, "_TILE_BYTES", 6 * 100)
    assert lab._tile_rows(13, 100) == [6, 7]
    assert lab._tile_rows(14, 100) == [6, 6, 2]
    assert lab._tile_rows(1, 100) == [1]  # a 1-row batch is a whole batch
    assert lab._tile_rows(5, 10_000) == [2, 3]  # at least 2 rows a tile


def test_tally_row_group_adds_each_column_as_a_key():
    """One (rows, K) add tallies as K contiguous column adds, bit for bit."""
    rng = substream(9, "row-group")
    lhs = rng.standard_normal((37, 5))
    rhs = rng.standard_normal((37, 5)) > 0.3  # a boolean side, as the tail lines yield
    edge = rng.standard_normal(37)
    group, columns = lab._Tally({}), lab._Tally({})
    for tally in (group, columns):
        tally.add("first", edge, edge * edge)
    group.add(("tail", "n"), lhs, rhs)
    for k in range(5):
        columns.add(("tail", "n", k), np.ascontiguousarray(lhs[:, k]),
                    np.ascontiguousarray(rhs[:, k]))
    for tally in (group, columns):
        tally.add("last", edge, edge * edge)
    keys = ["first", *(("tail", "n", k) for k in range(5)), "last"]
    assert list(group.keys()) == list(columns.keys()) == keys

    def moments(tally):  # every accumulator and product sum, in insertion order
        state = lambda m: (m.count, m.total, m.total_sq)
        return ([(key, [state(m) for m in acc]) for key, acc in tally._sides.items()],
                list(tally._cross.items()))

    assert moments(group) == moments(columns)
    assert list(group._cross) == keys


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
    """The experiment's reports, and every tally add as (key, lhs, rhs)."""
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
    for (key, lhs, rhs), (_, lhs_w, rhs_w) in zip(tiled, whole):
        assert lhs.dtype == lhs_w.dtype and np.array_equal(lhs, lhs_w), key
        assert rhs.dtype == rhs_w.dtype and np.array_equal(rhs, rhs_w), key
    assert tiled_reports == whole_reports


def test_scaling_rows_fail_on_a_non_homogeneous_kernel(monkeypatch):
    """The scaled sides are computed from a second kernel run on 2x (and
    0.5x) inputs, so a kernel that is not homogeneous breaks them."""
    from orliczlab.paths import quadratic_variation, running_abs_max

    runs = [
        ("lenglart", dict(grid_n=256, pairs="scalar"), ["scalar"]),
        ("lenglart", dict(grid_n=None, pairs="orlicz", orlicz_grid_n=256), ["orlicz"]),
        ("orlicz_bdg", dict(grid_n=64), ["sign_of_B1", "two_coord_mix"]),
    ]
    for name, sizes, suffixes in runs:
        res = small(name, replicates=1000, **sizes)
        for suffix in suffixes:
            assert {r.label: r for r in res.reports}[f"scaling-exact:{suffix}"].passed
        with monkeypatch.context() as m:
            m.setattr(lab, "running_abs_max", lambda v, read: running_abs_max(v, read) + 1e-3)
            res = small(name, replicates=1000, **sizes)
        for suffix in suffixes:
            row = {r.label: r for r in res.reports}[f"scaling-exact:{suffix}"]
            assert not row.passed and row.extras["scaling_exact"] is False, row.label
    monkeypatch.setattr(lab, "quadratic_variation", lambda inc: quadratic_variation(inc) + 1e-3)
    res = small("bdg_scalar", replicates=1000, grid_n=256)
    upper = {r.label: r for r in res.reports}["bdg-upper:bm"]
    assert upper.extras["scaling_exact"] is False
    assert upper.extras["ratio_scaled_2"] != upper.ratio
