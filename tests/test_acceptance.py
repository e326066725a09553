"""Acceptance gate: end-to-end checks of the library's verification claims.

Each test covers one headline guarantee, prints a single pass/fail line,
and pins its tolerances explicitly.  Monte Carlo sizes match the defaults
used by the full verification run.
"""

import filecmp
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from orliczlab import gauges as G
from orliczlab._rng import substream
from orliczlab.cli import main as cli_main
from orliczlab.config import ExperimentConfig
from orliczlab.integrate import ProcessSpec, coarsen_samples
from orliczlab.lab import run_experiment
from orliczlab.paths import PathGrid, draw_normals, simulate_batch
from orliczlab.spaces import DiscreteMeasureSpace, luxemburg_of_norms

pytestmark = pytest.mark.slow

_CAPTURE = None


@pytest.fixture(autouse=True)
def _gate_output(capfd):
    # let _verdict suspend capture so each gate line reaches the real log
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(name: str, failures: list) -> None:
    ok = not failures
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, f"{name}: " + "; ".join(str(f) for f in failures)


def _run(name, replicates, grid_n, **params):
    cfg = ExperimentConfig(
        experiment=name, replicates=replicates, grid_n=grid_n, params=params
    )
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# shared heavy runs (defaults-scale, executed once)


@pytest.fixture(scope="module")
def isometry_full():
    return _run("isometry", 100_000, 256)


@pytest.fixture(scope="module")
def good_lambda_full():
    t0 = time.monotonic()
    res = _run("good_lambda", 100_000, 2048)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def bdg_scalar_full():
    return _run("bdg_scalar", 100_000, 1024)


@pytest.fixture(scope="module")
def doob_orlicz_full():
    return _run("doob_orlicz", 100_000, 1024)


@pytest.fixture(scope="module")
def orlicz_bdg_full():
    return _run("orlicz_bdg", 20_000, 512)


# ---------------------------------------------------------------------------


def test_power_gauge_oracle_suite():
    """Numeric transforms of power gauges match their closed forms."""
    t0 = time.monotonic()
    failures = []
    s_grid = (0.25, 0.5, 2.0, 5.0)
    t_grid = (0.2, 0.7, 1.5, 4.0)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        plain = G.make_gauge("power", p=p)
        normalized = G.make_gauge("power", p=p, coeff=1.0 / p)
        for s in s_grid:
            num = G.phi_of(plain, s, use_closed=False)
            if abs(num - s**p) > 1e-4 * s**p:
                failures.append(f"phi p={p} s={s}: {num} vs {s**p}")
        for t in t_grid:
            psi = G.psi_of(plain, t)
            if abs(psi - t ** (1.0 / p)) > 1e-4 * t ** (1.0 / p):
                failures.append(f"psi p={p} t={t}: {psi}")
            var = G.varphi_of(plain, t)
            if abs(var - t ** (1.0 / p)) > 1e-4 * t ** (1.0 / p):
                failures.append(f"varphi p={p} t={t}: {var}")
        stripped = G.GrowthFunction(
            family=normalized.family, params=normalized.params, label=normalized.label,
            _eval=normalized._eval, _deriv=normalized._deriv,
            _phi_closed=normalized._phi_closed, _complement=None,
        )
        comp = G.complementary_gauge(stripped)
        for t in t_grid:
            want = t**q / q
            if abs(float(comp(t)) - want) > 1e-4 * want:
                failures.append(f"complement p={p} t={t}: {float(comp(t))} vs {want}")
        kappa = G.kappa_probe(plain)
        if kappa is None or abs(kappa - 1.0 / (p - 1.0)) > 1e-4 / (p - 1.0):
            failures.append(f"kappa p={p}: {kappa}")
        space = DiscreteMeasureSpace([1.0, 2.0, 0.5])
        rng = substream(5, "acceptance-lux", p)
        for _ in range(3):
            norms = np.linalg.norm(rng.normal(size=(3, 2)), axis=1)
            closed = float(np.sum(space.weights * norms**p) ** (1.0 / p))
            num = float(luxemburg_of_norms(norms[None, :], space.weights, plain)[0])
            if abs(num - closed) > 1e-4 * closed:
                failures.append(f"luxemburg p={p}: {num} vs {closed}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict("power-gauge-oracle-suite", failures)


def test_young_gap_nonnegative_and_tight():
    """Young's inequality gap on a 32x32 grid, equality along the derivative."""
    failures = []
    s_grid = np.geomspace(0.05, 20.0, 32)
    t_grid = np.geomspace(0.05, 20.0, 32)
    for name, gauge in G.registry_gauges().items():
        if not G.classify_gauge(gauge).is_N_function:
            continue
        comp = G.complementary_gauge(gauge)
        gaps = G.young_gap(gauge, comp, s_grid[:, None], t_grid[None, :])
        if float(gaps.min()) < -1e-9:
            failures.append(f"{name}: min gap {gaps.min():.3g} < -1e-9")
    half = G.make_gauge("power", p=2.0, coeff=0.5)
    comp = G.complementary_gauge(half)
    eq = G.young_gap(half, comp, s_grid, half.derivative(s_grid))
    if float(np.abs(eq).max()) > 1e-6:
        failures.append(f"t^2/2 equality residue {np.abs(eq).max():.3g} > 1e-6")
    _verdict("young-gap-grid", failures)


def test_driver_engine_moments():
    """Brownian engine at n=4096: mean, variance, quadratic variation, max."""
    t0 = time.monotonic()
    grid = PathGrid(1.0, 4096)
    total = 100_000
    from orliczlab.stats import RunningMoments

    m_bt, m_bt2, m_qv, m_max = (RunningMoments() for _ in range(4))
    done = 0
    index = 0
    while done < total:
        size = min(2048, total - done)
        b = simulate_batch(draw_normals(20260825, ("engine", index), 1, grid.steps, size), grid)
        path = b.paths[:, 0, :]
        m_bt.add(path[:, -1])
        m_bt2.add(path[:, -1] ** 2)
        m_qv.add(np.sum(b.increments[:, 0, :] ** 2, axis=1))
        m_max.add(path.max(axis=1))
        done += size
        index += 1
    failures = []
    est = m_bt.estimate()
    if abs(est.mean) > 3.0 * est.stderr:
        failures.append(f"mean(B_1) = {est.mean:.5f} beyond 3 stderr")
    est = m_bt2.estimate()
    if abs(est.mean - 1.0) > 3.0 * est.stderr:
        failures.append(f"var(B_1) = {est.mean:.5f} beyond 3 stderr of 1")
    est = m_qv.estimate()
    if abs(est.mean - 1.0) > 3.0 * est.stderr:
        failures.append(f"E[QV] = {est.mean:.5f} beyond 3 stderr of 1")
    est = m_max.estimate()
    target = math.sqrt(2.0 / math.pi)
    if abs(est.mean - target) > 3.0 * est.stderr + 0.02:
        failures.append(f"E[max B] = {est.mean:.5f} vs {target:.5f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict("driver-engine-moments", failures)


def test_ito_isometry_at_stopping_times(isometry_full):
    """E|I_tau|^2 = E eta_tau for every integrand x stopping time x grid."""
    failures = [r.label for r in isometry_full.reports if not r.passed]
    labels = {r.label for r in isometry_full.reports}
    for rule in ("constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix"):
        for stop in ("horizon", "first_exit", "clock_threshold"):
            for tag in ("n", "4n"):
                for direction in ("fwd", "rev"):
                    want = f"isometry-{direction}:{rule}:{stop}:atom0@{tag}"
                    if want not in labels:
                        failures.append(f"missing row {want}")
    if isometry_full.notes["replicates"] != 100_000:
        failures.append("wrong replicate count")
    _verdict("ito-isometry-stopping-suite", failures)


def test_good_lambda_tail_lines(good_lambda_full):
    """Both tail lines hold with bound + 3 sigma on the 8-point lambda grid."""
    res, elapsed = good_lambda_full
    failures = [r.label for r in res.reports if not r.passed]
    tail_rows = [r for r in res.reports if r.label.startswith("good-lambda-line")]
    if len(tail_rows) != 2 * 3 * 3 * 8 * 2:  # lines x betas x deltas x lambdas x grids
        failures.append(f"expected 288 tail rows, saw {len(tail_rows)}")
    for line, expr in ((1, lambda b, d: d**2 / (b - 1.0) ** 2),
                       (2, lambda b, d: d**2 / (b**2 - 1.0))):
        for b in (1.5, 2.0, 4.0):
            for d in (0.05, 0.1, 0.25):
                want = expr(b, d)
                rows = [r for r in tail_rows
                        if r.label.startswith(f"good-lambda-line{line}:beta{b}:delta{d}:")]
                if any(r.bound != want for r in rows):
                    failures.append(f"bound drift at line{line} beta{b} delta{d}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _verdict("good-lambda-tail-lines", failures)


def test_scalar_bdg_bracket(bdg_scalar_full):
    """E sup|M|^2 / E<M> lies in [1 - 3s, 4 + 3s]; exact 2M invariance."""
    failures = [r.label for r in bdg_scalar_full.reports if not r.passed]
    by_label = {r.label: r for r in bdg_scalar_full.reports}
    for driver in ("bm", "sign_integral"):
        # the passing upper row certifies ratio <= 4 + 3 sigma; the passing
        # lower row certifies the reciprocal side, ratio >= 1 - 3 sigma
        upper = by_label[f"bdg-upper:{driver}"]
        if not upper.extras["scaling_exact"]:
            failures.append(f"{driver}: ratio changed under M -> 2M")
        if upper.extras["ratio_scaled_2"] != upper.ratio:
            failures.append(f"{driver}: scaled ratio not bitwise equal")
        if not 0.9 <= upper.ratio <= 4.1:
            failures.append(f"{driver}: ratio {upper.ratio:.4f} outside [1, 4] window")
    _verdict("scalar-bdg-bracket", failures)


def test_doob_orlicz_pairs(doob_orlicz_full):
    """Hypothesis audits pass pointwise; conclusions hold: ratio <= 4 + 3s
    for the square gauge, refinement-stable ratio for the slow-growth gauge."""
    res = doob_orlicz_full
    failures = [r.label for r in res.reports if not r.passed]
    if res.notes.get("audit_failed"):
        failures.append("hypothesis audit failed")
    if res.notes["dominated_pointwise_violations"] != 0:
        failures.append("dominated pair violated pointwise")
    by_label = {r.label: r for r in res.reports}
    for tag in ("n", "4n"):
        identity = by_label[f"conclusion:identity:power_2@{tag}"]
        if identity.ratio != 1.0:
            failures.append(f"identity ratio {identity.ratio} != 1 at {tag}")
        doob = by_label[f"conclusion:doob:power_2@{tag}"]
        if doob.bound != 4.0:
            failures.append("doob bound drift")
    stability = by_label["stability:doob:lambda_2:fine-vs-coarse"]
    if not np.isfinite(stability.ratio):
        failures.append("lambda_2 ratio not finite")
    if not (1.0 / 1.1 <= stability.ratio <= 1.1):
        failures.append(f"lambda_2 refinement drift {stability.ratio:.4f}")
    _verdict("doob-orlicz-pairs", failures)


def test_orlicz_bdg_two_sided(orlicz_bdg_full):
    """Two-sided supremum/clock comparison: stable, sweep-bounded, and
    norm-consistent for power gauges."""
    res = orlicz_bdg_full
    failures = [r.label for r in res.reports if not r.passed]
    by_label = {r.label: r for r in res.reports}
    for rule in ("sign_of_B1", "two_coord_mix"):
        for gname in ("power_2", "lambda_2"):
            fine_vs_coarse = by_label[f"stability:{rule}:{gname}:fine-vs-coarse"]
            if not (1.0 / 1.15 <= fine_vs_coarse.ratio <= 1.15):
                failures.append(f"{rule}:{gname} refinement drift {fine_vs_coarse.ratio:.4f}")
            sweep = by_label[f"sweep:{rule}:{gname}"]
            if not sweep.ratio < 10.0:
                failures.append(f"{rule}:{gname} sweep spread {sweep.ratio:.3f} >= 10")
    for gname in ("power_2", "power_1_5"):
        agreement = by_label[f"norm-agreement:{gname}"]
        if agreement.lhs.mean > 1e-6:
            failures.append(f"{gname} norm disagreement {agreement.lhs.mean:.2e}")
    _verdict("orlicz-bdg-two-sided", failures)


def test_block_average_projection():
    """Block-average approximation: exact L2 error for constants, monotone
    refinement for smooth integrands, pathwise energy domination."""
    failures = []
    n = 128
    grid = PathGrid(1.0, n)
    times = grid.times

    def l2_err_sq(samples, m):
        coarse = coarsen_samples(samples[None, :], grid, m)[0]
        return float(np.sum((samples[:-1] - coarse[:-1]) ** 2) * grid.dt)

    for m in (1, 2, 4, 8):
        err = l2_err_sq(np.ones(n + 1), m)
        if err != 1.0 / m:
            failures.append(f"constant: L2^2 error {err} != 1/{m}")
    for fn, tag in ((lambda t: t, "t"), (np.sin, "sin")):
        if not l2_err_sq(fn(times), 16) < l2_err_sq(fn(times), 8):
            failures.append(f"{tag}: error not reduced by refinement")

    space = DiscreteMeasureSpace([1.0, 0.5])
    batch = simulate_batch(draw_normals(17, ("jm",), 2, grid.steps, 64), grid)
    for rule in ("constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix"):
        inner = ProcessSpec(rule)
        spec = ProcessSpec("coarsen_m", m=8, inner=inner)
        x = inner.realize(batch.paths, grid, space)
        jx = spec.realize(batch.paths, grid, space)
        if not np.all(jx.eta() <= x.eta() + 1e-12):
            failures.append(f"{rule}: energy prefix domination violated")
    _verdict("block-average-projection", failures)


def test_full_verification_reproducibility(tmp_path):
    """Two fast full runs produce byte-identical CSV reports and exit 0."""
    failures = []
    runner = CliRunner()
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        result = runner.invoke(cli_main, ["verify-paper", "--fast", "--out", str(d)])
        if result.exit_code != 0:
            failures.append(f"exit code {result.exit_code}: {result.output[-200:]}")
    files = sorted(p.name for p in dirs[0].glob("*.csv"))
    if len(files) != 8:
        failures.append(f"expected 8 csv reports, saw {files}")
    for name in files + ["summary.txt"]:
        if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
            failures.append(f"{name} differs between runs")
    _verdict("full-verification-reproducibility", failures)
