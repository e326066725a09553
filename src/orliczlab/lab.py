"""Monte Carlo verification lab for martingale-Orlicz inequalities.

Each experiment draws Brownian driver batches through named substreams,
computes both sides of an inequality on shared replicates (common random
numbers), and emits ``RatioReport`` rows: ``lhs_mean <= bound * rhs_mean``
within a 3-sigma slack.  Analytic experiments (Young gaps, moment-constant
feasibility) emit rows with zero stderr.

Experiments
-----------
- ``young``: Young's inequality gap for every strict N-function gauge.
- ``moment_constant``: feasibility and values of the good-lambda moment
  constant C = delta^-p / (beta^-p - c_delta).
- ``isometry``: Ito isometry E|I_tau|^2 = E eta_tau per integrand, stopping
  time, and atom, at two grid resolutions.
- ``good_lambda``: the two good-lambda tail lines for the capped first-exit
  pair (B*_tau, sqrt(tau)), plus derived moment rows.
- ``bdg_scalar``: the Doob bracket E sup|M|^2 / E<M> in [1, 4] for M = B and
  the sign-integrand integral, with exact scaling invariance.
- ``doob_orlicz``: the maximal-inequality hypothesis audit and the Orlicz
  Doob conclusion E L(xi) <= C E L(eta) for dominated/identity/doob pairs.
- ``lenglart``: domination-hypothesis audits and the stopped-supremum
  conclusion for the certified scalar and Orlicz-integral pairs.
- ``orlicz_bdg``: the two-sided supremum/clock comparison for vector
  integrals in modular form, with refinement, sweep, and norm-agreement
  checks.

Writing a Monte Carlo experiment
--------------------------------
Resolve sizes and params with ``_resolve``: every param key it reads has a
default in ``experiment_defaults``.  ``run_experiment`` rejects any other
key, a value that is not a number (or a list of numbers) where the
default is one, and a ``replicates`` or ``grid_n`` whose default is 0.
Loop once over ``_views(seed, name, coords, grid, replicates, batch,
factor)``, which yields ``(tag, batch)`` per driver batch; with
``factor=4`` each batch comes as ``"4n"`` on the fine grid, then as ``"n"``
coarsened.  In the loop, feed both sides of each inequality to one
``_Tally`` with ``add(key, lhs, rhs, *bounds)``, listing the bounds whose
rows should carry the paired slack.  After the loop, build the rows with
``_Tally.row`` (``reverse=True`` checks rhs against lhs), at the grid steps
of each tag (``{"4n": n * factor, "n": n}``).  Deterministic rows come from
``_exact_row`` and its forms ``_stability_rows``, ``_spread_row`` and
``_scaling_row``.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gauges import (
    GrowthFunction,
    classify_gauge,
    complementary_gauge,
    gauge_from_config,
    get_gauge,
    phi_of,
    registry_gauges,
    young_gap,
)
from .integrate import build_process, triple_norm_path
from .paths import (
    PathGrid,
    draw_normals,
    hitting_index,
    quadratic_variation,
    running_abs_max,
    simulate_batch,
)
from .spaces import DiscreteMeasureSpace, luxemburg_of_norms, modular_of_norms
from .stats import ExperimentResult, McEstimate, RatioReport, RunningMoments

__all__ = [
    "LabError",
    "QuasiMetric",
    "derive_moment_constant",
    "good_lambda_bound",
    "lenglart_constant",
    "EXPERIMENTS",
    "experiment_defaults",
    "run_experiment",
]


class LabError(ValueError):
    """Invalid experiment request (bad pair, infeasible constant, gauge class)."""


# ---------------------------------------------------------------------------
# constants derived from the tail inequalities


def good_lambda_bound(beta: float, delta: float, line: int) -> float:
    """The tail-domination constant: delta^2/(beta-1)^2 (line 1, running
    maximum dominated by the clock) or delta^2/(beta^2-1) (line 2)."""
    if beta <= 1.0 or delta <= 0.0:
        raise LabError(f"need beta > 1 and delta > 0, got beta={beta}, delta={delta}")
    if line == 1:
        return delta**2 / (beta - 1.0) ** 2
    if line == 2:
        return delta**2 / (beta**2 - 1.0)
    raise LabError(f"line must be 1 or 2, got {line}")


def derive_moment_constant(beta: float, delta: float, p: float, c_delta: float) -> float:
    """Moment comparison constant from a tail inequality.

    If P(X >= beta lam, Y < delta lam) <= c_delta P(X >= lam) for all lam,
    integrating against p lam^{p-1} d lam gives
    E X^p <= delta^-p / (beta^-p - c_delta) E Y^p, provided the
    denominator is positive (the feasibility edge).
    """
    if beta <= 1.0 or not 0.0 < delta:
        raise LabError(f"need beta > 1 and delta > 0, got beta={beta}, delta={delta}")
    if p <= 0.0:
        raise LabError(f"moment order must be positive, got {p}")
    gap = beta ** (-p) - c_delta
    if gap <= 0.0:
        raise LabError(
            f"infeasible: c_delta={c_delta} >= beta^-p={beta ** (-p)}; "
            "the constant diverges at the feasibility edge"
        )
    return delta ** (-p) / gap


def lenglart_constant(q: float, kappa: float, gamma: float, p_phi: float) -> float:
    """Stopped-supremum constant C(gamma, q, kappa, Phi) for power Phi = t^p.

    Optimizes phi(1/eps) / (1 - kappa (2 gamma eps)^q phi(2 gamma)) over
    eps, where phi(s) = s^p is the scaling majorant of Phi.
    """
    eps = np.geomspace(1e-6, 0.9, 4096)
    denom = 1.0 - kappa * (2.0 * gamma * eps) ** q * (2.0 * gamma) ** p_phi
    feasible = denom > 0.0
    if not feasible.any():
        raise LabError("no feasible eps for the stopped-supremum constant")
    values = (1.0 / eps[feasible]) ** p_phi / denom[feasible]
    return float(values.min())


# ---------------------------------------------------------------------------
# quasi-metrics


@dataclass(frozen=True)
class QuasiMetric:
    """A symmetric point-separating distance with a relaxed triangle constant."""

    kind: str  # "abs" or "modular"
    gamma: float
    space: DiscreteMeasureSpace | None = None
    gauge: GrowthFunction | None = None

    @staticmethod
    def absolute() -> "QuasiMetric":
        return QuasiMetric(kind="abs", gamma=1.0)

    @staticmethod
    def modular_difference(space: DiscreteMeasureSpace, gauge: GrowthFunction) -> "QuasiMetric":
        """rho(f, g) = modular of f - g; the triangle constant is phi(2)."""
        return QuasiMetric(
            kind="modular", gamma=float(phi_of(gauge, 2.0)), space=space, gauge=gauge
        )

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "abs":
            return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        if self.kind == "modular":
            diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
            return modular_of_norms(diff, self.space.weights, self.gauge)
        raise LabError(f"unknown quasi-metric kind {self.kind!r}")


# ---------------------------------------------------------------------------
# shared machinery


def _resolve(cfg):
    """Replicates, grid steps and params, each defaulted from ``experiment_defaults``."""
    defaults = experiment_defaults(cfg.experiment)
    return (
        cfg.replicates or defaults["replicates"],
        cfg.grid_n or defaults["grid_n"],
        {**defaults["params"], **cfg.params},
    )


def _views(seed: int, name: str, coords: int, grid: PathGrid, replicates: int, batch: int,
           factor: int = 1):
    """Driver batches as ``(tag, batch)`` in batch-index order.

    Batch ``i`` draws substream ``(name, "batch", i)`` on ``grid`` and is
    yielded as ``"n"``; with ``factor > 1`` it is yielded as ``"{factor}n"``
    and then as ``"n"``, the same driver coarsened by ``factor``.

    One worker thread draws the normals of batch ``i + 1`` while batch ``i``
    is processed; Philox substreams are order-free, so the bits are those
    of drawing in sequence.  The worker only draws: the batch is built on
    the calling thread, and the fine batch is dropped once its coarse view
    is yielded.
    """
    sizes = [min(batch, replicates - done) for done in range(0, replicates, batch)]
    draw = lambda i: draw_normals(seed, (name, "batch", i), coords, grid.steps, sizes[i])
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw, 0)
        try:
            for index in range(len(sizes)):
                normals = ahead.result()
                ahead = pool.submit(draw, index + 1) if index + 1 < len(sizes) else None
                view = simulate_batch(normals, grid)
                del normals  # the batch owns the buffer now
                if factor > 1:
                    yield f"{factor}n", view
                    view = view.coarsened(factor)
                yield "n", view
        finally:
            if ahead is not None and not ahead.cancel():
                ahead.exception()  # the consumer stopped early: wait for the draw in flight


class _Tally:
    """Paired moments per key: both sides on shared replicates, plus
    ``lhs - b * rhs`` for each bound ``b`` a row is checked at."""

    def __init__(self) -> None:
        self._sides = {}
        self._diffs = {}

    def add(self, key, lhs, rhs, *bounds) -> None:
        if key not in self._sides:
            self._sides[key] = (RunningMoments(), RunningMoments())
        self._sides[key][0].add(lhs)
        self._sides[key][1].add(rhs)
        for b in bounds:
            self._diffs.setdefault((key, b), RunningMoments()).add(lhs - b * rhs)

    def keys(self):
        return self._sides.keys()

    def sides(self, key):
        lhs, rhs = self._sides[key]
        return lhs.estimate(), rhs.estimate()

    def ratio(self, key) -> float:
        lhs, rhs = self.sides(key)
        return lhs.mean / rhs.mean

    def row(self, label, key, bound, grid_n, extras=None, reverse=False) -> RatioReport:
        """``lhs <= bound * rhs``, or ``rhs <= bound * lhs`` when ``reverse``.

        The slack is paired where the difference at ``bound`` was added.  A
        reverse row is paired only at bound 1, where it reads the forward
        difference: negation leaves the stderr bit-exact.
        """
        lhs, rhs = self.sides(key)
        diff = self._diffs.get((key, bound)) if not reverse or bound == 1.0 else None
        if reverse:
            lhs, rhs = rhs, lhs
        return RatioReport(label, lhs, rhs, bound, grid_n,
                           slack_stderr=None if diff is None else diff.estimate().stderr,
                           extras=extras or {})


def _take_at(paths_like: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Value of per-replicate paths (reps, n+1, ...) at per-replicate indices."""
    rows = np.arange(paths_like.shape[0])
    return paths_like[rows, idx]


def _max_to_hit(values: np.ndarray, tau: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """max of ``values`` (reps, n+1) over [0, tau], for ``tau, hit`` from a
    weak ``hitting_index`` of ``values``: at a hit every earlier value is
    below the level, so the maximum is the value at tau; a row that never
    hits has tau = n and its row maximum."""
    out = _take_at(values, tau)
    miss = ~hit
    if miss.any():
        out[miss] = values[miss].max(axis=1)
    return out


def _exact_row(label, lhs, rhs, bound, grid_n, extras=None) -> RatioReport:
    """A deterministic row: both sides exact, so the slack is 0."""
    return RatioReport(label, McEstimate.exact(lhs), McEstimate.exact(rhs), bound, grid_n,
                       extras=extras or {})


def _stability_rows(prefix, ratio_fine, ratio_coarse, tol, grid_n) -> list:
    ex = {"ratio_fine": ratio_fine, "ratio_coarse": ratio_coarse}
    return [
        _exact_row(f"{prefix}:fine-vs-coarse", ratio_fine, ratio_coarse, 1.0 + tol, grid_n, ex),
        _exact_row(f"{prefix}:coarse-vs-fine", ratio_coarse, ratio_fine, 1.0 + tol, grid_n, ex),
    ]


def _spread_row(label, ratios, factor, grid_n, extras=None) -> RatioReport:
    """Largest over smallest of a sweep's ratios, within ``factor``."""
    return _exact_row(label, max(ratios), min(ratios), factor, grid_n, extras)


def _scaling_row(label, scaled, base, grid_n) -> RatioReport:
    """Bitwise invariance under X -> cX: every ratio in ``scaled``, taken
    from the scaled sums, must equal the unscaled ``base``."""
    exact = all(v == base for v in scaled)
    return _exact_row(label, max(scaled), base, 1.0, grid_n, {"scaling_exact": exact})


def _square_scaled(tally, key) -> list:
    """The ratio at ``key`` for X -> cX, c = 0.5 and 2: the square gauge
    multiplies both sums by c^2."""
    lhs, rhs = tally.sides(key)
    return [(c**2 * lhs.mean) / (c**2 * rhs.mean) for c in (0.5, 2.0)]


# ---------------------------------------------------------------------------
# analytic experiments


def run_young(cfg) -> ExperimentResult:
    """Young's inequality st <= L(s) + comp(t) for strict N-function gauges."""
    _, grid_pts, params = _resolve(cfg)
    s_grid = np.geomspace(0.05, 20.0, grid_pts)
    t_grid = np.geomspace(0.05, 20.0, grid_pts)
    candidates = list(registry_gauges().items())
    for i, gcfg in enumerate(params["extra_gauges"]):
        gauge = gauge_from_config(dict(gcfg))
        candidates.append((f"extra{i}:{gauge.label}", gauge))
    reports = []
    names = []
    for name, gauge in candidates:
        if not classify_gauge(gauge).is_N_function:
            continue
        names.append(name)
        comp = complementary_gauge(gauge)
        gaps = young_gap(gauge, comp, s_grid[:, None], t_grid[None, :])
        reports.append(_exact_row(f"young-gap:{name}", -float(gaps.min()), 1.0, 1e-9, grid_pts,
                                  {"min_gap": float(gaps.min())}))
        if name == "half_square":
            # equality t = L'(s): gap vanishes along the derivative curve
            eq_gaps = young_gap(gauge, comp, s_grid, gauge.derivative(s_grid))
            reports.append(_exact_row("young-equality:half_square",
                                      float(np.abs(eq_gaps).max()), 1.0, 1e-6, grid_pts))
    return ExperimentResult("young", grid_pts, reports, notes={"gauges": ",".join(names)})


def run_moment_constant(cfg) -> ExperimentResult:
    """Feasibility of the derived moment constant across the parameter grid."""
    _, _, params = _resolve(cfg)
    reports = []
    for line in (1, 2):
        for beta in params["betas"]:
            for delta in params["deltas"]:
                c_delta = good_lambda_bound(beta, delta, line)
                for p in params["orders"]:
                    feasible = c_delta < beta ** (-p)
                    extras = {"c_delta": c_delta}
                    if feasible:
                        extras["constant"] = derive_moment_constant(beta, delta, p, c_delta)
                    reports.append(_exact_row(
                        f"feasibility:line{line}:beta{beta}:delta{delta}:p{p}",
                        c_delta, beta ** (-p), 1.0, 0, extras))
    return ExperimentResult("moment_constant", 0, reports)


# ---------------------------------------------------------------------------
# Ito isometry


def run_isometry(cfg) -> ExperimentResult:
    """E |I_tau|^2 = E eta_tau per (integrand, stopping time, atom, grid)."""
    replicates, n, params = _resolve(cfg)
    factor = 4
    fine_grid = PathGrid(params["horizon"], n * factor)
    space = DiscreteMeasureSpace(params["weights"])
    gauge = get_gauge("power_2")
    specs = [
        build_process({"rule": "constant_e1"}),
        build_process({"rule": "sign_of_B1", "blocks": 16}),
        build_process({"rule": "B1_times_e1"}),
        build_process({"rule": "two_coord_mix"}),
    ]

    tally = _Tally()
    steps = {"4n": n * factor, "n": n}
    for tag, b in _views(cfg.seed, "isometry", 2, fine_grid, replicates, 2048, factor):
        first_exit = hitting_index(np.abs(b.paths[:, 0, :]), params["exit_level"])[0]
        for spec in specs:
            realized = spec.realize(b.paths, b.grid, space)
            integral = realized.integral(b.increments)
            eta = realized.eta()
            tn = triple_norm_path(eta, space, gauge)
            stops = {
                "horizon": np.full(b.replicates, b.grid.steps, dtype=np.int64),
                "first_exit": first_exit,
                "clock_threshold": hitting_index(tn, params["clock_threshold"], mode="strict")[0],
            }
            for stop, tau in stops.items():
                i_tau = _take_at(integral, tau)
                eta_tau = _take_at(eta, tau)
                for a in range(space.n_atoms):
                    tally.add((spec.rule, stop, a, tag), i_tau[:, a] ** 2, eta_tau[:, a], 1.0)

    reports = []
    for key in tally.keys():
        rule, stop, a, tag = key
        base = f"{rule}:{stop}:atom{a}@{tag}"
        reports.append(tally.row(f"isometry-fwd:{base}", key, 1.0, steps[tag]))
        reports.append(tally.row(f"isometry-rev:{base}", key, 1.0, steps[tag], reverse=True))
    return ExperimentResult("isometry", n, reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# good-lambda tail lines


def run_good_lambda(cfg) -> ExperimentResult:
    """Tail domination for (B*_tau, sqrt(tau)), tau = capped first exit."""
    replicates, n, params = _resolve(cfg)
    factor = 4
    betas = tuple(params["betas"])
    deltas = tuple(params["deltas"])
    for key, values in (("betas", betas), ("deltas", deltas)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            # tail rows are keyed by value: a repeat would merge two passes into one row
            raise LabError(f"good_lambda: params.{key} repeats the value {repeated[0]!r}")
    lambdas = np.asarray(params["lambdas"], dtype=float)
    fine_grid = PathGrid(params["horizon"], n * factor)

    tally = _Tally()
    steps = {"4n": n * factor, "n": n}
    for tag, b in _views(cfg.seed, "good_lambda", 1, fine_grid, replicates, 2048, factor):
        absb = np.abs(b.paths[:, 0, :])
        tau, hit = hitting_index(absb, params["exit_level"])  # sentinel = horizon cap
        x = _max_to_hit(absb, tau, hit)
        y = np.sqrt(tau * b.grid.dt)
        for line in (1, 2):
            big, small = (x, y) if line == 1 else (y, x)
            for beta in betas:
                for delta in deltas:
                    for k, lam in enumerate(lambdas):
                        joint = (big > beta * lam) & (small < delta * lam)
                        tally.add(("tail", tag, line, beta, delta, k), joint, big > lam)
        for p in (1, 2):
            tally.add(("moment", tag, p), x**p, y**p)

    c1 = good_lambda_bound(2.0, 0.1, 1)
    c2 = good_lambda_bound(2.0, 0.1, 2)
    reports = []
    for key in tally.keys():  # per grid: tail lines, then moments
        if key[0] == "tail":
            _, tag, line, beta, delta, k = key
            reports.append(tally.row(
                f"good-lambda-line{line}:beta{beta}:delta{delta}:lam{k}@{tag}", key,
                good_lambda_bound(beta, delta, line), steps[tag], {"lambda": float(lambdas[k])},
            ))
        else:
            # moment comparisons with the derived constants (beta=2, delta=0.1)
            _, tag, p = key
            reports.append(tally.row(f"moment-p{p}-fwd@{tag}", key,
                                     derive_moment_constant(2.0, 0.1, p, c1), steps[tag]))
            reports.append(tally.row(f"moment-p{p}-rev@{tag}", key,
                                     derive_moment_constant(2.0, 0.1, p, c2), steps[tag],
                                     reverse=True))
    return ExperimentResult("good_lambda", n, reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# scalar BDG bracket


def run_bdg_scalar(cfg) -> ExperimentResult:
    """Doob bracket E sup|M|^2 / E<M> in [1, 4] for the suite martingales."""
    replicates, n, params = _resolve(cfg)
    grid = PathGrid(params["horizon"], n)
    space1 = DiscreteMeasureSpace([1.0])
    sign_spec = build_process({"rule": "sign_of_B1", "blocks": 16})

    tally = _Tally()
    for _, b in _views(cfg.seed, "bdg_scalar", 1, grid, replicates, 2048):
        sup_sq = np.abs(b.paths[:, 0, :]).max(axis=1) ** 2
        qv = quadratic_variation(b.increments[:, 0, :])[:, -1]
        tally.add("bm", sup_sq, qv, 4.0, 1.0)
        realized = sign_spec.realize(b.paths, b.grid, space1)
        m2 = realized.integral(b.increments)[:, :, 0]
        tally.add("sign_integral", np.abs(m2).max(axis=1) ** 2, realized.eta()[:, -1, 0],
                  4.0, 1.0)

    reports = []
    for d in ("bm", "sign_integral"):
        lhs, rhs = tally.sides(d)
        ratio = lhs.mean / rhs.mean
        # scaling M -> 2M multiplies both estimator sums by 4; the ratio is
        # reproduced by the same arithmetic and must agree bitwise
        ratio_scaled = (4.0 * lhs.mean) / (4.0 * rhs.mean)
        extras = {"ratio_scaled_2": ratio_scaled, "scaling_exact": ratio == ratio_scaled}
        reports.append(tally.row(f"bdg-upper:{d}", d, 4.0, n, extras))
        reports.append(tally.row(f"bdg-lower:{d}", d, 1.0, n, {"ratio": ratio}, reverse=True))
    return ExperimentResult("bdg_scalar", n, reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# Doob-Orlicz maximal comparison


def run_doob_orlicz(cfg) -> ExperimentResult:
    """Hypothesis audit and conclusion E L(xi) <= C E L(eta) for the pair suite."""
    replicates, n, params = _resolve(cfg)
    factor = 4
    lambdas = np.asarray(params["lambdas"], dtype=float)
    fine_grid = PathGrid(params["horizon"], n * factor)

    power2 = get_gauge("power_2")
    lambda2 = get_gauge("lambda_2")
    report_p2 = classify_gauge(power2)
    report_l2 = classify_gauge(lambda2)
    if not (report_p2.is_N_function and report_p2.kappa_A2 is not None):
        raise LabError("power_2 failed the integrability probe")
    if not report_l2.a2_operational:
        raise LabError("lambda_2 fails the operational A2 probe")
    gauges = (("power_2", power2), ("lambda_2", lambda2))
    bounds = {("doob", "power_2"): 4.0}  # the Doob constant; 1 elsewhere

    tally = _Tally()
    steps = {"4n": n * factor, "n": n}
    violations = 0
    for tag, b in _views(cfg.seed, "doob_orlicz", 1, fine_grid, replicates, 2048, factor):
        terminal = np.abs(b.paths[:, 0, -1])
        supremum = np.abs(b.paths[:, 0, :]).max(axis=1)
        pairs = {
            "identity": (terminal, terminal),
            "dominated": (terminal, supremum),
            "doob": (supremum, terminal),
        }
        for pname, (xi, eta) in pairs.items():
            for k, lam in enumerate(lambdas):
                on = xi >= lam
                lhs_s = lam * on
                rhs_s = eta * on
                tally.add(("hypothesis", tag, pname, k), lhs_s, rhs_s, 1.0)
                if pname == "dominated":
                    violations += int(np.count_nonzero(lhs_s > rhs_s))
            for gname, gauge in gauges:
                # (doob, lambda_2) feeds only the stability rows: no difference is read
                paired = () if (pname, gname) == ("doob", "lambda_2") else (
                    bounds.get((pname, gname), 1.0),)
                tally.add(("conclusion", tag, pname, gname), gauge(xi), gauge(eta), *paired)

    reports = []
    for key in tally.keys():
        kind, tag, pname, k = key
        if kind == "hypothesis":
            reports.append(tally.row(f"hypothesis:{pname}:lam{k}@{tag}", key, 1.0, steps[tag],
                                     {"lambda": float(lambdas[k])}))
    notes = {"dominated_pointwise_violations": violations}
    if violations > 0 or not all(row.passed for row in reports):
        notes["audit_failed"] = True
        return ExperimentResult("doob_orlicz", n, reports, notes)

    for key in tally.keys():
        kind, tag, pname, gname = key
        # (doob, lambda_2) is handled by the stability rows below
        if kind == "conclusion" and (pname, gname) != ("doob", "lambda_2"):
            reports.append(tally.row(f"conclusion:{pname}:{gname}@{tag}", key,
                                     bounds.get((pname, gname), 1.0), steps[tag]))
    ratios = {tag: tally.ratio(("conclusion", tag, "doob", "lambda_2")) for tag in ("4n", "n")}
    reports.extend(
        _stability_rows("stability:doob:lambda_2", ratios["4n"], ratios["n"], 0.10, n)
    )
    notes["doob_lambda2_ratio"] = ratios["4n"]
    return ExperimentResult("doob_orlicz", n, reports, notes)


# ---------------------------------------------------------------------------
# Lenglart-type domination


CERTIFIED_PAIRS = ("scalar", "orlicz")


def run_lenglart(cfg) -> ExperimentResult:
    """Certified domination pairs: hypothesis audit, tail line, conclusion."""
    replicates, n, params = _resolve(cfg)
    pair_list = params["pairs"]
    if isinstance(pair_list, str):
        pair_list = (pair_list,)
    for p in pair_list:
        if p not in CERTIFIED_PAIRS:
            raise LabError(
                f"uncertified domination pair {p!r}; certified: {', '.join(CERTIFIED_PAIRS)}"
            )
    reports = []
    notes = {}
    audit_ok = True
    if "scalar" in pair_list:
        rs, ns, ok = _lenglart_scalar(cfg.seed, replicates, n, params)
        reports.extend(rs)
        notes.update(ns)
        audit_ok = audit_ok and ok
    if "orlicz" in pair_list:
        ro, no, ok = _lenglart_orlicz(cfg.seed, replicates, params)
        reports.extend(ro)
        notes.update(no)
        audit_ok = audit_ok and ok
    if not audit_ok:
        notes["audit_failed"] = True
    return ExperimentResult("lenglart", n, reports, notes)


def _lenglart_scalar(seed, replicates, n, params):
    """xi = B, rho = |x - y|, q = 2, N = sqrt(<B>), kappa = 1."""
    horizon = params["horizon"]
    grid = PathGrid(horizon, n)
    lambdas = np.asarray(params["lambdas"], dtype=float)
    eps = 0.25
    sweep_times = (0.5, 1.0, 2.0)
    stability_factor = float(params["stability_factor"])
    c_star = lenglart_constant(2.0, 1.0, 1.0, 2.0)
    sweep_idx = [grid.index_of(t) for t in sweep_times]

    tally = _Tally()
    for _, b in _views(seed, "lenglart_scalar", 1, grid, replicates, 2048):
        path = b.paths[:, 0, :]
        absb = np.abs(path)
        tau, hit = hitting_index(absb, 1.0)
        sigma_half = np.minimum(hitting_index(absb, 0.5)[0], tau)
        windows = {
            "zero": np.zeros_like(tau),
            "half-exit": sigma_half,
            "half-horizon": np.minimum(tau, n // 2),
        }
        b_tau = _take_at(path, tau)
        star = _max_to_hit(absb, tau, hit)
        clock = tau * b.grid.dt
        # E (B_tau - B_sigma)^2 <= ess sup <B> P(sigma < tau)
        for w, sigma in windows.items():
            tally.add(("hypothesis", w), (b_tau - _take_at(path, sigma)) ** 2, sigma < tau)
        # one-step tail line P(M* >= lam) <= kappa (2 g eps)^q P(2 g M* >= lam)
        #                                     + P(N > eps lam), with g=1, q=2
        shrink = (2.0 * eps) ** 2
        for k, lam in enumerate(lambdas):
            rhs_s = shrink * (2.0 * star >= lam) + (np.sqrt(clock) > eps * lam)
            tally.add(("tail", k), star >= lam, rhs_s, 1.0)
        tally.add("conclusion", star**2, clock, c_star)
        run_max = running_abs_max(path, sweep_idx)
        for k, t_stop in enumerate(sweep_times):
            tally.add(("sweep", t_stop), run_max[:, k] ** 2, np.full(b.replicates, t_stop))

    reports = []
    for w in ("zero", "half-exit", "half-horizon"):
        lhs, hit = tally.sides(("hypothesis", w))
        reports.append(RatioReport(f"hypothesis:scalar:{w}", lhs, hit.scaled(horizon), 1.0, n,
                                   extras={"ess_sup_clock": horizon}))
    for k in range(lambdas.size):
        reports.append(tally.row(f"tail:scalar:lam{k}", ("tail", k), 1.0, n,
                                 {"lambda": float(lambdas[k]), "eps": eps}))
    if not all(row.passed for row in reports):
        return reports, {"scalar_ratio": None}, False

    reports.append(tally.row("conclusion:scalar:certified", "conclusion", c_star, n,
                             {"constant": c_star}))
    ratios = {}
    for t_stop in sweep_times:
        ratios[t_stop] = tally.ratio(("sweep", t_stop))
        reports.append(tally.row(f"sweep:scalar:T{t_stop}", ("sweep", t_stop), c_star, n,
                                 {"ratio": ratios[t_stop]}))
    reports.append(_spread_row("sweep:scalar:spread", ratios.values(), stability_factor, n))
    reports.append(_scaling_row("scaling-exact:scalar", _square_scaled(tally, ("sweep", 1.0)),
                                ratios[1.0], n))
    exact = reports[-1].extras["scaling_exact"]
    return reports, {"scalar_ratio": ratios[1.0], "scalar_scaling_exact": exact}, True


def _lenglart_orlicz(seed, replicates, params):
    """xi = vector integral, rho1 = modular difference, N = clock modular."""
    n_master = params["orlicz_grid_n"]
    horizon = 2.0
    grid = PathGrid(horizon, n_master)
    space = DiscreteMeasureSpace(params["weights"])
    gauge = get_gauge("power_2")
    rho1 = QuasiMetric.modular_difference(space, gauge)
    gamma2 = 2.0  # the clock metric sums weighted absolute differences
    spec = build_process({"rule": "two_coord_mix"})
    threshold = float(params["clock_threshold"])
    sweep_times = (0.5, 1.0, 2.0)
    sweep_idx = [grid.index_of(t) for t in sweep_times]  # the last one is the horizon
    stability_factor = float(params["stability_factor"])

    tally = _Tally()
    for _, b in _views(seed, "lenglart_orlicz", 2, grid, replicates, 512):
        realized = spec.realize(b.paths, b.grid, space)
        integral = realized.integral(b.increments)
        eta = realized.eta()
        clock_path = triple_norm_path(eta, space, gauge)  # increasing majorant
        mod_path = modular_of_norms(np.abs(integral), space.weights, gauge)
        run_mod = running_abs_max(mod_path, sweep_idx)  # the modular is >= 0
        tau = np.full(b.replicates, n_master, dtype=np.int64)
        windows = {
            "half-horizon": np.full(b.replicates, n_master // 2, dtype=np.int64),
            "clock_threshold": np.minimum(hitting_index(clock_path, threshold, "strict")[0], tau),
        }
        i_tau = _take_at(integral, tau)
        eta_tau = _take_at(eta, tau)
        for w, sigma in windows.items():
            rho_diff = rho1.distance(i_tau, _take_at(integral, sigma))
            clock_diff = ((eta_tau - _take_at(eta, sigma)) @ space.weights)
            tally.add(("hypothesis", w), rho_diff, clock_diff, 1.0)
        tally.add("conclusion", run_mod[:, -1], clock_path[:, -1], 4.0)
        for k, (t_stop, idx) in enumerate(zip(sweep_times, sweep_idx)):
            tally.add(("sweep", t_stop), run_mod[:, k], clock_path[:, idx], 4.0)

    reports = [tally.row(f"hypothesis:orlicz:{w}", ("hypothesis", w), 1.0, n_master)
               for w in ("half-horizon", "clock_threshold")]
    if not all(row.passed for row in reports):
        return reports, {"orlicz_ratio": None}, False

    c_cert = lenglart_constant(1.0, 2.0 * gamma2, rho1.gamma, 1.0)
    reports.append(tally.row("conclusion:orlicz:doob", "conclusion", 4.0, n_master))
    reports.append(tally.row("conclusion:orlicz:certified", "conclusion", c_cert, n_master,
                             {"constant": c_cert, "gamma1": rho1.gamma}))
    ratios = {}
    for t_stop in sweep_times:
        row = tally.row(f"sweep:orlicz:T{t_stop}", ("sweep", t_stop), 4.0, n_master)
        ratios[t_stop] = row.ratio
        reports.append(row)
    reports.append(_spread_row("sweep:orlicz:spread", ratios.values(), stability_factor,
                               n_master))
    reports.append(_scaling_row("scaling-exact:orlicz", _square_scaled(tally, ("sweep", 1.0)),
                                ratios[1.0], n_master))
    exact = reports[-1].extras["scaling_exact"]
    return reports, {"orlicz_ratio": ratios[1.0], "orlicz_scaling_exact": exact}, True


# ---------------------------------------------------------------------------
# two-sided Orlicz comparison for vector integrals


def _modular_paths(gauge: GrowthFunction, abs_integral, eta, weights, scales, read):
    """Per scale c in ``scales``: the running supremum of the modular of the
    integral, and the clock-side modular, each at the ascending grid
    indices ``read`` (a dict index -> (reps,) values), for scaled
    integrands c X.

    For power gauges the scaling is analytic: modular(c f) = c^p modular(f),
    exact in floats for binary c, which realizes the homogeneity-invariance
    contract; both modulars are evaluated once and scaled per c, the
    supremum after its maximum (rounding is monotone, so that commutes).
    Other gauges are re-evaluated at the scaled arguments.  The clock is
    evaluated at the read indices only, one (reps, atoms) slice each; the
    supremum needs the whole path.
    """
    root = {i: np.sqrt(eta[:, i]) for i in read}
    out = {}
    if gauge.family == "power" and float(gauge.params.get("coeff", 1.0)) == 1.0:
        # the modular is >= 0, so its running max is its running abs max
        sup = running_abs_max(modular_of_norms(abs_integral, weights, gauge), read)
        clock = {i: modular_of_norms(r, weights, gauge) for i, r in root.items()}
        for c in scales:
            scale = float(c) ** float(gauge.params["p"])
            out[c] = ({i: scale * sup[:, k] for k, i in enumerate(read)},
                      {i: scale * v for i, v in clock.items()})
    else:
        for c in scales:
            sup = running_abs_max(modular_of_norms(c * abs_integral, weights, gauge), read)
            out[c] = ({i: sup[:, k] for k, i in enumerate(read)},
                      {i: modular_of_norms(c * r, weights, gauge) for i, r in root.items()})
    return out


def run_orlicz_bdg(cfg) -> ExperimentResult:
    """E Phi(sup_t [I_t]) vs E Phi([sqrt(eta_tau)]) in both directions."""
    replicates, n, params = _resolve(cfg)
    factor = 4
    horizon = 2.0
    fine_grid = PathGrid(horizon, n * factor)
    space = DiscreteMeasureSpace(params["weights"])
    space1 = DiscreteMeasureSpace([1.0])
    sweep_times = (0.5, 1.0, 2.0)
    scales = (0.5, 1.0, 2.0)
    stability_factor = float(params["stability_factor"])
    envelope = float(params["envelope"])

    power2 = get_gauge("power_2")
    lambda2 = get_gauge("lambda_2")
    if not classify_gauge(lambda2).a2_operational:
        raise LabError("lambda_2 fails the operational A2 probe")
    gauges = (("power_2", power2), ("lambda_2", lambda2))
    rev_bounds = {"power_2": 1.0, "lambda_2": envelope}
    specs = [
        build_process({"rule": "sign_of_B1", "blocks": 16}),
        build_process({"rule": "two_coord_mix"}),
    ]
    single_spec = build_process({"rule": "constant_e1"})

    tally = _Tally()  # (rule, gname, tag, T, c): fine sweeps + coarse base; "single"
    steps = {"4n": n * factor, "n": n}
    norm_checks = []
    for tag, b in _views(cfg.seed, "orlicz_bdg", 2, fine_grid, replicates, 512, factor):
        grid_points = {t: b.grid.index_of(t) for t in sweep_times}
        combos = [(t, c) for t in sweep_times for c in scales] if tag == "4n" else [(horizon, 1.0)]
        read = sorted({grid_points[t] for t, _ in combos})
        for spec in specs:
            realized = spec.realize(b.paths, b.grid, space)
            abs_integral = np.abs(realized.integral(b.increments))
            eta = realized.eta()
            for gname, gauge in gauges:
                done = _modular_paths(gauge, abs_integral, eta, space.weights,
                                      sorted({c for _, c in combos}), read)
                # only a fine reverse row at bound 1 reads the paired difference
                paired = (1.0,) if tag == "4n" and rev_bounds[gname] == 1.0 else ()
                for t_stop, c in combos:
                    sup, clock = done[c]
                    idx = grid_points[t_stop]
                    tally.add((spec.rule, gname, tag, t_stop, c), sup[idx], clock[idx], *paired)
            if tag == "4n" and spec.rule == "two_coord_mix" and not norm_checks:
                # power-gauge norm path agrees with modular^(1/p), first batch only
                sample = np.sqrt(eta[: min(32, b.replicates), -1, :])
                for gname in ("power_2", "power_1_5"):
                    g = get_gauge(gname)
                    p = float(g.params["p"])
                    lux = luxemburg_of_norms(sample, space.weights, g)
                    alg = modular_of_norms(sample, space.weights, g) ** (1.0 / p)
                    rel = np.abs(lux - alg) / np.where(alg > 0, alg, 1.0)
                    norm_checks.append(_exact_row(f"norm-agreement:{gname}", float(rel.max()),
                                                  1.0, 1e-6, steps["4n"]))
        if tag == "4n":
            # single-atom reduction: X = e1, modular path = B^2, clock = t
            realized = single_spec.realize(b.paths, b.grid, space1)
            integral = realized.integral(b.increments)[:, :, 0]
            idx = grid_points[1.0]
            sup_sq = running_abs_max(integral, [idx])[:, 0] ** 2  # squaring is monotone in |x|
            tally.add("single", sup_sq, realized.eta()[:, idx, 0], 4.0)

    reports = []
    for spec in specs:
        for gname, _ in gauges:
            fwd_bound = 4.0 if gname == "power_2" else envelope
            rev_bound = rev_bounds[gname]
            extras = {} if gname == "power_2" else {"bound_kind": "envelope"}
            ratios = {}
            for t_stop in sweep_times:
                for c in scales:
                    key = (spec.rule, gname, "4n", t_stop, c)
                    lhs, rhs = tally.sides(key)
                    ratios[(t_stop, c)] = lhs.mean / rhs.mean
                    # forward rows keep the unpaired slack, also at envelope 1
                    reports.append(RatioReport(f"forward:{spec.rule}:{gname}:T{t_stop}:c{c}",
                                               lhs, rhs, fwd_bound, steps["4n"], extras=extras))
                    reports.append(tally.row(f"reverse:{spec.rule}:{gname}:T{t_stop}:c{c}",
                                             key, rev_bound, steps["4n"], extras, reverse=True))
            reports.append(_spread_row(f"sweep:{spec.rule}:{gname}", ratios.values(),
                                       stability_factor, steps["4n"], {"combos": len(ratios)}))
            r_coarse = tally.ratio((spec.rule, gname, "n", horizon, 1.0))
            r_fine = ratios[(horizon, 1.0)]
            reports.extend(
                _stability_rows(f"stability:{spec.rule}:{gname}", r_fine, r_coarse, 0.15,
                                steps["n"])
            )
            if gname == "power_2":
                # homogeneity: the analytic c-scaling cancels bitwise
                reports.append(_scaling_row(f"scaling-exact:{spec.rule}",
                                            [ratios[(1.0, c)] for c in scales],
                                            ratios[(1.0, 1.0)], steps["4n"]))
    reports.append(tally.row("single-atom-fwd", "single", 4.0, steps["4n"]))
    reports.append(tally.row("single-atom-rev", "single", 1.0, steps["4n"], reverse=True))
    reports.extend(norm_checks)
    return ExperimentResult("orlicz_bdg", n, reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# registry


EXPERIMENTS = {
    "young": run_young,
    "moment_constant": run_moment_constant,
    "isometry": run_isometry,
    "good_lambda": run_good_lambda,
    "bdg_scalar": run_bdg_scalar,
    "doob_orlicz": run_doob_orlicz,
    "lenglart": run_lenglart,
    "orlicz_bdg": run_orlicz_bdg,
}

EXPERIMENT_SUMMARY = {
    "young": "Young's inequality gap for complementary N-function pairs",
    "moment_constant": "feasibility of the tail-to-moment constant derivation",
    "isometry": "Ito isometry at stopping times, two grid resolutions",
    "good_lambda": "good-lambda tail lines for the capped first-exit pair",
    "bdg_scalar": "scalar BDG/Doob bracket for suite martingales",
    "doob_orlicz": "Orlicz Doob maximal comparison with hypothesis audit",
    "lenglart": "Lenglart-type domination for certified pairs",
    "orlicz_bdg": "two-sided Orlicz BDG for vector stochastic integrals",
}


def experiment_defaults(name: str) -> dict:
    """Default knob values an experiment resolves when the config omits them.

    ``params`` lists every key the experiment reads; ``run_experiment``
    rejects any other.
    """
    betas, deltas = (1.5, 2.0, 4.0), (0.05, 0.1, 0.25)
    weights4 = [1.0, 1.0, 2.0, 0.5]
    defaults = {
        "young": {"replicates": 0, "grid_n": 32,
                  "params": {"extra_gauges": []}},
        "moment_constant": {"replicates": 0, "grid_n": 0,
                            "params": {"betas": betas, "deltas": deltas, "orders": (1.0, 2.0)}},
        "isometry": {"replicates": 100_000, "grid_n": 256,
                     "params": {"horizon": 1.0, "weights": [1.0, 0.5], "exit_level": 1.0,
                                "clock_threshold": 0.35}},
        "good_lambda": {"replicates": 100_000, "grid_n": 2048,
                        "params": {"horizon": 4.0, "exit_level": 1.0, "betas": betas,
                                   "deltas": deltas, "lambdas": np.geomspace(0.05, 0.8, 8)}},
        "bdg_scalar": {"replicates": 100_000, "grid_n": 1024, "params": {"horizon": 1.0}},
        "doob_orlicz": {"replicates": 100_000, "grid_n": 1024,
                        "params": {"horizon": 1.0, "lambdas": np.geomspace(0.1, 2.0, 8)}},
        # one table for both pairs; the Orlicz pair runs on orlicz_grid_n
        "lenglart": {"replicates": 40_000, "grid_n": 2048,
                     "params": {"pairs": CERTIFIED_PAIRS, "horizon": 4.0,
                                "lambdas": np.geomspace(0.1, 1.2, 6), "stability_factor": 10.0,
                                "orlicz_grid_n": 1024, "weights": weights4,
                                "clock_threshold": 0.5}},
        "orlicz_bdg": {"replicates": 20_000, "grid_n": 512,
                       "params": {"weights": weights4, "stability_factor": 10.0,
                                  "envelope": 50.0}},
    }
    if name not in defaults:
        raise LabError(f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    return defaults[name]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_reals(value) -> bool:
    return isinstance(value, (list, tuple, np.ndarray)) and all(map(_is_real, value))


def run_experiment(cfg) -> ExperimentResult:
    """Dispatch a validated config to its experiment."""
    if cfg.experiment not in EXPERIMENTS:
        raise LabError(
            f"unknown experiment {cfg.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    defaults = experiment_defaults(cfg.experiment)
    for size in ("replicates", "grid_n"):
        # a size whose default is 0 is one the experiment never reads
        if getattr(cfg, size) is not None and not defaults[size]:
            raise LabError(f"{cfg.experiment}: {size} is not used; leave it unset")
    known = defaults["params"]
    unknown = sorted(repr(key) for key in cfg.params if key not in known)
    if unknown:
        raise LabError(
            f"{cfg.experiment}: unknown params {', '.join(unknown)};"
            f" known: {', '.join(sorted(known))}"
        )
    for key, value in cfg.params.items():
        # a numeric default fixes the type; other defaults (pairs, gauges) are free-form
        default = known[key]
        if _is_real(default) and not _is_real(value):
            raise LabError(f"{cfg.experiment}: params.{key} must be a number, got {value!r}")
        if _is_reals(default) and len(default) and not _is_reals(value):
            raise LabError(
                f"{cfg.experiment}: params.{key} must be a list of numbers, got {value!r}"
            )
    return EXPERIMENTS[cfg.experiment](cfg)
