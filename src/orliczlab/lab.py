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
  checks.  Its cases are one table, ``_BDG_CASES``: a frozen ``_BdgCase``
  per (integrand rule, gauge) holds the forward and reverse bounds, whether
  they are a placeholder envelope, and whether the case has a scaling row;
  the kernel realizes each rule once and loops over its cases.

Writing a Monte Carlo experiment
--------------------------------
An experiment is one ``Experiment`` entry in ``EXPERIMENTS``: its run, the
summary ``list-experiments`` prints, the tag its report rows carry, its
default sizes, its ``--fast`` replicates and a default for every param key
it reads.  ``run_experiment`` rejects any other key, a value that is not a
number (or a list of numbers) where the default is one, and a
``replicates`` or ``grid_n`` whose default is 0; it hands the run
``(cfg, replicates, grid_n, params)`` with each defaulted from the entry.

An experiment is a kernel plus a finalize step.  The kernel,
``kernel(tag, b)``, sees one tile of driver replicates ``b`` (a
``BrownianBatch``) and yields ``(key, (lhs, rhs))``: both sides of an
inequality as per-replicate arrays, on shared replicates, and nothing else;
the bounds appear in finalize only.  A sweep over K levels (the lambdas of a
tail line) yields one row group instead: ``(rows, K)`` sides under one key,
whose column k is tallied as key ``(*key, k)``.  Every key
carries ``tag`` when the experiment runs on two grids.  A kernel must treat
each replicate on its own (prefix sums, maxima, hitting times and modulars
run along time or atoms, never across replicates), so its outputs do not
depend on how the rows are cut into tiles.  Kernels run two at a time, on
worker threads, so a kernel must also be a pure function of its tile: it
changes nothing outside its outputs (no closure list, no counter).  What
finalize needs besides the tally (a sample, a count) goes out under a key
that begins with ``_``, as ``(values,)``; the executor keeps those values
in tile order and does not tally them.

``_execute(seed, name, coords, grid, replicates, batch, kernel, factor)``
owns the rest, at two grains: it draws the driver in blocks of about
4 MiB of normals on one worker thread; it runs the kernel on kernel tiles
of about 1 MiB, row slices of a block, on two more, as ``"4n"`` on the
grid refined by ``factor = 4`` and then as ``"n"`` coarsened back to
``grid``; and, on the calling thread, it reads the tiles' outputs in tile
order and feeds a ``_Tally`` once per batch with them concatenated.
``tally.kept`` holds the ``_`` keys' values.
Finalize then builds the rows from the returned tally with ``_Tally.row``
(``reverse=True`` checks rhs against lhs) at ``tally.steps[tag]``; every
such row, at any bound and in either direction, takes the paired slack of
``stats.paired_stderr``.
Deterministic rows come from ``_exact_row`` and its forms
``_stability_rows``, ``_spread_row`` and ``_scaling_row``.  Every supremum
goes through ``paths.running_abs_max``, a stopped one through
``_max_to_hit``, so patching those two reaches them all.
"""

from __future__ import annotations

import numbers
from collections import deque
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from types import MappingProxyType

import numpy as np

from .gauges import (
    NotNFunctionError,
    classify_gauge,
    complementary_gauge,
    gauge_from_config,
    get_gauge,
    phi_of,
    registry_gauges,
    young_gap,
)
from .integrate import ProcessSpec, triple_norm_path
from .paths import (
    PathGrid,
    draw_tiles,
    hitting_index,
    quadratic_variation,
    running_abs_max,
    simulate_batch,
)
from .spaces import DiscreteMeasureSpace, luxemburg_of_norms, modular_of_norms
from .stats import ExperimentResult, McEstimate, RatioReport, RunningMoments, paired_stderr

__all__ = [
    "LabError",
    "derive_moment_constant",
    "good_lambda_bound",
    "lenglart_constant",
    "EXPERIMENTS",
    "Experiment",
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
# shared machinery


# Bytes of normals per kernel tile: a tile's paths and the kernel's arrays on
# them stay near a MiB each, whatever the batch size, with two tiles in kernels.
_TILE_BYTES = 1 << 20
# Kernel tiles per draw: each ``draw_tiles`` step fills a block of about
# 4 MiB of normals, which its tiles take as row slices.
_DRAW_TILES = 4
# Tile kernels that run at once, each on its own worker thread: one per core.
_KERNEL_THREADS = 2


def _tile_rows(size: int, row_bytes: int) -> list:
    """Rows per kernel tile of a ``size``-row batch: as many as
    ``_TILE_BYTES`` holds, at least 2.  A 1-row remainder joins the tile
    before it: numpy takes a (1, atoms) @ weights product down its dot path,
    whose bits differ from the gemv of more rows."""
    rows = max(2, _TILE_BYTES // row_bytes)
    tiles = [min(rows, size - done) for done in range(0, size, rows)]
    if len(tiles) > 1 and tiles[-1] == 1:
        tiles[-2:] = [tiles[-2] + 1]
    return tiles


def _execute(seed: int, name: str, coords: int, grid: PathGrid, replicates: int, batch: int,
             kernel, factor: int = 1) -> "_Tally":
    """Run ``kernel`` over every driver tile and tally its outputs per batch.

    Batch ``i`` draws substream ``(name, "batch", i)`` on ``grid`` refined by
    ``factor``.  The executor works at two grains.  A kernel tile is a run
    of rows (``_tile_rows``, about ``_TILE_BYTES`` of normals); a draw block
    is ``_DRAW_TILES`` consecutive tiles of a batch, filled by one
    ``draw_tiles`` step, and each of its tiles is a row slice of it.  Each
    tile goes to ``kernel("n", tile)``; with ``factor > 1`` to
    ``kernel(f"{factor}n", tile)`` and then to ``kernel("n", coarse)``, the
    same driver on ``grid``.  A kernel yields ``(key, (lhs, rhs))`` pairs
    with per-replicate ``lhs`` and ``rhs``, each key once per tile; a
    ``(rows, K)`` pair is a row group, whose column k the tally adds as key
    ``(*key, k)``.  Once per batch, each key's arrays are concatenated in
    tile order and added as ``tally.add(key, lhs, rhs)``, keys
    in the order first yielded: a batch's sums stay one pairwise sum,
    whatever its tiles.  A key that begins with ``_`` yields ``(values,)``
    instead, as often as it likes; it is not tallied, and
    ``tally.kept[key]`` holds its values of every tile concatenated in tile
    order.  The tally's ``steps`` maps each tag to its grid steps.

    Up to ``_KERNEL_THREADS`` tiles are in kernels at once, each job on a
    worker thread: ``simulate_batch`` on the tile's slice of its block, the
    kernel calls and copies of their outputs, so no view keeps a block
    alive past its tiles.  The calling thread reads the jobs in tile order,
    never in completion order, so a kernel must be a pure function of its
    tile.  One more worker draws the blocks two ahead of the block whose
    tiles are being begun.  The draw stays sequential: a batch's generators
    continue from block to block, so the bits are those of drawing whole
    batches in sequence.  An error in a draw or a kernel reaches the caller
    once the jobs before it are read; jobs not begun are cancelled and
    running ones waited for.
    """
    fine = PathGrid(grid.horizon, grid.steps * factor)
    plan = [_tile_rows(min(batch, replicates - done), coords * fine.steps * 8)
            for done in range(0, replicates, batch)]
    blocks = [[tiles[i:i + _DRAW_TILES] for i in range(0, len(tiles), _DRAW_TILES)]
              for tiles in plan]  # per batch, the kernel tiles of each draw block
    normals = (block for i, batch_blocks in enumerate(blocks)
               for block in draw_tiles(seed, (name, "batch", i), coords, fine.steps,
                                       list(map(sum, batch_blocks))))
    tally = _Tally({"n": grid.steps, f"{factor}n": fine.steps})
    drawer, pool = ThreadPoolExecutor(max_workers=1), ThreadPoolExecutor(_KERNEL_THREADS)

    def job(draw, rows):
        tile = simulate_batch(draw.result()[:, rows], fine)
        outs = kernel("n", tile) if factor == 1 else chain(
            kernel(f"{factor}n", tile), kernel("n", tile.coarsened(factor)))
        return [(key, [np.array(a) for a in sides]) for key, sides in outs]

    def jobs():  # one per kernel tile, in tile order
        draws = deque(drawer.submit(next, normals, None) for _ in range(2))
        for tiles in chain.from_iterable(blocks):
            draws.append(drawer.submit(next, normals, None))
            draw, start = draws.popleft(), 0
            for rows in tiles:
                yield pool.submit(job, draw, slice(start, start + rows))
                start += rows

    try:
        pending = jobs()
        running = deque(islice(pending, _KERNEL_THREADS))
        for rows in plan:
            parts = {}
            for _ in rows:
                outs = running.popleft().result()
                running.extend(islice(pending, 1))
                for key, sides in outs:
                    parts.setdefault(key, []).append(sides)
            for key, values in parts.items():
                sides = [np.concatenate(side) for side in zip(*values)]
                if key[0] == "_":
                    tally.kept[key] = np.concatenate([tally.kept.get(key, sides[0][:0]), *sides])
                else:
                    tally.add(key, *sides)
    finally:  # cancel the jobs and draws not begun, wait for the running ones
        drawer.shutdown(cancel_futures=True)
        pool.shutdown(cancel_futures=True)
    return tally


class _Tally:
    """Paired moments per key: both sides on shared replicates, plus the
    sum of their products, from which a row at any bound reads its slack."""

    def __init__(self, steps) -> None:
        self.steps = steps  # grid steps per tag
        self.kept = {}  # untallied kernel outputs: key -> values in tile order
        self._sides = {}
        self._cross = {}  # key -> sum of lhs * rhs

    def add(self, key, lhs, rhs) -> None:
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        if lhs.ndim == 2:  # a row group: column k is key (*key, k)
            for k in range(lhs.shape[1]):
                self.add((*key, k), lhs[:, k], rhs[:, k])
            return
        if key not in self._sides:
            self._sides[key] = (RunningMoments(), RunningMoments())
            self._cross[key] = 0.0
        self._sides[key][0].add(lhs)
        self._sides[key][1].add(rhs)
        self._cross[key] += float((lhs * rhs).sum())

    def keys(self):
        return self._sides.keys()

    def ratio(self, key) -> float:
        lhs, rhs = self._sides[key]
        return lhs.estimate().mean / rhs.estimate().mean

    def row(self, label, key, bound, grid_n, extras=None, reverse=False) -> RatioReport:
        """``lhs <= bound * rhs``, or ``rhs <= bound * lhs`` when ``reverse``,
        with the paired slack of the two sides at ``bound``."""
        lhs, rhs = self._sides[key]
        if reverse:
            lhs, rhs = rhs, lhs
        return RatioReport(label, lhs.estimate(), rhs.estimate(), bound, grid_n,
                           paired_stderr(lhs, rhs, self._cross[key], bound), extras or {})


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


# Largest over smallest ratio a sweep of stopping times (and scales) may span.
_SPREAD_FACTOR = 10.0
# Horizon of the vector integrals: orlicz_bdg's and the lenglart Orlicz pair's.
_VECTOR_HORIZON = 2.0


def _spread_row(label, ratios, factor, grid_n, extras=None) -> RatioReport:
    """Largest over smallest of a sweep's ratios, within ``factor``."""
    return _exact_row(label, max(ratios), min(ratios), factor, grid_n, extras)


def _scaling_row(label, scaled, base, grid_n) -> RatioReport:
    """Bitwise invariance under X -> cX: every ratio in ``scaled``, taken
    from the scaled sums, must equal the unscaled ``base``.  The row spans
    them all with bound 1, so a ratio off either way fails it."""
    exact = all(v == base for v in scaled)
    return _spread_row(label, [*scaled, base], 1.0, grid_n, {"scaling_exact": exact})


# ---------------------------------------------------------------------------
# analytic experiments


def run_young(cfg, _replicates, grid_pts, params) -> ExperimentResult:
    """Young's inequality st <= L(s) + comp(t) for strict N-function gauges."""
    s_grid = np.geomspace(0.05, 20.0, grid_pts)
    t_grid = np.geomspace(0.05, 20.0, grid_pts)
    candidates = list(registry_gauges().items())
    extra = params["extra_gauges"]
    if not isinstance(extra, (list, tuple)):
        raise LabError(f"young: params.extra_gauges must be a list of gauges, got {extra!r}")
    for i, gcfg in enumerate(extra):
        if not (isinstance(gcfg, dict) and "family" in gcfg):
            raise LabError(f"young: params.extra_gauges[{i}] must be a gauge mapping, got {gcfg!r}")
        gauge = gauge_from_config(gcfg)
        candidates.append((f"extra{i}:{gauge.label}", gauge))
    reports = []
    for name, gauge in candidates:
        try:
            comp = complementary_gauge(gauge)
        except NotNFunctionError:  # Young's inequality is stated for N-functions
            continue
        gaps = young_gap(gauge, comp, s_grid[:, None], t_grid[None, :])
        reports.append(_exact_row(f"young-gap:{name}", -float(gaps.min()), 1.0, 1e-9, grid_pts,
                                  {"min_gap": float(gaps.min())}))
        if name == "half_square":
            # equality t = L'(s): gap vanishes along the derivative curve
            eq_gaps = young_gap(gauge, comp, s_grid, gauge.derivative(s_grid))
            reports.append(_exact_row("young-equality:half_square",
                                      float(np.abs(eq_gaps).max()), 1.0, 1e-6, grid_pts))
    return ExperimentResult("young", reports)


def run_moment_constant(cfg, _replicates, _grid_n, params) -> ExperimentResult:
    """Feasibility of the derived moment constant across the parameter grid."""
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
    return ExperimentResult("moment_constant", reports)


# ---------------------------------------------------------------------------
# Ito isometry


def run_isometry(cfg, replicates, n, params) -> ExperimentResult:
    """E |I_tau|^2 = E eta_tau per (integrand, stopping time, atom, grid)."""
    space = DiscreteMeasureSpace(params["weights"])
    gauge = get_gauge("power_2")
    specs = [
        ProcessSpec("constant_e1"),
        ProcessSpec("sign_of_B1"),
        ProcessSpec("B1_times_e1"),
        ProcessSpec("two_coord_mix"),
    ]

    def kernel(tag, b):
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
                    yield (spec.rule, stop, a, tag), (i_tau[:, a] ** 2, eta_tau[:, a])

    tally = _execute(cfg.seed, "isometry", 2, PathGrid(params["horizon"], n), replicates, 2048,
                     kernel, 4)
    reports = []
    for key in tally.keys():
        rule, stop, a, tag = key
        base = f"{rule}:{stop}:atom{a}@{tag}"
        reports += [tally.row(f"isometry-{d}:{base}", key, 1.0, tally.steps[tag],
                              reverse=d == "rev") for d in ("fwd", "rev")]
    return ExperimentResult("isometry", reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# good-lambda tail lines


def run_good_lambda(cfg, replicates, n, params) -> ExperimentResult:
    """Tail domination for (B*_tau, sqrt(tau)), tau = capped first exit."""
    betas = tuple(params["betas"])
    deltas = tuple(params["deltas"])
    for key, values in (("betas", betas), ("deltas", deltas)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            # tail rows are keyed by value: a repeat would merge two passes into one row
            raise LabError(f"good_lambda: params.{key} repeats the value {repeated[0]!r}")
    lambdas = np.asarray(params["lambdas"], dtype=float)

    def kernel(tag, b):
        absb = np.abs(b.paths[:, 0, :])
        tau, hit = hitting_index(absb, params["exit_level"])  # sentinel = horizon cap
        x = _max_to_hit(absb, tau, hit)
        y = np.sqrt(tau * b.grid.dt)
        for line in (1, 2):
            big, small = (x[:, None], y[:, None]) if line == 1 else (y[:, None], x[:, None])
            over = big > lambdas  # (rows, lambdas): a row group, key k per lambda
            for beta in betas:
                high = big > beta * lambdas
                for delta in deltas:
                    yield ("tail", tag, line, beta, delta), (high & (small < delta * lambdas), over)
        for p in (1, 2):
            yield ("moment", tag, p), (x**p, y**p)

    tally = _execute(cfg.seed, "good_lambda", 1, PathGrid(params["horizon"], n), replicates,
                     2048, kernel, 4)
    c1 = good_lambda_bound(2.0, 0.1, 1)
    c2 = good_lambda_bound(2.0, 0.1, 2)
    reports = []
    for key in tally.keys():  # per grid: tail lines, then moments
        if key[0] == "tail":
            _, tag, line, beta, delta, k = key
            reports.append(tally.row(
                f"good-lambda-line{line}:beta{beta}:delta{delta}:lam{k}@{tag}", key,
                good_lambda_bound(beta, delta, line), tally.steps[tag],
                {"lambda": float(lambdas[k])},
            ))
        else:
            # moment comparisons with the derived constants (beta=2, delta=0.1)
            _, tag, p = key
            reports.append(tally.row(f"moment-p{p}-fwd@{tag}", key,
                                     derive_moment_constant(2.0, 0.1, p, c1), tally.steps[tag]))
            reports.append(tally.row(f"moment-p{p}-rev@{tag}", key,
                                     derive_moment_constant(2.0, 0.1, p, c2), tally.steps[tag],
                                     reverse=True))
    return ExperimentResult("good_lambda", reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# scalar BDG bracket


def run_bdg_scalar(cfg, replicates, n, params) -> ExperimentResult:
    """Doob bracket E sup|M|^2 / E<M> in [1, 4] for the suite martingales."""
    space1 = DiscreteMeasureSpace([1.0])
    sign_spec = ProcessSpec("sign_of_B1")

    def kernel(tag, b):
        realized = sign_spec.realize(b.paths, b.grid, space1)
        path, inc = b.paths[:, 0, :], b.increments[:, 0, :]
        for c in (1.0, 2.0):  # M -> 2M: B -> 2B and X -> 2X
            if c != 1.0:
                path, inc = c * path, c * inc
            yield ("bm", c), (running_abs_max(path, [b.grid.steps])[:, 0] ** 2,
                              quadratic_variation(inc)[:, -1])
            scaled = replace(realized, coef=c * realized.coef)
            sup = running_abs_max(scaled.integral(b.increments)[:, :, 0], [b.grid.steps])[:, 0]
            yield ("sign_integral", c), (sup**2, scaled.eta()[:, -1, 0])

    tally = _execute(cfg.seed, "bdg_scalar", 1, PathGrid(params["horizon"], n), replicates,
                     2048, kernel)
    reports = []
    for d in ("bm", "sign_integral"):
        # M -> 2M multiplies both sides by 4, exactly in binary floats, so the
        # ratio of the scaled run must agree bitwise
        ratio, ratio_scaled = tally.ratio((d, 1.0)), tally.ratio((d, 2.0))
        extras = {"ratio_scaled_2": ratio_scaled, "scaling_exact": ratio == ratio_scaled}
        reports.append(tally.row(f"bdg-upper:{d}", (d, 1.0), 4.0, n, extras))
        reports.append(tally.row(f"bdg-lower:{d}", (d, 1.0), 1.0, n, {"ratio": ratio},
                                 reverse=True))
    return ExperimentResult("bdg_scalar", reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# Doob-Orlicz maximal comparison


def run_doob_orlicz(cfg, replicates, n, params) -> ExperimentResult:
    """Hypothesis audit and conclusion E L(xi) <= C E L(eta) for the pair suite."""
    lambdas = np.asarray(params["lambdas"], dtype=float)

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

    def kernel(tag, b):
        terminal = np.abs(b.paths[:, 0, -1])
        supremum = running_abs_max(b.paths[:, 0, :], [b.grid.steps])[:, 0]
        pairs = {"identity": (terminal, terminal), "dominated": (terminal, supremum),
                 "doob": (supremum, terminal)}
        for pname, (xi, eta) in pairs.items():
            on = xi[:, None] >= lambdas  # (rows, lambdas): a row group, key k per lambda
            lhs_s = lambdas * on
            rhs_s = eta[:, None] * on
            yield ("hypothesis", tag, pname), (lhs_s, rhs_s)
            if pname == "dominated":
                yield "_violations", (lhs_s > rhs_s,)
            for gname, gauge in gauges:
                yield ("conclusion", tag, pname, gname), (gauge(xi), gauge(eta))

    tally = _execute(cfg.seed, "doob_orlicz", 1, PathGrid(params["horizon"], n), replicates,
                     2048, kernel, 4)
    violations = int(np.count_nonzero(tally.kept["_violations"]))
    reports = []
    for key in tally.keys():
        kind, tag, pname, k = key
        if kind == "hypothesis":
            reports.append(tally.row(f"hypothesis:{pname}:lam{k}@{tag}", key, 1.0,
                                     tally.steps[tag], {"lambda": float(lambdas[k])}))
    notes = {"dominated_pointwise_violations": violations}
    if violations > 0 or not all(row.passed for row in reports):
        notes["audit_failed"] = True
        return ExperimentResult("doob_orlicz", reports, notes)

    for key in tally.keys():
        kind, tag, pname, gname = key
        # (doob, lambda_2) is handled by the stability rows below
        if kind == "conclusion" and (pname, gname) != ("doob", "lambda_2"):
            reports.append(tally.row(f"conclusion:{pname}:{gname}@{tag}", key,
                                     bounds.get((pname, gname), 1.0), tally.steps[tag]))
    ratios = {tag: tally.ratio(("conclusion", tag, "doob", "lambda_2")) for tag in ("4n", "n")}
    reports.extend(_stability_rows("stability:doob:lambda_2", ratios["4n"], ratios["n"], 0.10, n))
    return ExperimentResult("doob_orlicz", reports, notes)


# ---------------------------------------------------------------------------
# Lenglart-type domination


CERTIFIED_PAIRS = ("scalar", "orlicz")


def run_lenglart(cfg, replicates, n, params) -> ExperimentResult:
    """Certified domination pairs: hypothesis audit, tail line, conclusion."""
    pair_list = params["pairs"]
    if isinstance(pair_list, str):
        pair_list = (pair_list,)
    if not isinstance(pair_list, (list, tuple)) or not pair_list:
        raise LabError(f"lenglart: params.pairs must be a certified pair name or a non-empty"
                       f" list of them, got {pair_list!r}")
    for p in pair_list:
        if p not in CERTIFIED_PAIRS:
            raise LabError(f"lenglart: params.pairs names the uncertified pair {p!r};"
                           f" certified: {', '.join(CERTIFIED_PAIRS)}")
    # each size is read by one pair only; unread, it would be silently ignored
    for pair, size, value in (("scalar", "grid_n", cfg.grid_n),
                              ("orlicz", "params.orlicz_grid_n", cfg.params.get("orlicz_grid_n"))):
        if value is not None and pair not in pair_list:
            raise LabError(f"lenglart: {size} is read by the {pair} pair only, which"
                           f" params.pairs does not select; leave it unset")
    reports, audit_ok = [], True
    for pair in (p for p in CERTIFIED_PAIRS if p in pair_list):
        rows, ok = (_lenglart_scalar(cfg.seed, replicates, n, params) if pair == "scalar"
                    else _lenglart_orlicz(cfg.seed, replicates, params))
        reports.extend(rows)
        audit_ok = audit_ok and ok
    return ExperimentResult("lenglart", reports, {} if audit_ok else {"audit_failed": True})


def _lenglart_scalar(seed, replicates, n, params):
    """xi = B, rho = |x - y|, q = 2, N = sqrt(<B>), kappa = 1."""
    horizon = params["horizon"]
    grid = PathGrid(horizon, n)
    lambdas = np.asarray(params["lambdas"], dtype=float)
    eps = 0.25
    sweep_times = (0.5, 1.0, 2.0)
    c_star = lenglart_constant(2.0, 1.0, 1.0, 2.0)
    sweep_idx = [grid.index_of(t) for t in sweep_times]

    def kernel(tag, b):
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
        # E (B_tau - B_sigma)^2 <= ess sup <B> P(sigma < tau), with ess sup <B> the horizon
        for w, sigma in windows.items():
            yield ("hypothesis", w), ((b_tau - _take_at(path, sigma)) ** 2, horizon * (sigma < tau))
        # one-step tail line P(M* >= lam) <= kappa (2 g eps)^q P(2 g M* >= lam)
        #                                     + P(N > eps lam), with g=1, q=2
        # (rows, lambdas): a row group, key ("tail", k) per lambda
        shrink = (2.0 * eps) ** 2
        star_col = star[:, None]
        rhs_s = shrink * (2.0 * star_col >= lambdas) + (np.sqrt(clock)[:, None] > eps * lambdas)
        yield ("tail",), (star_col >= lambdas, rhs_s)
        yield "conclusion", (star**2, clock)
        run_max = running_abs_max(path, sweep_idx)
        for k, t_stop in enumerate(sweep_times):
            yield ("sweep", t_stop), (run_max[:, k] ** 2, np.full(b.replicates, t_stop))
        for c in (0.5, 2.0):  # B -> cB through the T = 1 sweep: <cB>_1 = c^2
            scaled = running_abs_max(c * path, [sweep_idx[1]])[:, 0] ** 2
            yield ("scaled", c), (scaled, np.full(b.replicates, c * c))

    tally = _execute(seed, "lenglart_scalar", 1, grid, replicates, 2048, kernel)
    reports = []
    for w in ("zero", "half-exit", "half-horizon"):
        reports.append(tally.row(f"hypothesis:scalar:{w}", ("hypothesis", w), 1.0, n,
                                 {"ess_sup_clock": horizon}))
    for k in range(lambdas.size):
        reports.append(tally.row(f"tail:scalar:lam{k}", ("tail", k), 1.0, n,
                                 {"lambda": float(lambdas[k]), "eps": eps}))
    if not all(row.passed for row in reports):
        return reports, False

    reports.append(tally.row("conclusion:scalar:certified", "conclusion", c_star, n,
                             {"constant": c_star}))
    ratios = {t: tally.ratio(("sweep", t)) for t in sweep_times}
    reports += [tally.row(f"sweep:scalar:T{t}", ("sweep", t), c_star, n, {"ratio": r})
                for t, r in ratios.items()]
    reports.append(_spread_row("sweep:scalar:spread", ratios.values(), _SPREAD_FACTOR, n))
    reports.append(_scaling_row("scaling-exact:scalar",
                                [tally.ratio(("scaled", c)) for c in (0.5, 2.0)], ratios[1.0], n))
    return reports, True


def _lenglart_orlicz(seed, replicates, params):
    """xi = vector integral, rho1 = modular difference, N = clock modular."""
    n_master = params["orlicz_grid_n"]
    grid = PathGrid(_VECTOR_HORIZON, n_master)
    space = DiscreteMeasureSpace(params["weights"])
    gauge = get_gauge("power_2")
    gamma1 = phi_of(gauge, 2.0)  # triangle constant of the modular difference
    gamma2 = 2.0  # the clock metric sums weighted absolute differences
    spec = ProcessSpec("two_coord_mix")
    threshold = float(params["clock_threshold"])
    sweep_times = (0.5, 1.0, 2.0)
    sweep_idx = [grid.index_of(t) for t in sweep_times]  # the last one is the horizon

    def kernel(tag, b):
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
            rho_diff = modular_of_norms(np.abs(i_tau - _take_at(integral, sigma)), space.weights,
                                        gauge)
            clock_diff = ((eta_tau - _take_at(eta, sigma)) @ space.weights)
            yield ("hypothesis", w), (rho_diff, clock_diff)
        yield "conclusion", (run_mod[:, -1], clock_path[:, -1])
        for k, (t_stop, idx) in enumerate(zip(sweep_times, sweep_idx)):
            yield ("sweep", t_stop), (run_mod[:, k], clock_path[:, idx])
        one = sweep_idx[1]
        for c in (0.5, 2.0):  # X -> cX through the T = 1 sweep
            scaled = modular_of_norms(c * np.abs(integral[:, : one + 1]), space.weights, gauge)
            yield ("scaled", c), (running_abs_max(scaled, [one])[:, 0],
                                  modular_of_norms(c * np.sqrt(eta[:, one]), space.weights, gauge))

    tally = _execute(seed, "lenglart_orlicz", 2, grid, replicates, 512, kernel)

    reports = [tally.row(f"hypothesis:orlicz:{w}", ("hypothesis", w), 1.0, n_master)
               for w in ("half-horizon", "clock_threshold")]
    if not all(row.passed for row in reports):
        return reports, False

    c_cert = lenglart_constant(1.0, 2.0 * gamma2, gamma1, 1.0)
    reports.append(tally.row("conclusion:orlicz:doob", "conclusion", 4.0, n_master))
    reports.append(tally.row("conclusion:orlicz:certified", "conclusion", c_cert, n_master,
                             {"constant": c_cert, "gamma1": gamma1}))
    reports += [tally.row(f"sweep:orlicz:T{t}", ("sweep", t), 4.0, n_master) for t in sweep_times]
    ratios = {t: row.ratio for t, row in zip(sweep_times, reports[-len(sweep_times):])}
    reports.append(_spread_row("sweep:orlicz:spread", ratios.values(), _SPREAD_FACTOR,
                               n_master))
    reports.append(_scaling_row("scaling-exact:orlicz",
                                [tally.ratio(("scaled", c)) for c in (0.5, 2.0)], ratios[1.0],
                                n_master))
    return reports, True


# ---------------------------------------------------------------------------
# two-sided Orlicz comparison for vector integrals


@dataclass(frozen=True)
class _BdgCase:
    """One ``orlicz_bdg`` case: integrand ``rule`` under ``gauge``, checked as
    sup modular <= ``forward`` * clock modular and clock modular <=
    ``reverse`` * sup modular at every read time and scale.  ``envelope``
    marks bounds that are placeholders, not certified paper constants;
    ``scaling`` adds the row checking the ratio's invariance under X -> cX."""

    rule: str
    gauge: str
    forward: float
    reverse: float
    envelope: bool = False
    scaling: bool = False


# The cases in row order.  The lambda_2 bound 50 both ways is a placeholder
# envelope, not a certified constant.
_BDG_CASES = (
    _BdgCase("sign_of_B1", "power_2", 4.0, 1.0, scaling=True),
    _BdgCase("sign_of_B1", "lambda_2", 50.0, 50.0, envelope=True),
    _BdgCase("two_coord_mix", "power_2", 4.0, 1.0, scaling=True),
    _BdgCase("two_coord_mix", "lambda_2", 50.0, 50.0, envelope=True),
)


def run_orlicz_bdg(cfg, replicates, n, params) -> ExperimentResult:
    """E Phi(sup_t [I_t]) vs E Phi([sqrt(eta_tau)]) in both directions, per case."""
    horizon = _VECTOR_HORIZON
    space = DiscreteMeasureSpace(params["weights"])
    space1 = DiscreteMeasureSpace([1.0])
    sweep_times = (0.5, 1.0, 2.0)
    scales = (0.5, 1.0, 2.0)

    gauges = {case.gauge: get_gauge(case.gauge) for case in _BDG_CASES}
    for name, gauge in gauges.items():  # each case's hypothesis, gauge by gauge
        if not classify_gauge(gauge).a2_operational:
            raise LabError(f"{name} fails the operational A2 probe")
    single_spec = ProcessSpec("constant_e1")

    def kernel(tag, b):
        times, cs = (sweep_times, scales) if tag == "4n" else ((horizon,), (1.0,))
        read = [b.grid.index_of(t) for t in times]
        for rule in dict.fromkeys(case.rule for case in _BDG_CASES):  # each rule realized once
            realized = ProcessSpec(rule).realize(b.paths, b.grid, space)
            abs_integral = np.abs(realized.integral(b.increments))
            eta = realized.eta()
            roots = [np.sqrt(eta[:, i]) for i in read]
            for c in cs:
                # every scale is evaluated, so the scaling rows compare two computations
                scaled = c * abs_integral
                for case in [x for x in _BDG_CASES if x.rule == rule]:
                    gauge = gauges[case.gauge]
                    # the modular is >= 0, so its running max is its running abs max
                    sup = running_abs_max(modular_of_norms(scaled, space.weights, gauge), read)
                    for k, (t_stop, root) in enumerate(zip(times, roots)):
                        clock = modular_of_norms(c * root, space.weights, gauge)
                        yield (rule, case.gauge, tag, t_stop, c), (sup[:, k], clock)
            if tag == "4n" and rule == "two_coord_mix":  # for the norm-agreement rows
                yield "_sample", (np.sqrt(eta[:32, -1, :]),)
        if tag == "4n":
            # single-atom reduction: X = e1, modular path = B^2, clock = t
            realized = single_spec.realize(b.paths, b.grid, space1)
            integral = realized.integral(b.increments)[:, :, 0]
            idx = b.grid.index_of(1.0)
            sup_sq = running_abs_max(integral, [idx])[:, 0] ** 2  # squaring is monotone in |x|
            yield "single", (sup_sq, realized.eta()[:, idx, 0])

    tally = _execute(cfg.seed, "orlicz_bdg", 2, PathGrid(horizon, n), replicates, 512, kernel, 4)
    steps = tally.steps
    reports = []
    for case in _BDG_CASES:
        name = f"{case.rule}:{case.gauge}"
        extras = {"bound_kind": "envelope"} if case.envelope else {}
        ratios = {}
        for t_stop in sweep_times:
            for c in scales:
                key = (case.rule, case.gauge, "4n", t_stop, c)
                ratios[(t_stop, c)] = tally.ratio(key)
                label = f"{name}:T{t_stop}:c{c}"
                reports.append(tally.row(f"forward:{label}", key, case.forward, steps["4n"],
                                         extras))
                reports.append(tally.row(f"reverse:{label}", key, case.reverse, steps["4n"],
                                         extras, reverse=True))
        reports.append(_spread_row(f"sweep:{name}", ratios.values(), _SPREAD_FACTOR, steps["4n"],
                                   {"combos": len(ratios)}))
        r_coarse = tally.ratio((case.rule, case.gauge, "n", horizon, 1.0))
        reports.extend(_stability_rows(f"stability:{name}", ratios[(horizon, 1.0)], r_coarse,
                                       0.15, steps["n"]))
        if case.scaling:
            # homogeneity: each scale's ratio, from its own sums, equals c = 1's bitwise
            reports.append(_scaling_row(f"scaling-exact:{case.rule}",
                                        [ratios[(1.0, c)] for c in scales],
                                        ratios[(1.0, 1.0)], steps["4n"]))
    reports.append(tally.row("single-atom-fwd", "single", 4.0, steps["4n"]))
    reports.append(tally.row("single-atom-rev", "single", 1.0, steps["4n"], reverse=True))
    sample = tally.kept["_sample"][:32]  # the first 32 replicates' terminal norms
    for gname in ("power_2", "power_1_5"):
        # power-gauge norm path agrees with modular^(1/p)
        g = get_gauge(gname)
        p = float(g.params["p"])
        lux = luxemburg_of_norms(sample, space.weights, g)
        alg = modular_of_norms(sample, space.weights, g) ** (1.0 / p)
        rel = np.abs(lux - alg) / np.where(alg > 0, alg, 1.0)
        reports.append(_exact_row(f"norm-agreement:{gname}", float(rel.max()), 1.0, 1e-6,
                                  steps["4n"]))
    return ExperimentResult("orlicz_bdg", reports, notes={"replicates": replicates})


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``run(cfg, replicates, grid_n, params)``, the summary
    ``list-experiments`` prints, the tag its report rows carry, its default
    sizes (0 for a size it never reads), the replicates ``verify-paper
    --fast`` runs it at, and a default for every param key it reads.  The
    entries are shared, so ``params`` is read-only and holds no mutable
    value."""

    run: Callable
    summary: str
    tag: str
    replicates: int = 0
    grid_n: int = 0
    fast_replicates: int = 0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


_BETAS, _DELTAS = (1.5, 2.0, 4.0), (0.05, 0.1, 0.25)
_WEIGHTS4 = (1.0, 1.0, 2.0, 0.5)

EXPERIMENTS = {
    "young": Experiment(run_young, "Young's inequality gap for complementary N-function pairs",
                        "young", grid_n=32, params={"extra_gauges": ()}),
    "moment_constant": Experiment(
        run_moment_constant, "feasibility of the tail-to-moment constant derivation",
        "moment-constant", params={"betas": _BETAS, "deltas": _DELTAS, "orders": (1.0, 2.0)}),
    "isometry": Experiment(
        run_isometry, "Ito isometry at stopping times, two grid resolutions", "ito-isometry",
        100_000, 256, 5000,
        {"horizon": 1.0, "weights": (1.0, 0.5), "exit_level": 1.0, "clock_threshold": 0.35}),
    "good_lambda": Experiment(
        run_good_lambda, "good-lambda tail lines for the capped first-exit pair", "good-lambda",
        100_000, 2048, 5000, {"horizon": 4.0, "exit_level": 1.0, "betas": _BETAS,
                              "deltas": _DELTAS, "lambdas": tuple(np.geomspace(0.05, 0.8, 8))}),
    "bdg_scalar": Experiment(
        run_bdg_scalar, "scalar BDG/Doob bracket for suite martingales", "bdg-scalar",
        100_000, 1024, 5000, {"horizon": 1.0}),
    "doob_orlicz": Experiment(
        run_doob_orlicz, "Orlicz Doob maximal comparison with hypothesis audit", "doob-orlicz",
        100_000, 1024, 5000, {"horizon": 1.0, "lambdas": tuple(np.geomspace(0.1, 2.0, 8))}),
    # one table for both pairs; the Orlicz pair runs on orlicz_grid_n
    "lenglart": Experiment(
        run_lenglart, "Lenglart-type domination for certified pairs", "lenglart",
        40_000, 2048, 2000, {"pairs": CERTIFIED_PAIRS, "horizon": 4.0,
                             "lambdas": tuple(np.geomspace(0.1, 1.2, 6)), "orlicz_grid_n": 1024,
                             "weights": _WEIGHTS4, "clock_threshold": 0.5}),
    "orlicz_bdg": Experiment(
        run_orlicz_bdg, "two-sided Orlicz BDG for vector stochastic integrals", "orlicz-bdg",
        20_000, 512, 2000, {"weights": _WEIGHTS4}),
}


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_reals(value) -> bool:
    return isinstance(value, (list, tuple, np.ndarray)) and all(map(_is_real, value))


def run_experiment(cfg) -> ExperimentResult:
    """Validate a config against its experiment's entry and run it."""
    exp = EXPERIMENTS.get(cfg.experiment)
    if exp is None:
        raise LabError(
            f"unknown experiment {cfg.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    for size in ("replicates", "grid_n"):
        # a size whose default is 0 is one the experiment never reads
        if getattr(cfg, size) is not None and not getattr(exp, size):
            raise LabError(f"{cfg.experiment}: {size} is not used; leave it unset")
    known = exp.params
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
        # an empty list would leave an audit with nothing to check: all([]) passes
        if _is_reals(default) and len(default) and not (_is_reals(value) and len(value)):
            raise LabError(
                f"{cfg.experiment}: params.{key} must be a list of numbers (non-empty),"
                f" got {value!r}"
            )
    return exp.run(cfg, cfg.replicates or exp.replicates, cfg.grid_n or exp.grid_n,
                   {**known, **cfg.params})
