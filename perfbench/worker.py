"""One workload iteration in a fresh interpreter, started by ``run.py``.

Usage (from the root of a source checkout)::

    python3 perfbench/worker.py WORKLOAD --seed N --out DIR --result FILE [--trace] [--setup-only]

The worker puts ``src/`` on ``sys.path`` (no install), prepares the
workload's inputs from the seed, and marks the end of set-up with a
``time.monotonic()`` stamp just before the first experiment or step
begins; ``run.py`` subtracts its own stamp taken before the process was
started.  It then runs the workload once, checks every output, and writes
timings, counts and the check results to ``--result`` as JSON.  With
``--trace`` the layer tracer is installed during set-up and its
aggregates (and the Philox floor) go into the result as well.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

# verify-paper --fast: rows per experiment (613 in all)
VERIFY_FAST_ROWS = {
    "young": 7, "moment_constant": 36, "isometry": 96, "good_lambda": 296,
    "bdg_scalar": 4, "doob_orlicz": 60, "lenglart": 24, "orlicz_bdg": 90,
}

# scalar-paths: driver-bound experiments at fixed sizes (375 rows in all)
SCALAR_PATHS = (
    # experiment, replicates, grid_n, params, rows
    ("good_lambda", 20_000, 2048, {}, 296),
    ("bdg_scalar", 20_000, 1024, {}, 4),
    ("doob_orlicz", 20_000, 1024, {}, 60),
    ("lenglart", 10_000, 2048, {"pairs": "scalar"}, 15),
)

# gauge-numerics inputs
NUMERIC_GAUGES = ("power_1_5", "power_2", "power_log_2", "lambda_2")
NUMERIC_VECTORS = 2048
NUMERIC_WEIGHTS = (1.0, 1.0, 2.0, 0.5)
YOUNG_POINTS = 16


def attempt(errors: list, label: str, fn, *args, **kwargs):
    """Call ``fn``; an exception is recorded and its operations count as failed."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - a raising step is a failed operation, not a crash
        errors.append(f"{label} raised:\n{traceback.format_exc()}")
        return None


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_report_dir(out: Path, expected: dict, errors: list) -> tuple[int, int]:
    """Rows per experiment and verdicts from the CSVs; returns (attempted, failed).

    An experiment whose row count is off (it raised, or emitted a different
    table) counts all its expected rows as failed.
    """
    rows: dict[str, list[str]] = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                rows.setdefault(rec["experiment"].split(".", 1)[0], []).append(rec["verdict"])
    failed = 0
    for name, want in expected.items():
        got = rows.get(name, [])
        if len(got) != want:
            errors.append(f"{name}: {len(got)} rows, expected {want}")
            failed += max(want, len(got))
            continue
        bad = sum(v != "pass" for v in got)
        if bad:
            errors.append(f"{name}: {bad} rows fail")
        failed += bad
    extra = sorted(set(rows) - set(expected))
    if extra:
        errors.append(f"unexpected experiments: {extra}")
    summary = out / "summary.txt"
    if not summary.exists() or not summary.read_text().rstrip().endswith("overall: PASS"):
        errors.append(f"{summary} does not end with 'overall: PASS'")
    return sum(expected.values()), failed


def cli_main(cli, args: list) -> int | None:
    """Invoke the click CLI in-process; returns the code it exits with (None if it does not)."""
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    return None


# ---------------------------------------------------------------------------
# workloads: prepare(seed, out); run(); check() -> attempted, failed, errors, digest


class VerifyFast:
    """``orliczlab verify-paper --fast`` through the click CLI."""

    layers = LAYERS

    def prepare(self, seed: int, out: Path):
        from orliczlab import cli

        self.cli, self.seed, self.out = cli, seed, out / "reports"
        self.code, self.errors = None, []

    def run(self) -> None:
        self.code = attempt(self.errors, "verify-paper", cli_main, self.cli, [
            "verify-paper", "--fast", "--seed", str(self.seed), "--out", str(self.out)])

    def check(self) -> dict:
        errors = self.errors + ([] if self.code == 0 else [f"verify-paper exited with {self.code!r}"])
        attempted, failed = check_report_dir(self.out, VERIFY_FAST_ROWS, errors)
        files = sorted(self.out.glob("*.csv")) + [self.out / "summary.txt"]
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "digest": digest_files(p for p in files if p.exists())}


class ScalarPaths:
    """Driver-bound experiments, each through ``orliczlab run config.yaml``."""

    layers = ("paths", "integrate", "gauges", "stats", "reports", "lab")

    def prepare(self, seed: int, out: Path):
        from orliczlab import cli
        from orliczlab.config import ExperimentConfig, dump_config

        self.cli, self.out = cli, out
        self.jobs = []
        for name, reps, grid_n, params, _ in SCALAR_PATHS:
            cfg_path = out / f"{name}.yaml"
            dump_config(ExperimentConfig(name, seed, reps, grid_n, params), cfg_path)
            self.jobs.append((name, cfg_path, out / name))
        self.codes, self.errors = {}, []

    def run(self) -> None:
        for name, cfg_path, report_dir in self.jobs:
            self.codes[name] = attempt(self.errors, f"run {name}", cli_main, self.cli,
                                       ["run", str(cfg_path), "--out", str(report_dir)])

    def check(self) -> dict:
        errors, attempted, failed, files = list(self.errors), 0, 0, []
        for (name, _, report_dir), (_, _, _, _, rows) in zip(self.jobs, SCALAR_PATHS):
            if self.codes.get(name) != 0:
                errors.append(f"run {name} exited with {self.codes.get(name)!r}")
            a, f = check_report_dir(report_dir, {name: rows}, errors)
            attempted += a
            failed += f
            files += sorted(report_dir.glob("*.csv")) + [report_dir / "summary.txt"]
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "digest": digest_files(p for p in files if p.exists())}


class GaugeNumerics:
    """Gauge and space numerics on many tiny inputs; no Monte Carlo."""

    layers = ("gauges", "spaces")

    def prepare(self, seed: int, out: Path):
        from orliczlab import gauges, spaces

        self.gauges, self.spaces, self.seed = gauges, spaces, seed
        rng = np.random.default_rng(seed)
        scale = np.exp(rng.uniform(-3.0, 3.0, size=(NUMERIC_VECTORS, 1)))
        self.norms = scale * np.abs(rng.standard_normal((NUMERIC_VECTORS, len(NUMERIC_WEIGHTS))))
        self.weights = np.asarray(NUMERIC_WEIGHTS)
        self.space = spaces.DiscreteMeasureSpace(list(NUMERIC_WEIGHTS))
        self.young_s = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), YOUNG_POINTS)))
        self.young_t = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), YOUNG_POINTS)))
        self.named = {name: gauges.get_gauge(name) for name in NUMERIC_GAUGES}
        self.errors = []

    def run(self) -> None:
        g, sp, errors = self.gauges, self.spaces, self.errors
        self.lux = {name: attempt(errors, f"luxemburg {name}", sp.luxemburg_of_norms,
                                  self.norms, self.weights, gauge)
                    for name, gauge in self.named.items()}
        self.relations = {name: attempt(errors, f"norm relations {name}", sp.verify_norm_relations,
                                        self.space, gauge, seed=self.seed)
                          for name, gauge in self.named.items()}
        self.registry = {name: attempt(errors, f"registry {name}", self._young, gauge)
                         for name, gauge in g.registry_gauges().items()}

    def _young(self, gauge):
        """Class report, plus Young gaps on the seeded grid for N-functions."""
        g = self.gauges
        report = g.classify_gauge(gauge)
        if not report.is_N_function:
            return report, None
        comp = g.complementary_gauge(gauge)
        return report, g.young_gap(gauge, comp, self.young_s[:, None], self.young_t[None, :])

    def check(self) -> dict:
        errors, failed, attempted = list(self.errors), 0, 0
        h = hashlib.sha256()
        for name, gauge in self.named.items():
            lux = self.lux[name]
            attempted += NUMERIC_VECTORS
            if lux is None:
                failed += NUMERIC_VECTORS
                continue
            h.update(lux.tobytes())
            unit = self.spaces.modular_of_norms(self.norms / lux[:, None], self.weights, gauge)
            bad = unit > 1.0 + 1e-12
            if gauge.family == "power":
                p = float(gauge.params["p"])
                exact = (self.norms**p @ self.weights) ** (1.0 / p)
                bad |= np.abs(lux - exact) > 1e-6 * exact
            if bad.any():
                errors.append(f"luxemburg {name}: {int(bad.sum())} vectors fail")
                failed += int(bad.sum())
        for name, rep in self.relations.items():
            h.update(repr(rep).encode())
            attempted += 1
            if rep is None:
                failed += 1
            elif not rep.passed:
                errors.append(f"norm relations {name}: {rep}")
                failed += 1
        for name, entry in self.registry.items():
            attempted += 1
            if entry is None:
                failed += 1
                continue
            report, gaps = entry
            h.update(repr(report).encode())
            if gaps is not None:
                h.update(gaps.tobytes())
                if gaps.min() < -1e-9:
                    errors.append(f"young gap {name}: min {gaps.min()!r}")
                    failed += 1
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "digest": h.hexdigest()}


WORKLOADS = {"verify-fast": VerifyFast, "scalar-paths": ScalarPaths,
             "gauge-numerics": GaugeNumerics}


# ---------------------------------------------------------------------------
# traced-run extras


def philox_floor(shapes: dict) -> float:
    """Raw Philox ``standard_normal`` rate at the batch shapes the run drew.

    Each distinct (replicates, steps) shape is drawn twice with a fresh
    generator; the faster draw is weighted by how often the run drew it.
    """
    normals = seconds = 0.0
    for (reps, steps), draws in sorted(shapes.items()):
        best = float("inf")
        for rep in range(2):
            rng = np.random.Generator(np.random.Philox(rep))
            t0 = time.perf_counter()
            rng.standard_normal((reps, steps))
            best = min(best, time.perf_counter() - t0)
        normals += draws * reps * steps
        seconds += draws * best
    return normals / seconds if seconds else 0.0


def layer_metrics(tracer: Tracer, wall: float, floor: float) -> dict:
    """Per-layer self times and counts, keyed by per_layer metric name."""
    selfs, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.startswith(layer + "."))
         for layer in LAYERS}
    for name in ("paths.simulate_batch", "paths.coarsened", "paths.running_abs_max",
                 "paths.hitting_index", "integrate.realize", "integrate.ito_integral",
                 "integrate.eta_paths", "integrate.triple_norm_path",
                 "gauges.classify_gauge", "gauges.complementary_gauge",
                 "spaces.modular_of_norms", "spaces.luxemburg_of_norms",
                 "spaces.verify_norm_relations", "stats.add", "reports.emit_report"):
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    normals = counts.get("paths.simulate_batch.normals", 0)
    m["paths.simulate_batch.normals"] = normals
    m["paths.simulate_batch.normals_per_s"] = (
        normals / selfs["paths.simulate_batch"] if normals else 0.0)
    m["paths.philox_floor.normals_per_s"] = floor
    m["paths.hitting_index.elems"] = counts.get("paths.hitting_index.elems", 0)
    m["integrate.realize.bytes"] = counts.get("integrate.realize.bytes", 0)
    eval_names = [k for k in calls if k.startswith("gauges.eval.")]
    m["gauges.eval.self_s"] = sum(selfs[k] for k in eval_names)
    m["gauges.eval.calls"] = sum(calls[k] for k in eval_names)
    m["gauges.eval.elems"] = counts.get("gauges.eval.elems", 0)
    m["gauges.eval.elems_per_call"] = (
        m["gauges.eval.elems"] / m["gauges.eval.calls"] if m["gauges.eval.calls"] else 0.0)
    for fam in ("power", "power_log", "lambda_alpha"):
        key = f"gauges.eval.{fam}"
        m[f"{key}.self_s"] = selfs.get(key, 0.0)
        m[f"{key}.calls"] = calls.get(key, 0)
        m[f"{key}.elems"] = counts.get(f"{key}.elems", 0)
    m["spaces.modular_of_norms.elems"] = counts.get("spaces.modular_of_norms.elems", 0)
    lux_norms = counts.get("spaces.luxemburg.norms", 0)
    m["spaces.luxemburg.gauge_calls_per_norm"] = (
        counts.get("spaces.luxemburg.gauge_calls", 0) / lux_norms if lux_norms else 0.0)
    m["stats.add.calls"] = calls.get("stats.add", 0)
    m["stats.add.samples"] = counts.get("stats.add.samples", 0)
    m["reports.emit_report.bytes"] = counts.get("reports.emit_report.bytes", 0)
    from orliczlab.lab import EXPERIMENTS

    for exp in EXPERIMENTS:
        m[f"lab.{exp}.s"] = tracer.total_s.get(f"lab.{exp}", 0.0)
        m[f"lab.{exp}.self_s"] = selfs.get(f"lab.{exp}", 0.0)
    m["lab.batches"] = counts.get("lab.batches", 0)
    m["trace.wall_s"] = wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.out)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if not args.setup_only:
        workload.run()
        end = time.monotonic()
        result["wall_s"] = end - setup_end
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer.uninstall()
            tracer.require(workload.layers)
            tracer.save(args.out / "spans.npz")
            result["layers"] = layer_metrics(tracer, end - setup_end, philox_floor(tracer.shapes))
        result.update(workload.check())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
