"""Command-line interface for the inequality lab.

Verbs: ``run`` a single YAML-configured experiment, ``verify-paper`` for the
full verification suite, ``list-gauges`` and ``list-experiments`` for the
registries.  Output directory resolution: ``--out`` flag, else the
``ORLICZLAB_OUT`` environment variable, else ``./orliczlab-out``.  A bad
config or option is a usage error (exit 2, one line naming the field); a
failed row exits 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from .config import DEFAULT_SEED, ConfigError, ExperimentConfig, load_config
from .gauges import REGISTRY, GaugeError, gauge_from_config
from .lab import EXPERIMENTS, LabError, run_experiment
from .reports import emit_report

_OUT_ENV = "ORLICZLAB_OUT"

_out_option = click.option(
    "--out",
    "out_dir",
    default=None,
    help=f"Output directory (default: ${_OUT_ENV} or ./orliczlab-out).",
)


def _resolve_out(out_dir: str | None) -> Path:
    return Path(out_dir or os.environ.get(_OUT_ENV) or "orliczlab-out")


def paper_configs(seed: int, fast: bool) -> list:
    """The config of every experiment ``verify-paper`` runs, in table order:
    at its default sizes, or at its ``--fast`` replicates when ``fast``."""
    # a size the experiment never reads (0) stays unset
    return [ExperimentConfig(experiment=name, seed=seed,
                             replicates=(exp.fast_replicates if fast else exp.replicates) or None,
                             grid_n=exp.grid_n or None)
            for name, exp in EXPERIMENTS.items()]


@click.group()
def main() -> None:
    """Monte Carlo verification lab for martingale inequalities in Orlicz spaces."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@_out_option
def run(config_path: str, out_dir: str | None) -> None:
    """Run one experiment from a YAML config and write its CSV report."""
    try:
        cfg = load_config(config_path)
        result = run_experiment(cfg)
    except (ConfigError, LabError, GaugeError) as err:
        raise click.UsageError(str(err)) from err
    out = _resolve_out(out_dir)
    ok = emit_report(out, [(cfg, result)])
    n_pass = sum(r.passed for r in result.reports)
    click.echo(f"{result.name}: {n_pass}/{len(result.reports)} rows pass -> {out}")
    sys.exit(0 if ok else 1)


@main.command("verify-paper")
@click.option("--fast", is_flag=True, help="Cut replicate counts for a quick smoke pass.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True,
              help="Root RNG seed.")
@_out_option
def verify_paper(fast: bool, seed: int, out_dir: str | None) -> None:
    """Run the full verification suite: every experiment at default settings."""
    runs = []
    all_ok = True
    for cfg in paper_configs(seed, fast):
        result = run_experiment(cfg)
        runs.append((cfg, result))
        all_ok = all_ok and result.passed
        n_pass = sum(r.passed for r in result.reports)
        click.echo(
            f"{cfg.experiment}: {n_pass}/{len(result.reports)} rows pass"
            f" -> {'ok' if result.passed else 'FAIL'}"
        )
    out = _resolve_out(out_dir)
    emit_report(out, runs)
    click.echo(f"reports in {out}")
    click.echo("overall: " + ("PASS" if all_ok else "FAIL"))
    sys.exit(0 if all_ok else 1)


@main.command("list-gauges")
def list_gauges() -> None:
    """List the registered growth functions."""
    for name in sorted(REGISTRY):
        gauge = gauge_from_config(REGISTRY[name])
        click.echo(f"{name}: {gauge.label} (family={gauge.family})")


@main.command("list-experiments")
def list_experiments() -> None:
    """List the available experiments."""
    for name, exp in EXPERIMENTS.items():
        click.echo(f"{name}: {exp.summary}")


if __name__ == "__main__":
    main()
