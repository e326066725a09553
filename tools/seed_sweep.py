"""Run ``verify-paper --fast`` over a range of seeds and print its tightest rows.

Each seed runs the configs ``verify-paper --fast`` builds (``cli.paper_configs``)
in this process, without writing reports.  The output is one line per seed with
its failing rows under it, then the ten Monte Carlo rows with the smallest
margin over all seeds: ``(bound * rhs_mean - lhs_mean) / slack_stderr``, how
many paired stderrs the lhs lies inside its bound.  A row fails below -3, where
it leaves its 3-stderr slack.  Exact rows have no stderr and are left out of
the margins.  Nothing in the output depends on timing, so two sweeps print the
same bytes.

    python tools/seed_sweep.py FIRST LAST    # seeds FIRST..LAST, both included
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orliczlab.cli import paper_configs  # noqa: E402
from orliczlab.lab import run_experiment  # noqa: E402

_TIGHTEST = 10


def main(first: str, last: str) -> None:
    margins = []  # (margin, seed, row)
    for seed in range(int(first), int(last) + 1):
        rows = []
        for cfg in paper_configs(seed, fast=True):
            result = run_experiment(cfg)
            rows += [(f"{result.name}/{r.label}", r) for r in result.reports]
        failed = [(name, r) for name, r in rows if not r.passed]
        print(f"seed {seed}: {len(rows)} rows, {len(failed)} fail")
        for name, r in failed:
            print(f"  FAIL {name}: ratio={r.ratio!r} bound={r.bound!r}")
        margins += [((r.bound * r.rhs.mean - r.lhs.mean) / r.slack_stderr, seed, name)
                    for name, r in rows if r.slack_stderr > 0.0]
    print(f"tightest {_TIGHTEST} rows (paired stderrs inside the bound; below -3 fails):")
    for margin, seed, name in sorted(margins)[:_TIGHTEST]:
        print(f"  {margin:9.3f}  seed {seed}  {name}")


if __name__ == "__main__":
    main(*sys.argv[1:])
