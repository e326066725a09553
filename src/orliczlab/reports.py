"""CSV and text reporting for experiment results.

Every row certifies one inequality instance.  Output is deterministic:
no timestamps, floats via ``repr`` (shortest round-trip form), rows in
experiment order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .lab import EXPERIMENTS
from .stats import ExperimentResult, RatioReport

__all__ = ["ReportError", "CSV_COLUMNS", "params_hash", "result_records", "emit_report"]


class ReportError(ValueError):
    """Nothing to report, or rows that cannot be serialized."""


CSV_COLUMNS = (
    "experiment",
    "params-hash",
    "lhs_mean",
    "lhs_stderr",
    "rhs_mean",
    "rhs_stderr",
    "ratio",
    "bound",
    "grid_n",
    "verdict",
)


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def params_hash(cfg: ExperimentConfig, row: RatioReport) -> str:
    """Short stable digest of everything that pins this row's numbers."""
    payload = {
        "config": _jsonable(cfg.to_mapping()),
        "row": row.label,
        "bound": row.bound,
        "grid_n": row.grid_n,
        "extras": _jsonable(row.extras),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _fmt(x: float) -> str:
    return repr(float(x))


def result_records(cfg: ExperimentConfig, result: ExperimentResult) -> list[dict]:
    """Flatten one experiment result into CSV record dicts."""
    records = []
    for row in result.reports:
        records.append(
            {
                "experiment": f"{result.name}.{row.label}",
                "params-hash": params_hash(cfg, row),
                "lhs_mean": _fmt(row.lhs.mean),
                "lhs_stderr": _fmt(row.lhs.stderr),
                "rhs_mean": _fmt(row.rhs.mean),
                "rhs_stderr": _fmt(row.rhs.stderr),
                "ratio": _fmt(row.ratio),
                "bound": _fmt(row.bound),
                "grid_n": str(int(row.grid_n)),
                "verdict": row.verdict,
            }
        )
    return records


def _write_csv(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(records)


def emit_report(out_dir, runs: list[tuple[ExperimentConfig, ExperimentResult]]) -> bool:
    """Write one CSV per experiment kind plus ``summary.txt``.

    Rows are grouped by experiment kind in first-seen order.  Returns True
    when every row passes and no experiment flagged a failed audit.
    """
    if not runs:
        raise ReportError("no experiment results to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    by_kind: dict[str, list[tuple[ExperimentConfig, ExperimentResult]]] = {}
    for cfg, result in runs:
        by_kind.setdefault(result.name, []).append((cfg, result))

    for name, kind_runs in by_kind.items():
        _write_csv(out / f"{name}.csv",
                   [record for cfg, result in kind_runs for record in result_records(cfg, result)])

    all_ok = True
    lines = ["inequality lab summary", ""]
    for name, kind_runs in by_kind.items():
        # one neutral provenance tag per experiment kind, carried on every summary row
        tag = EXPERIMENTS[name].tag if name in EXPERIMENTS else name
        for _, result in kind_runs:
            ok = result.passed
            all_ok = all_ok and ok
            n_pass = sum(r.passed for r in result.reports)
            lines.append(
                f"[{tag}] {name}: {n_pass}/{len(result.reports)} rows pass"
                + (" (AUDIT FAILED)" if result.notes.get("audit_failed") else "")
                + f" -> {'PASS' if ok else 'FAIL'}"
            )
            for row in result.reports:
                lines.append(
                    f"[{tag}]   {row.label}: ratio={_fmt(row.ratio)} "
                    f"bound={_fmt(row.bound)} {row.verdict}"
                )
    lines.append("")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return all_ok
