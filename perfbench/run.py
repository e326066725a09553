"""orliczlab benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a source checkout (nothing is installed)::

    python3 perfbench/run.py --workload verify-fast --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, iterations run back to back, each in a
fresh interpreter started from ``src/``):

- ``verify-fast``: ``orliczlab verify-paper --fast`` (8 experiments, 613
  rows).  It is what users run; most time goes to ``integrate`` and
  ``gauges`` on large arrays, at the batch shapes of the full run.
- ``scalar-paths``: ``good_lambda``, ``bdg_scalar``, ``doob_orlicz`` and
  ``lenglart`` (scalar pair) through ``orliczlab run`` (375 rows).  It is
  bound by the driver simulation: an integrand or gauge change should not
  move it, a driver, stopping or executor change should.
- ``gauge-numerics``: Luxemburg norms of 2048 seeded 4-atom vectors under
  four gauges, ``verify_norm_relations`` per gauge, and classification,
  complement and Young gaps over the registry.  No Monte Carlo: the same
  ``gauges``/``spaces`` code as ``verify-fast`` through ~340k calls of 4
  elements each, so a vectorised gauge that adds per-call overhead shows.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter start
until the first experiment or step begins; median of several fresh
starts), ``wall_s`` (median iteration time after set-up), ``peak_rss_mb``
(largest peak RSS of an iteration) and ``pass_frac`` (1 - failed/attempted
operations; an operation is a verdict row, or a checked vector or gauge).
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer self times and counts (see ``tracer.py``), the Philox floor and
the tracing overhead; the traced report digest must equal the untraced one.

Every iteration's outputs are checked (exit status, verdicts, row counts
per experiment, numeric laws for ``gauge-numerics``), and every iteration
of one seed and source tree must produce the same digest over its reports,
also across runs: digests are kept in ``.perfbench/digests.json``.  The
last stdout line is the JSON result.  Lines before it give the run
manifest (machine, versions, BLAS threads, commit, seed and input sizes),
one line per worker process, and the raw timing samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

from worker import (NUMERIC_GAUGES, NUMERIC_VECTORS, NUMERIC_WEIGHTS,  # noqa: E402
                    SCALAR_PATHS, VERIFY_FAST_ROWS, WORKLOADS, YOUNG_POINTS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
DEADLINE_S = 170.0  # every worker must end within this many seconds of the start


class BenchError(RuntimeError):
    """A worker crashed, so the run has no result."""


def spawn(workload: str, seed: int, out: Path, *, trace=False, setup_only=False,
          deadline: float) -> dict:
    """Run one worker in a fresh interpreter; returns its result plus ``setup_s``."""
    out.mkdir(parents=True)
    result = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    with open(out / "worker.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                              timeout=max(deadline - start, 1.0))
    print(json.dumps({"worker": out.name, "exit": proc.returncode,
                      "seconds": round(time.monotonic() - start, 3)}), flush=True)
    if proc.returncode != 0 or not result.exists():
        tail = (out / "worker.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {workload} exited with {proc.returncode}:\n{tail}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["setup_end"] - start
    return data


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        out["threads"] = fn()
    out["env"] = {k: os.environ[k] for k in
                  ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return out


def manifest(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = val.strip()
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    sizes = {
        "verify-fast": {"command": "verify-paper --fast", "rows": VERIFY_FAST_ROWS},
        "scalar-paths": {"command": "run CONFIG.yaml", "experiments": [
            {"experiment": e, "replicates": r, "grid_n": n, "params": p, "rows": rows}
            for e, r, n, p, rows in SCALAR_PATHS]},
        "gauge-numerics": {"vectors": NUMERIC_VECTORS, "weights": NUMERIC_WEIGHTS,
                           "gauges": NUMERIC_GAUGES, "young_points": YOUNG_POINTS},
    }[workload]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "inputs": sizes,
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def check_digests(key: str, digests: list, errors: list) -> None:
    """All iterations agree, and agree with earlier runs of the same key."""
    if len(set(digests)) > 1:
        errors.append(f"iterations of one seed gave different digests: {sorted(set(digests))}")
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if key in ledger and ledger[key] != digests[0]:
        errors.append(f"digest {digests[0]} differs from an earlier run's {ledger[key]}")
        return
    ledger[key] = digests[0]
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        def go(tag, **kw):
            return spawn(workload, seed, scratch / tag, deadline=deadline, **kw)

        iters = []
        if trace:
            iters.append(go("plain"))
            traced = go("traced", trace=True)
            shutil.copy(scratch / "traced" / "spans.npz", WORK / f"spans-{workload}.npz")
            runs = iters + [traced]
        else:
            setups = [go(f"setup{i}", setup_only=True)["setup_s"] for i in range(SETUP_PROBES)]
            t_loop = time.monotonic()
            while True:
                t_iter = time.monotonic()
                iters.append(go(f"iter{len(iters)}"))
                now = time.monotonic()
                # start another iteration only if it fits in the measuring window
                if now - t_loop + (now - t_iter) > seconds:
                    break
            runs = iters
        errors = [e for r in runs for e in r["errors"]]
        key = f"{source_digest()}:{workload}:{seed}"
        check_digests(key, [r["digest"] for r in runs], errors)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        if trace:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - iters[0]["wall_s"]
        else:
            setups += [r["setup_s"] for r in iters]
            walls = [r["wall_s"] for r in iters]
            print(json.dumps({"samples": {"setup_s": setups, "wall_s": walls}}))
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in iters),
                "pass_frac": 1.0 - failed / attempted,
            }
        for msg in errors:
            print(f"check failed: {msg}", file=sys.stderr)
        return {"correct": not errors and failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def unit(name: str) -> str:
    fixed = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac",
             "integrate.realize.bytes": "computed_bytes"}
    if name in fixed:
        return fixed[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orliczlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "orliczlab").is_dir():
        print(f"no orliczlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"manifest": manifest(args.workload, args.seed, args.seconds,
                                           bool(args.trace))}))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
