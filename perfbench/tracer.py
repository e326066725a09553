"""Outside-in layer tracer for the orliczlab benchmark.

The tracer replaces public functions at the names where ``orliczlab.lab``,
``orliczlab.cli`` and the other modules look them up with thin wrappers
that record a span per call: name, start, end and parent.  Nothing inside
``src/`` is edited.  Spans stay in memory (compact typed arrays) and are
written out once, when the traced run ends.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over the spans named after it
(``<layer>.<function>``).  Counts (normals drawn, elements evaluated,
bytes realized) are taken at the same boundaries from the call's
arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

LAYERS = ("paths", "integrate", "gauges", "spaces", "stats", "reports", "lab")


class TraceError(RuntimeError):
    """A patch point is missing or an expected layer recorded no spans."""


def _size(x) -> int:
    return int(np.size(x))


def _dir_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.shapes: dict[tuple, int] = {}  # (replicates, steps) -> draws, for the floor
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        nid = self._name_id(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        end = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[nid]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ------------------------------------------------------------

    def _wrap(self, module: str, attr: str, name, before=None, after=None) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) with a traced wrapper.

        ``name`` is a span name or a callable of the call arguments giving one;
        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` add counts.
        """
        *path, leaf = attr.split(".")
        owner = importlib.import_module(module)
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            raise TraceError(f"patch point {module}.{attr} is missing")
        original = getattr(owner, leaf)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, leaf, wrapper)
        self._patched.append((owner, leaf, original))

    def install(self) -> None:
        """Patch every layer boundary; raises TraceError when one is missing."""
        w = self._wrap
        # paths
        def batch_count(args, kwargs, batch):
            self.count("paths.simulate_batch.normals", batch.increments.size)
            self.count("lab.batches", 1)
            shape = (batch.replicates, batch.grid.steps)
            self.shapes[shape] = self.shapes.get(shape, 0) + batch.coords

        w("orliczlab.lab", "simulate_batch", "paths.simulate_batch", after=batch_count)
        w("orliczlab.paths", "BrownianBatch.coarsened", "paths.coarsened")
        w("orliczlab.lab", "running_abs_max", "paths.running_abs_max")
        w("orliczlab.lab", "quadratic_variation", "paths.quadratic_variation")
        w("orliczlab.lab", "hitting_index", "paths.hitting_index",
          before=lambda a, k: self.count("paths.hitting_index.elems", _size(a[0])))
        # integrate
        w("orliczlab.integrate", "ProcessSpec.realize", "integrate.realize",
          after=lambda a, k, r: self.count("integrate.realize.bytes", r.values.nbytes))
        w("orliczlab.integrate", "ito_integral", "integrate.ito_integral")
        w("orliczlab.integrate", "eta_paths", "integrate.eta_paths")
        w("orliczlab.lab", "triple_norm_path", "integrate.triple_norm_path")
        # gauges: one span name per family, summed into gauges.eval
        def eval_count(args, kwargs):
            fam = args[0].family
            n = _size(args[1])
            self.count("gauges.eval.elems", n)
            self.count(f"gauges.eval.{fam}.elems", n)

        w("orliczlab.gauges", "GrowthFunction.__call__",
          lambda a, k: f"gauges.eval.{a[0].family}", before=eval_count)
        for mod in ("lab", "gauges"):
            w(f"orliczlab.{mod}", "classify_gauge", "gauges.classify_gauge")
            w(f"orliczlab.{mod}", "complementary_gauge", "gauges.complementary_gauge")
            w(f"orliczlab.{mod}", "young_gap", "gauges.young_gap")
        # spaces
        for mod in ("lab", "integrate"):
            w(f"orliczlab.{mod}", "modular_of_norms", "spaces.modular_of_norms",
              before=lambda a, k: self.count("spaces.modular_of_norms.elems", _size(a[0])))

        def lux_before(args, kwargs):
            self.count("spaces.luxemburg.norms", _size(args[0]) // np.shape(args[0])[-1])
            self.count("spaces.luxemburg.gauge_calls", -self._eval_calls())

        lux_after = lambda a, k, r: self.count("spaces.luxemburg.gauge_calls", self._eval_calls())
        for mod in ("lab", "spaces"):
            w(f"orliczlab.{mod}", "luxemburg_of_norms", "spaces.luxemburg_of_norms",
              before=lux_before, after=lux_after)
        w("orliczlab.spaces", "verify_norm_relations", "spaces.verify_norm_relations")
        # stats
        w("orliczlab.stats", "RunningMoments.add", "stats.add",
          before=lambda a, k: self.count("stats.add.samples", _size(a[1])))
        # reports
        w("orliczlab.cli", "emit_report", "reports.emit_report",
          after=lambda a, k, r: self.count("reports.emit_report.bytes", _dir_bytes(a[0])))
        # lab: one span per experiment, named after it
        w("orliczlab.cli", "run_experiment", lambda a, k: f"lab.{a[0].experiment}")

    def _eval_calls(self) -> int:
        return sum(c for n, c in self.calls.items() if n.startswith("gauges.eval."))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def require(self, layers) -> None:
        """Fail loudly when an expected layer recorded zero spans."""
        seen = {name.split(".", 1)[0] for name in self.calls}
        missing = [layer for layer in layers if layer not in seen]
        if missing:
            raise TraceError(f"expected layers recorded no spans: {', '.join(missing)}")

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to a compressed .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
