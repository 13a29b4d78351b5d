"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the pointvector modules from outside
the package and records one span per call: name `<module>.<function>`, parent
span, operation id, step id, start and end. Every backward closure handed to
`nnops.custom_op` is timed and charged to each span that was open when its op
was recorded. Spans stay in memory and are written out when the run ends.

Nothing here changes the package's code; leaving `recording` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("geometry", "nnops", "vecenc", "setabs", "model", "train", "dataio")
# modules that import custom_op by name; each of these bindings is replaced
CUSTOM_OP_OWNERS = ("nnops", "setabs", "vecenc", "train")
MODEL_METHODS = {"__init__": "model.Model", "forward_seg": "model.Model.forward_seg",
                 "forward_cls": "model.Model.forward_cls"}
FORWARD_SPANS = frozenset({"model.Model.forward_seg", "model.Model.forward_cls"})
# spans whose peak traced memory is recorded when memory tracing is on
PEAK_SPANS = frozenset({"setabs.sa_block", "setabs.vpsa_block", "setabs.feature_propagate",
                        "nnops.backward", "model.Model.forward_seg"})
MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("sid", "name", "parent", "op", "step", "t0", "t1", "child", "bwd",
                 "outermost", "mem0", "peak")

    def __init__(self, sid, name, parent, op, step, outermost):
        self.sid, self.name, self.parent = sid, name, parent
        self.op, self.step, self.outermost = op, step, outermost
        self.t0 = self.t1 = 0.0
        self.child = 0.0   # seconds covered by direct children
        self.bwd = 0.0     # seconds of backward closures recorded under this span
        self.mem0 = self.peak = 0

    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans of the calls made inside `recording(op)` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = "setup"
        self.step = 0
        # per-op counters measured at the layer boundaries
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.memory = False
        self._saved: list = []

    # -- installation ------------------------------------------------------

    @contextmanager
    def recording(self, op, memory: bool = False):
        """Record spans under operation id `op` while the block runs."""
        self.op = op
        self.install(memory)
        try:
            yield self
        finally:
            self.uninstall()

    def install(self, memory: bool = False) -> None:
        """Wrap every public function of MODULES, the Model methods and custom_op."""
        self.memory = memory
        if memory:
            tracemalloc.start()
        pkg = {name: importlib.import_module(f"pointvector.{name}") for name in MODULES}
        for name, mod in pkg.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr != "custom_op"):
                    self._replace(mod, attr, self._wrap(f"{name}.{attr}", obj))
        for attr, span_name in MODEL_METHODS.items():
            cls = pkg["model"].Model
            self._replace(cls, attr, self._wrap(span_name, vars(cls)[attr]))
        custom_op = self._wrap_custom_op(pkg["nnops"].custom_op)
        for name in CUSTOM_OP_OWNERS:
            self._replace(pkg[name], "custom_op", custom_op)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()
            self.memory = False

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counts[self.op], args, result)
            return result

        return traced

    def _open(self, name: str) -> Span:
        if name in FORWARD_SPANS:
            self.step += 1
            self.counts[self.op]["forward"] += 1
        parent = self.stack[-1] if self.stack else None
        outermost = all(s.name != name for s in self.stack)
        span = Span(len(self.spans), name, None if parent is None else parent.sid,
                    self.op, self.step, outermost)
        if self.memory and name in PEAK_SPANS:
            self._fold_peak()
            span.mem0 = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self.stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        if self.memory and span.name in PEAK_SPANS:
            self._fold_peak()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.dur()

    def _fold_peak(self) -> None:
        """Credit the peak since the last reset to every open measured span."""
        peak = tracemalloc.get_traced_memory()[1]
        for s in self.stack:
            if s.name in PEAK_SPANS:
                s.peak = max(s.peak, peak - s.mem0)
        tracemalloc.reset_peak()

    def _wrap_custom_op(self, custom_op):
        @functools.wraps(custom_op)
        def traced_custom_op(out_data, inputs, grad_fn):
            self.counts[self.op]["custom_op"] += 1
            owners = tuple(self.stack)

            def timed_grad_fn(g):
                t0 = time.perf_counter()
                grads = grad_fn(g)
                dt = time.perf_counter() - t0
                for s in owners:
                    s.bwd += dt
                return grads

            return custom_op(out_data, inputs, timed_grad_fn)

        return traced_custom_op

    # -- reports -----------------------------------------------------------

    def table(self, ops) -> dict:
        """Per span name over the given ops: calls, ms, self_ms, bwd_ms, peak_mb.

        ms and bwd_ms count only outermost spans of a name, so a function that
        calls itself is not counted twice.
        """
        ops = set(ops)
        out: dict = defaultdict(lambda: dict(calls=0, ms=0.0, self_ms=0.0, bwd_ms=0.0,
                                             peak_mb=0.0))
        for s in self.spans:
            if s.op not in ops:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["self_ms"] += (s.dur() - s.child) * 1e3
            if s.outermost:
                row["ms"] += s.dur() * 1e3
                row["bwd_ms"] += s.bwd * 1e3
            row["peak_mb"] = max(row["peak_mb"], s.peak / MB)
        return out

    def module_ms(self, ops, module: str) -> float:
        """Wall ms spent in a module: spans of it whose parent lies outside it."""
        ops = set(ops)
        prefix = module + "."
        names = {s.sid: s.name for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s.op in ops and s.name.startswith(prefix) and not (
                    s.parent is not None and names[s.parent].startswith(prefix)):
                total += s.dur()
        return total * 1e3

    def count(self, ops, key: str) -> float:
        return sum(self.counts[op][key] for op in ops)

    def write(self, path) -> None:
        """One JSON line per span, in start order."""
        base = min((s.t0 for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                    "step": s.step, "start_ms": round((s.t0 - base) * 1e3, 4),
                    "ms": round(s.dur() * 1e3, 4),
                    "self_ms": round((s.dur() - s.child) * 1e3, 4),
                    "bwd_ms": round(s.bwd * 1e3, 4),
                    "peak_mb": round(s.peak / MB, 4)}) + "\n")


# counters taken from a call's arguments and result, per op


def _knn_points(counts, args, result):
    query, cloud = args[0], args[1]
    # the dense [B,M,N] float64 distance matrix, computed from the shapes
    counts["knn_dist_bytes"] += query.shape[0] * query.shape[1] * cloud.num_points * 8


def _neighborhood(counts, args, result):
    counts["neighborhoods"] += 1


def _ball_query(counts, args, result):
    counts["neighborhoods"] += 1
    counts["ball_pad"] += int(result.pad_mask.sum())
    counts["ball_slots"] += result.pad_mask.size


HOOKS = {
    "geometry.knn_points": _knn_points,
    "geometry.knn": _neighborhood,
    "geometry.ball_query": _ball_query,
}
