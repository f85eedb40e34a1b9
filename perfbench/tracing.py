"""Traced-run support: spans recorded from outside the program.

A traced run binds timing wrappers around the program's public
callables at the place each caller looks them up (a module attribute or
a class attribute) and restores the original objects afterwards.  Every
call through a wrapper becomes one span: name, start, end, parent span
and the request id the driver was serving when one is known.  Spans stay
in memory (:class:`SpanLog`) and are written once, at the end of the run.

A layer's self time is the time its spans cover minus the time their
child spans cover; the layer is the span name's first dotted component,
except under the benchmark's own input, reference and checking work,
which counts as ``driver``.
Untraced runs never call :func:`install`, so they run the program
exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: (module, attribute path, span name).  Each entry is where a caller
#: looks the callable up: a module-level function is wrapped in every
#: module that imported it by name, a method on its class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serving.server", "TahoeServer.__init__", "serving.init"),
    ("repro.serving.server", "TahoeServer.run", "serving.run"),
    ("repro.serving.server", "TahoeServer.summary", "serving.summary"),
    ("repro.serving.server", "TahoeServer.plan_flush_point", "serving.plan"),
    ("repro.core.native", "NativeEngine.__init__", "core.init"),
    ("repro.core.native", "NativeEngine.from_layout", "core.from_layout"),
    ("repro.core.native", "NativeEngine.predict", "core.predict"),
    ("repro.core.native", "NativeEngine.explain", "core.explain"),
    ("repro.core.native", "flatten_native", "core.flatten"),
    ("repro.core.engine", "TahoeEngine.__init__", "core.sim_init"),
    ("repro.core.engine", "TahoeEngine.predict", "core.sim_predict"),
    ("repro.core.engine", "convert_forest", "conversion.convert"),
    ("repro.trees.tree", "DecisionTree.edge_probabilities", "conversion.fetch_probabilities"),
    ("repro.core.engine", "rearrange_forest_nodes", "formats.node_rearrangement"),
    ("repro.core.engine", "similarity_tree_order", "hashing.similarity"),
    ("repro.core.engine", "build_interleaved_layout", "formats.format_conversion"),
    ("repro.modelstore", "load_packed", "modelstore.load_packed"),
    ("repro.trees.io", "load_forest", "modelstore.import"),
    ("repro.core.native", "measure_hardware_parameters", "perfmodel.microbench"),
    ("repro.core.engine", "measure_hardware_parameters", "perfmodel.microbench"),
    ("repro.serving.server", "measure_hardware_parameters", "perfmodel.microbench"),
    ("repro.core.native", "calibrate_native_model", "perfmodel.calibrate"),
    ("repro.core.native", "rank_hardware_targets", "perfmodel.rank_targets"),
    ("repro.core.engine", "rank_strategies", "perfmodel.select"),
    ("repro.obs.recorder", "RunRecorder.record_batch", "obs.record_batch"),
    ("repro.obs.recorder", "RunRecorder.record_decision", "obs.record_decision"),
    ("repro.obs.metrics", "MetricsRegistry.record_traffic", "obs.record_traffic"),
    ("repro.obs.streaming", "StreamingHistogram.quantile", "obs.quantile"),
    ("repro.explain.paths", "path_set_for_layout", "explain.path_set"),
    ("repro.explain.kernel", "compute_shap", "explain.shap"),
    ("repro.strategies.direct", "DirectStrategy.run", "strategies.run"),
    ("repro.strategies.shared_data", "SharedDataStrategy.run", "strategies.run"),
    ("repro.strategies.shared_forest", "SharedForestStrategy.run", "strategies.run"),
    (
        "repro.strategies.splitting_shared_forest",
        "SplittingSharedForestStrategy.run",
        "strategies.run",
    ),
    ("repro.strategies.direct", "trace_sample_parallel", "gpusim.trace"),
    ("repro.strategies.direct", "execution_time", "gpusim.execution_time"),
    ("repro.strategies.shared_data", "trace_tree_parallel", "gpusim.trace"),
    ("repro.strategies.shared_data", "execution_time", "gpusim.execution_time"),
    ("repro.strategies.shared_forest", "trace_sample_parallel", "gpusim.trace"),
    ("repro.strategies.shared_forest", "execution_time", "gpusim.execution_time"),
    ("repro.strategies.splitting_shared_forest", "trace_sample_parallel", "gpusim.trace"),
    ("repro.strategies.splitting_shared_forest", "execution_time", "gpusim.execution_time"),
    # TahoeEngine imports the tracer lazily for its coalescing probe.
    ("repro.gpusim.trace", "trace_tree_parallel", "gpusim.trace"),
)

#: Layers whose self time the traced report always carries (zero when a
#: workload never enters them).
LAYERS = (
    "serving",
    "core",
    "conversion",
    "formats",
    "hashing",
    "modelstore",
    "perfmodel",
    "obs",
    "explain",
    "strategies",
    "gpusim",
    "driver",
    "idle",
)

#: Root spans of the benchmark's own work around the program: making
#: inputs, computing reference answers and checking answers.  Program
#: spans under them count as ``driver`` time, so the program's layers
#: show only set-up (``driver.setup``) and measured work
#: (``driver.measure``).
BENCHMARK_ROOTS = ("driver.inputs", "driver.reference", "driver.check")


class SpanLog:
    """In-memory span store (columnar lists, one entry per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.request_ids: list[int | None] = []
        #: Extra per-span facts a wrapper extracts from a call's result.
        self.extras: dict[int, dict] = {}
        #: Request id the driver is currently serving (``None``: unknown).
        self.request_id: int | None = None
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.request_ids.append(self.request_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def durations_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def self_times_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Wrappers run on one thread, so children nest strictly inside
        their parent and never overlap one another.
        """
        durations = self.durations_ns()
        own = durations.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], durations[has_parent])
        return own

    def within(self, index: int, ancestor_name: str) -> bool:
        """Whether span ``index`` has an ancestor called ``ancestor_name``."""
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == ancestor_name:
                return True
            parent = self.parents[parent]
        return False

    def roots(self) -> np.ndarray:
        """Index of each span's top-level ancestor (its own for a root)."""
        root = np.empty(len(self), dtype=np.int64)
        for i, parent in enumerate(self.parents):
            # A parent opens before its children, so its root is known.
            root[i] = i if parent < 0 else root[parent]
        return root

    def layers(self) -> list[str]:
        """Each span's layer: the first dotted component of its name, or
        ``driver`` under one of :data:`BENCHMARK_ROOTS`."""
        return [
            "driver" if self.names[root] in BENCHMARK_ROOTS else name.split(".", 1)[0]
            for name, root in zip(self.names, self.roots())
        ]

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer, in milliseconds."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for layer, ns in zip(self.layers(), self.self_times_ns()):
            totals[layer] = totals.get(layer, 0.0) + ns / 1e6
        return totals

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for layer in self.layers():
            calls[layer] = calls.get(layer, 0) + 1
        return calls

    def root_ms(self) -> float:
        """Time covered by top-level spans."""
        durations = self.durations_ns()
        roots = np.asarray(self.parents, dtype=np.int64) < 0
        return float(durations[roots].sum()) / 1e6

    def write(self, path: Path) -> None:
        """Write every span as JSON (once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "request_id": rid,
                **self.extras.get(i, {}),
            }
            for i, (name, start, end, parent, rid) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.request_ids)
            )
        ]
        path.write_text(json.dumps({"spans": spans}))


def _engine_facts(result) -> dict:
    """Rows and measured kernel seconds of one engine call's result."""
    return {
        "rows": int(result.predictions.shape[0]),
        "kernel_s": float(sum(b.breakdown.total for b in result.batches)),
    }


#: Span names whose results carry facts the per-layer metrics need.
_RESULT_FACTS = {
    "core.predict": _engine_facts,
    "core.explain": _engine_facts,
    "core.sim_predict": _engine_facts,
}


def _timed(log: SpanLog, name: str, fn):
    facts = _RESULT_FACTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if facts is not None:
            log.extras[index] = facts(result)
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """The wrappers a traced run installed, and the originals they replace."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def install(log: SpanLog) -> Patches:
    """Bind a timing wrapper around every target; returns the undo record."""
    patches = Patches()
    try:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(_timed(log, name, original.__func__))
            else:
                replacement = _timed(log, name, original)
            patches.saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
    except BaseException:
        patches.restore()
        raise
    return patches


def originals() -> list:
    """The objects currently bound at every target (for restore checks)."""
    return [inspect.getattr_static(*_resolve(m, p)) for m, p, _ in TARGETS]
