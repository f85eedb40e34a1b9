"""The engine skeleton and the Tahoe engine (Algorithm 1).

Workflow, exactly as the paper stages it:

* **Offline (once per platform)** — microbenchmark the hardware
  parameters of Table 1.
* **Online, on forest (re)load** — fetch edge probabilities, rearrange
  nodes, detect tree similarity, convert to the adaptive format, ship the
  converted forest to the GPU.  Each stage is wall-clock timed into
  :class:`ConversionStats` for the section 7.4 overhead analysis, and the
  whole procedure re-runs whenever the forest is updated (incremental
  learning).
* **Per batch** — evaluate the four performance models, execute the
  strategy with the shortest predicted time, and (optionally) count edge
  probabilities observed during inference for the next conversion.

:class:`PipelineEngine` is that workflow with the engine-specific steps
left as hooks; :class:`TahoeEngine`,
:class:`~repro.core.fil.FILEngine` and
:class:`~repro.core.native.NativeEngine` differ only in the hooks they
supply (layout recipe and cache key, the stage-5 ship, and the
per-batch predict and explain executors).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.base import (
    ConversionStats,
    EngineBase,
    EngineResult,
    check_batch,
    prediction_buffer,
)
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.obs.recorder import RunRecorder
from repro.obs.trace import span
from repro.formats.layout import ForestLayout, NodeRecordLayout, build_interleaved_layout
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.formats.tree_rearrange import similarity_tree_order
from repro.gpusim.specs import GPUSpec
from repro.gpusim.trace import flatten_layout
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.perfmodel.selector import rank_explain_strategies, rank_strategies
from repro.strategies import StrategyNotApplicable, StrategyResult
from repro.trees.forest import Forest
from repro.trees.probabilities import update_visit_counts

if TYPE_CHECKING:
    from repro.explain import ExplainResult

__all__ = [
    "ConversionStats",
    "EngineResult",
    "PipelineEngine",
    "TahoeEngine",
    "convert_forest",
]


def convert_forest(forest: Forest, config: TahoeConfig) -> tuple[ForestLayout, ConversionStats]:
    """Run conversion stages 1–4 (Algorithm 1 lines 5–7) on ``forest``.

    The shared online pipeline behind every adaptive-layout consumer:
    :class:`TahoeEngine` and :class:`~repro.core.native.NativeEngine`
    both call this, so the two backends produce byte-identical layouts
    for the same ``(forest, config)`` — which is what lets them share
    :class:`~repro.core.cache.LayoutCache` entries under the same key.
    Stage 5 (shipping the layout to the execution target: the simulated
    GPU image, or the native flat arrays) stays engine-specific; its
    time goes into the returned stats' ``t_copy_to_gpu`` by the caller.
    """
    stats = ConversionStats()
    t0 = time.perf_counter()
    # Stage 1: fetch the tree ensemble and edge probabilities
    # "from GPU" — materialise the per-tree probability arrays.
    with span("fetch_probabilities", category="conversion"):
        edge_probs = [tree.edge_probabilities() for tree in forest.trees]
        del edge_probs
    t1 = time.perf_counter()
    stats.t_fetch_probabilities = t1 - t0
    # Stage 2: probability-based node rearrangement.
    with span("node_rearrangement", category="conversion"):
        structured = (
            rearrange_forest_nodes(forest) if config.node_rearrangement else forest
        )
    t2 = time.perf_counter()
    stats.t_node_rearrangement = t2 - t1
    # Stage 3: similarity detection (SimHash + LSH).
    with span(
        "similarity_detection", category="conversion", method=config.similarity_method
    ):
        if config.tree_rearrangement and forest.n_trees > 1:
            order = similarity_tree_order(
                structured,
                t_nodes=config.t_nodes,
                l_hash=config.l_hash,
                m_chunks=config.m_chunks,
                method=config.similarity_method,
            )
        else:
            order = None
    t3 = time.perf_counter()
    stats.t_similarity_detection = t3 - t2
    # Stage 4: convert to the adaptive format.
    with span("format_conversion", category="conversion"):
        encoding = None
        if config.node_width is not None:
            from repro.formats.encoding import make_encoding

            encoding = make_encoding(structured, config.node_width, config.threshold_mode)
            record = NodeRecordLayout.packed_record(encoding)
        elif config.variable_width:
            record = NodeRecordLayout.variable(structured)
        else:
            record = NodeRecordLayout.fixed()
        layout = build_interleaved_layout(
            structured, record, order, "adaptive", encoding=encoding
        )
    stats.t_format_conversion = time.perf_counter() - t3
    stats.node_encoding = record.encoding_label
    return layout, stats


class PipelineEngine(EngineBase):
    """Algorithm 1 as one skeleton: hardware, conversion, batch driver.

    Construction runs the online conversion (or adopts a cached or
    packed layout); :meth:`predict` and :meth:`explain` share one batch
    driver (input check, batch-size normalisation, output allocation
    shaped by ``n_classes``, result assembly).  A concrete engine sets
    ``engine_name`` (and ``time_domain`` when not simulated) and
    supplies the per-batch executors ``_predict_batch`` and
    ``_explain_batch``, which record their own telemetry.  The other
    hooks default to the adaptive pipeline shipped to the simulated GPU:
    ``_default_hardware``, the layout recipe ``_build_layout`` with its
    cache key ``conversion_key``, the stage-5 ``_ship``, per-layout
    executor state ``_install``, ``_after_predict``, and
    :class:`~repro.core.base.EngineBase`'s ``_report_meta``.

    Everything after ``(forest, spec)`` is keyword-only (the shared
    :class:`~repro.core.base.Engine` surface).

    Args:
        forest: trained forest (visit counts carry the edge
            probabilities learned during training).
        spec: GPU to run on (and part of the layout-cache key).
        config: engine configuration; defaults are the paper's
            (default-constructed per engine when omitted).
        hardware: pre-measured hardware parameters (reuse across engines
            on the same GPU; measured on demand otherwise).
        recorder: telemetry sink (built from ``config.obs`` otherwise).
        layout_cache: converted-layout cache shared across engines; a
            hit skips the whole conversion pipeline (``conversion_stats``
            records it).
    """

    def __init__(
        self,
        forest: Forest,
        spec: GPUSpec,
        *,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
    ) -> None:
        self._init_common(spec, config, hardware, recorder, layout_cache)
        self._convert(forest)

    def _init_common(
        self,
        spec: GPUSpec,
        config: TahoeConfig | None,
        hardware: HardwareParams | None,
        recorder: RunRecorder | None,
        layout_cache: LayoutCache | None,
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else TahoeConfig()
        self.recorder = (
            recorder if recorder is not None else RunRecorder(tracing=self.config.obs.tracing)
        )
        self.hardware = hardware or self._default_hardware(spec)
        self.layout_cache = layout_cache
        self.layout: ForestLayout | None = None
        self.conversion_stats = ConversionStats()

    @classmethod
    def from_layout(
        cls,
        layout: ForestLayout,
        spec: GPUSpec,
        *,
        cache_key: tuple | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
    ) -> PipelineEngine:
        """Build an engine around an already-converted layout.

        This is the packed-artifact fast path
        (:mod:`repro.modelstore.artifact`): the conversion pipeline is
        skipped entirely, so ``conversion_stats`` reports zero time for
        every stage with ``source="artifact"``.  When ``cache_key`` and
        ``layout_cache`` are both given the layout is published to the
        cache, so later engines built from the *source* forest hit it.
        """
        engine = cls.__new__(cls)
        engine._init_common(spec, config, hardware, recorder, layout_cache)
        engine._adopt_layout(layout, ConversionStats(source="artifact"), cache_key)
        return engine

    def _adopt_layout(
        self,
        layout: ForestLayout,
        stats: ConversionStats,
        cache_key: tuple | None = None,
    ) -> None:
        """Install a finished layout and record its conversion stats."""
        self.layout = layout
        self.forest = layout.forest
        stats.node_encoding = layout.record.encoding_label
        self._install()
        self.conversion_stats = stats
        self.recorder.record_conversion(stats)
        if self.layout_cache is not None and cache_key is not None:
            self.layout_cache.put(cache_key, layout)

    # ------------------------------------------------------------------
    # Online part: format optimisation (Algorithm 1, lines 5-7)
    # ------------------------------------------------------------------
    def _convert(self, forest: Forest) -> None:
        cache_key = None
        if self.layout_cache is not None:
            t0 = time.perf_counter()
            cache_key = LayoutCache.key(forest, self.spec, self.conversion_key())
            cached = self.layout_cache.get(cache_key)
            lookup = time.perf_counter() - t0
            if cached is not None:
                with self.recorder.activate(), span(
                    "engine.convert", category="conversion", cache_hit=True
                ):
                    stats = ConversionStats(
                        t_cache_lookup=lookup, cache_hit=True, source="cache"
                    )
                self._adopt_layout(cached, stats)
                return
        with self.recorder.activate(), span(
            "engine.convert",
            category="conversion",
            trees=forest.n_trees,
            nodes=forest.n_nodes,
        ):
            layout, stats = self._build_layout(forest)
            t4 = time.perf_counter()
            self._ship(layout)
            stats.t_copy_to_gpu = time.perf_counter() - t4
        self._adopt_layout(layout, stats, cache_key)

    def update_forest(self, forest: Forest) -> ConversionStats:
        """Incremental learning hook: reconvert for an updated forest."""
        self._convert(forest)
        return self.conversion_stats

    # ------------------------------------------------------------------
    # The batch driver shared by predict and explain
    # ------------------------------------------------------------------
    def predict(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        collect_level_stats: bool = False,
        report: bool = False,
    ) -> EngineResult:
        """Run inference over ``X`` batch by batch.

        Args:
            X: sample matrix (non-empty; an empty batch raises
                ``ValueError``).
            batch_size: samples per batch (whole input when omitted) —
                the paper's high-parallelism regime uses 100K, the
                low-parallelism one 100.
            collect_level_stats: gather per-level coalescing statistics
                on each batch (figure 2a analysis; engines without a
                simulated memory system ignore it).
            report: attach this run's :class:`RunReport` to the result
                (conversions, per-batch decisions, traffic metrics).

        ``total_time`` is in the engine's ``time_domain``: simulated GPU
        seconds, or wall seconds for the native backend.
        """
        return self._drive("predict", X, batch_size, report, collect_level_stats)

    def explain(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        report: bool = False,
    ) -> ExplainResult:
        """Exact SHAP attributions for ``X``, batch by batch.

        The explain analogue of :meth:`predict` on the same driver.
        Returns an :class:`~repro.explain.ExplainResult` whose
        attributions are in raw-margin space
        (``base_values + attributions.sum(axis=1)`` reconstructs the
        pre-link margins exactly).
        """
        return self._drive("explain", X, batch_size, report)

    def _drive(self, call, X, batch_size, report, collect_level_stats=False):
        """The batch driver behind ``predict`` and ``explain`` (``call``)."""
        X = check_batch(X, self.forest.n_attributes)
        n = X.shape[0]
        if batch_size is None or batch_size >= n:
            batch_size = n
        K = self.forest.n_classes
        explain = call == "explain"
        if explain:
            # Attributions plus raw margins, always with a class axis.
            phi = np.zeros((n, self.forest.n_attributes, K), dtype=np.float64)
            out = np.zeros((n, K), dtype=np.float64)
        else:
            out = prediction_buffer(n, K)
        batches: list[StrategyResult] = []
        with self.recorder.activate(), span(
            f"engine.{call}", category="engine", samples=n, batch_size=batch_size
        ):
            for index, start in enumerate(range(0, n, batch_size)):
                stop = min(start + batch_size, n)
                if explain:
                    result = self._explain_batch(X, start, stop, index)
                    phi[start:stop] = result.attributions
                else:
                    result = self._predict_batch(X, start, stop, index, collect_level_stats)
                out[start:stop] = result.predictions
                batches.append(result)
        total_time = sum(b.time for b in batches)
        if not explain:
            self._after_predict(X)
        common = dict(
            total_time=total_time,
            batches=batches,
            strategies_used=[b.strategy for b in batches],
            report=self.build_report(n_samples=n, batch_size=batch_size, total_time=total_time)
            if report
            else None,
            time_domain=self.time_domain,
        )
        if not explain:
            return EngineResult(predictions=out, **common)
        from repro.explain import ExplainResult, squeeze_single_class

        phi, base, margins = squeeze_single_class(phi, batches[-1].base_values, out)
        return ExplainResult(attributions=phi, base_values=base, predictions=margins, **common)

    # ------------------------------------------------------------------
    # Hooks (defaults: the adaptive pipeline on the simulated GPU)
    # ------------------------------------------------------------------
    def _default_hardware(self, spec: GPUSpec) -> HardwareParams | None:
        return measure_hardware_parameters(spec)

    def conversion_key(self) -> tuple:
        """The recipe's part of the layout-cache key (and of a packed
        artifact's header)."""
        return self.config.conversion_key()

    def _build_layout(self, forest: Forest) -> tuple[ForestLayout, ConversionStats]:
        return convert_forest(forest, self.config)

    def _ship(self, layout: ForestLayout) -> None:
        # Stage 5: copy the converted forest "to GPU" — materialise the
        # flat device image (address/record arrays).
        with span("copy_to_gpu", category="conversion", bytes=layout.total_bytes):
            flatten_layout(layout)

    def _install(self) -> None:
        pass

    def _after_predict(self, X: np.ndarray) -> None:
        pass


class TahoeEngine(PipelineEngine):
    """Tree structure-aware adaptive inference engine.

    The :class:`PipelineEngine` defaults (adaptive conversion, simulated
    GPU ship) plus model-guided execution: every batch ranks the
    strategy family with the §6 performance models and runs the
    cheapest applicable one.  Constructor arguments are
    :class:`PipelineEngine`'s.
    """

    engine_name = "tahoe"

    # ------------------------------------------------------------------
    # Inference (Algorithm 1, lines 8-16)
    # ------------------------------------------------------------------
    def select_strategy_name(self, n_batch: int) -> str:
        """The strategy the performance models pick for this batch size."""
        ranked = rank_strategies(self.layout, n_batch, self.spec, self.hardware)
        if self.config.strategy_override is not None:
            return self.config.strategy_override
        return ranked[0].name

    def _after_predict(self, X: np.ndarray) -> None:
        if self.config.count_edge_probabilities:
            updated = self.forest.with_trees(
                [
                    update_visit_counts(tree, X, decay=self.config.edge_count_decay)
                    for tree in self.forest.trees
                ]
            )
            # Counts feed the *next* conversion; trigger it immediately so
            # subsequent batches see the refreshed probabilities.
            self._convert(updated)

    def _probe_coalescing(self, X: np.ndarray, rows: np.ndarray) -> None:
        """Measure the layout's forest-read coalescing rate (COA_rate).

        Algorithm 1 line 2 lists COA_rate among the trained-forest inputs;
        a 32-sample probe trace on the real layout measures it once per
        conversion, and the performance models use it in place of the
        paper's fixed "half bandwidth" assumption.
        """
        from repro.formats.tree_rearrange import round_robin_assignment
        from repro.gpusim.trace import trace_tree_parallel

        probe_rows = rows[: min(32, rows.shape[0])]
        assignments = round_robin_assignment(self.forest.n_trees, 64)
        trace = trace_tree_parallel(
            self.layout, X, probe_rows, assignments, self.spec
        )
        self.layout.metadata["coa_rate"] = max(
            0.01, trace.counters.forest_global.load_efficiency
        )

    def _run_ranked(self, X, rows, index, ranked, recorded, what, force=False, **options):
        """Run the first ranked candidate that applies, recording the
        decision (against the ``recorded`` ranking) and the batch.

        Candidates predicted infeasible are skipped unless ``force``.
        """
        for choice in ranked:
            if choice.predicted_time == float("inf") and not force:
                continue
            try:
                result = choice.instantiate().run(
                    self.layout, X, self.spec, sample_rows=rows, **options
                )
            except StrategyNotApplicable:
                continue
            decision = self.recorder.record_decision(
                index, int(rows.shape[0]), recorded, choice
            )
            self.recorder.record_batch(index, result, decision)
            return result
        raise RuntimeError(f"no applicable {what} strategy for this batch")

    def _predict_batch(
        self, X: np.ndarray, start: int, stop: int, index: int, collect_level_stats: bool
    ) -> StrategyResult:
        rows = np.arange(start, stop, dtype=np.int64)
        with span("engine.run_batch", category="engine", index=index, batch=rows.shape[0]):
            if "coa_rate" not in self.layout.metadata:
                with span("coalescing_probe", category="engine"):
                    self._probe_coalescing(X, rows)
            full_ranking = rank_strategies(
                self.layout, rows.shape[0], self.spec, self.hardware
            )
            override = self.config.strategy_override
            ranked = full_ranking
            if override is not None:
                ranked = [c for c in ranked if c.name == override]
                if not ranked:
                    raise ValueError(f"unknown strategy override {override!r}")
            return self._run_ranked(
                X,
                rows,
                index,
                ranked,
                full_ranking,
                "inference",
                force=override is not None,
                collect_level_stats=collect_level_stats,
            )

    def _explain_batch(
        self, X: np.ndarray, start: int, stop: int, index: int
    ) -> StrategyResult:
        # Each batch ranks the explain strategy family and runs the
        # cheapest applicable one on the simulator.
        rows = np.arange(start, stop, dtype=np.int64)
        ranked = rank_explain_strategies(
            self.layout, rows.shape[0], self.spec, self.hardware
        )
        return self._run_ranked(X, rows, index, ranked, ranked, "explain")
