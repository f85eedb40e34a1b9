"""The :class:`RunRecorder` — the glue the engines drive.

One recorder accompanies one engine.  It owns a tracer and a metrics
registry, accumulates conversion / selection / batch records as the
engine works, and assembles the :class:`~repro.obs.report.RunReport`
artifact on demand.  With tracing disabled it costs a handful of list
appends and counter increments per batch, so engines keep it wired in
unconditionally.
"""

from __future__ import annotations

from repro.obs.drift import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    BatchRecord,
    CandidateRecord,
    ConversionRecord,
    RunReport,
    SelectorDecision,
)
from repro.obs.trace import Tracer, use_tracer

__all__ = ["RunRecorder"]


class RunRecorder:
    """Collects one run's telemetry and builds its report.

    Args:
        tracing: record spans (off by default: spans cost a clock read
            and an allocation each; everything else stays on).
    """

    def __init__(self, tracing: bool = False) -> None:
        self.tracer = Tracer(enabled=tracing)
        self.metrics = MetricsRegistry()
        self.calibration = CalibrationTracker()
        self.conversions: list[ConversionRecord] = []
        self.decisions: list[SelectorDecision] = []
        self.batches: list[BatchRecord] = []

    def activate(self):
        """Install this recorder's tracer as the current one (ctx mgr)."""
        return use_tracer(self.tracer)

    # ------------------------------------------------------------------
    # Recording hooks (duck-typed against core/gpusim objects)
    # ------------------------------------------------------------------
    def record_conversion(self, stats) -> ConversionRecord:
        """Adopt one ``ConversionStats`` (section 7.4 stage timings)."""
        record = ConversionRecord.from_stats(stats)
        self.conversions.append(record)
        self.metrics.counter(
            "conversions_total", help="online format conversions performed"
        ).inc()
        if record.cache_hit:
            self.metrics.counter(
                "conversion_cache_hits_total",
                help="conversions satisfied by the layout cache",
            ).inc()
        self.metrics.gauge(
            "conversion_last_seconds", help="wall-clock cost of the last conversion"
        ).set(record.total)
        return record

    def record_decision(self, batch_index: int, batch_size: int, ranked, chosen):
        """Record one selector decision (Algorithm 1 lines 8–15).

        Args:
            ranked: the full ``rank_strategies`` output (candidates best
                first, inapplicable ones with infinite prediction).
            chosen: the ``StrategyChoice`` actually executed.
        """
        candidates = [CandidateRecord(**c.to_record()) for c in ranked]
        chosen_t = chosen.predicted_time
        decision = SelectorDecision(
            batch_index=batch_index,
            batch_size=batch_size,
            chosen=chosen.name,
            predicted_time=None if chosen_t == float("inf") else float(chosen_t),
            candidates=candidates,
        )
        self.decisions.append(decision)
        self.metrics.counter(f"selector.chosen.{chosen.name}").inc()
        return decision

    def record_batch(self, index: int, result, decision=None) -> BatchRecord:
        """Adopt one executed ``StrategyResult``; closes its decision."""
        record = BatchRecord.from_result(index, result)
        self.batches.append(record)
        if decision is not None:
            decision.simulated_time = record.simulated_time
            ratio = decision.prediction_ratio
            if ratio is not None:
                self.metrics.histogram(
                    "selector.prediction_ratio",
                    help="predicted / simulated batch time (1.0 = perfect model)",
                ).observe(ratio)
            self.calibration.record(decision)
            margin = self.calibration.decision_margin(decision)
            if (
                margin is not None
                and decision.predicted_time is not None
                and abs(decision.predicted_time - record.simulated_time) > margin
            ):
                self.metrics.counter(
                    "selector.ranking_at_risk_total",
                    help="decisions whose residual exceeded the selection margin",
                ).inc()
        self.metrics.counter("batches_total").inc()
        self.metrics.counter("samples_total").inc(record.batch_size)
        self.metrics.histogram("batch_time_seconds").observe(record.simulated_time)
        self.metrics.record_traffic(result.counters)
        return record

    # ------------------------------------------------------------------
    # Artifact assembly
    # ------------------------------------------------------------------
    def build_report(
        self,
        engine: str = "tahoe",
        gpu: str = "",
        dataset: str = "",
        n_samples: int = 0,
        batch_size: int | None = None,
        total_time: float = 0.0,
        **meta,
    ) -> RunReport:
        meta = dict(meta)
        if self.tracer.enabled:
            meta.setdefault("n_spans", len(self.tracer.spans))
            meta.setdefault("spans_dropped", self.tracer.dropped)
        return RunReport(
            engine=engine,
            gpu=gpu,
            dataset=dataset,
            n_samples=n_samples,
            batch_size=batch_size,
            total_time=total_time,
            conversions=list(self.conversions),
            batches=list(self.batches),
            decisions=list(self.decisions),
            metrics=self.metrics.snapshot(),
            calibration=self.calibration.summary(),
            meta=meta,
        )

    def reset(self) -> None:
        """Forget everything recorded so far (tracer epoch restarts)."""
        self.tracer.reset()
        self.metrics.reset()
        self.calibration = CalibrationTracker()
        self.conversions.clear()
        self.decisions.clear()
        self.batches.clear()
