"""Per-layer metrics of a traced pass.

Most ``*_ms`` metrics are totals over the measured phases of the traced
pass.  The exceptions say so in their names (``_p50``/``_p99``
quantiles; means ``_per_call``, ``_per_req``, ``_per_row``) or are
set-up costs given per set-up (``serving.plan_ms``, ``core.flatten_ms``,
the conversion stages, ``modelstore.*_ms``, ``perfmodel.microbench_ms``);
``core.sim_predict_ms`` is the mean simulated ``predict`` call.  Counts
are totals over the measured phases.  ``self_ms.<layer>`` and
``calls.<layer>`` cover the whole traced pass, with the program's calls
made for the benchmark's own inputs, reference answers and checks
counted under ``driver``; with ``trace.unattributed_ms`` the self times
add up to ``trace.outer_ms``.  The end-to-end figures that carry no
bound (:data:`perfbench.workloads.UNBOUNDED`) come from the
untraced half of the run.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from perfbench.tracing import LAYERS, SpanLog
from perfbench.workloads import UNBOUNDED

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    # End-to-end figures without a bound, from the untraced half.
    ("rows_per_s", "rows/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("host.ref_op_ms", "ms", "lower"),
    ("batch_p50_ms", "ms", "lower"),
    ("batch_p99_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("slo_attainment", "share", "higher"),
    ("saturation_rps", "req/s", "higher"),
    ("serving.self_ms_per_req", "ms", "lower"),
    ("serving.summary_share", "share", "lower"),
    ("serving.run_calls", "count", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.batch_size_mean", "rows", "higher"),
    ("serving.target_batch", "rows", "higher"),
    ("serving.clock_gap_ms_p50", "ms", "lower"),
    ("serving.rejected_queue_full", "count", "lower"),
    ("serving.rejected_deadline", "count", "lower"),
    ("serving.plan_ms", "ms", "lower"),
    ("core.predict_ms_p50", "ms", "lower"),
    ("core.predict_ms_p99", "ms", "lower"),
    ("core.kernel_share", "share", "higher"),
    ("core.wrapper_ms_per_call", "ms", "lower"),
    ("core.flatten_ms", "ms", "lower"),
    ("core.sim_predict_ms", "ms", "lower"),
    ("conversion.fetch_probabilities_ms", "ms", "lower"),
    ("formats.node_rearrangement_ms", "ms", "lower"),
    ("hashing.similarity_ms", "ms", "lower"),
    ("formats.format_conversion_ms", "ms", "lower"),
    ("conversion.copy_ms", "ms", "lower"),
    ("formats.node_bytes", "bytes", "lower"),
    ("formats.layout_bytes", "bytes", "lower"),
    ("modelstore.load_packed_ms", "ms", "lower"),
    ("modelstore.artifact_bytes", "bytes", "lower"),
    ("modelstore.import_ms", "ms", "lower"),
    ("perfmodel.microbench_ms", "ms", "lower"),
    ("perfmodel.rank_targets_calls", "count", "lower"),
    ("perfmodel.rank_targets_ms", "ms", "lower"),
    ("perfmodel.select_ms", "ms", "lower"),
    ("obs.record_batch_calls", "count", "lower"),
    ("obs.record_batch_ms", "ms", "lower"),
    ("obs.record_decision_ms", "ms", "lower"),
    ("obs.record_traffic_calls", "count", "lower"),
    ("obs.quantile_ms", "ms", "lower"),
    ("explain.calls", "count", "lower"),
    ("explain.shap_ms_per_row", "ms", "lower"),
    ("explain.path_set_ms", "ms", "lower"),
    ("gpusim.sim_seconds", "s", "lower"),
    ("gpusim.global_fetched_bytes", "bytes", "lower"),
    ("gpusim.transactions", "count", "lower"),
    ("strategies.chosen", "bitmask", "lower"),
    ("strategies.run_ms", "ms", "lower"),
    ("driver.ops", "count", "higher"),
    ("driver.lag_p99_ms", "ms", "lower"),
    ("driver.backlog_end", "count", "lower"),
    ("driver.backlog_end_overload", "count", "lower"),
    ("proc.cpu_util", "share", "lower"),
    ("proc.gc_ms", "ms", "lower"),
    ("proc.invol_ctx_switches", "count", "lower"),
    *[(f"self_ms.{layer}", "ms", "lower") for layer in LAYERS],
    *[(f"calls.{layer}", "count", "lower") for layer in LAYERS],
    ("trace.outer_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.setup_overhead_share", "share", "lower"),
]


class _Scopes:
    """Spans grouped by the benchmark phase (root span) they ran under."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.durations_ms = log.durations_ns() / 1e6
        names = np.asarray(log.names, dtype=object)
        self.names = names
        self.root_names = names[log.roots()] if len(log) else names
        self.setups = int(np.sum(names == "driver.setup"))

    def measured(self, name: str) -> np.ndarray:
        return np.flatnonzero((self.names == name) & (self.root_names == "driver.measure"))

    def measured_ms(self, name: str) -> float:
        return float(self.durations_ms[self.measured(name)].sum())

    def per_setup_ms(self, name: str) -> float:
        idx = np.flatnonzero((self.names == name) & (self.root_names == "driver.setup"))
        return float(self.durations_ms[idx].sum()) / max(self.setups, 1)


def _engine_calls(scopes: _Scopes, names: tuple[str, ...], inside: str | None = None):
    idx = np.concatenate([scopes.measured(n) for n in names])
    if inside is not None:
        idx = np.array([i for i in idx if scopes.log.within(int(i), inside)], dtype=np.int64)
    return idx


def per_layer(ctx, plain_e2e: dict) -> dict[str, float]:
    """Every per-layer metric of a traced pass ``ctx``; ``plain_e2e``
    are the end-to-end metrics of the untraced pass beside it."""
    log: SpanLog = ctx.log
    facts = ctx.facts
    scopes = _Scopes(log)
    extras = log.extras
    out: dict[str, float] = {name: plain_e2e[name] for name in UNBOUNDED}

    # serving
    run_ms = scopes.measured_ms("serving.run")
    in_run = _engine_calls(scopes, ("core.predict", "core.explain"), inside="serving.run")
    engine_in_run_ms = float(scopes.durations_ms[in_run].sum()) if in_run.size else 0.0
    summary_in_run = [
        i for i in scopes.measured("serving.summary") if log.within(int(i), "serving.run")
    ]
    rows_in_run = sum(extras.get(int(i), {}).get("rows", 0) for i in in_run)
    requests = facts.get("requests", 0)
    server = facts.get("server")
    out["serving.self_ms_per_req"] = (run_ms - engine_in_run_ms) / requests if requests else 0.0
    out["serving.summary_share"] = (
        float(scopes.durations_ms[summary_in_run].sum()) / run_ms if run_ms else 0.0
    )
    out["serving.run_calls"] = scopes.measured("serving.run").size
    out["serving.batches"] = in_run.size
    out["serving.batch_size_mean"] = rows_in_run / in_run.size if in_run.size else 0.0
    out["serving.target_batch"] = server.target_batch if server is not None else 0
    out["serving.clock_gap_ms_p50"] = facts.get("clock_gap_ms_p50", 0.0)
    out["serving.rejected_queue_full"] = facts.get("rejected_queue_full", 0)
    out["serving.rejected_deadline"] = facts.get("rejected_deadline", 0)
    out["serving.plan_ms"] = scopes.per_setup_ms("serving.plan")

    # core
    predicts = scopes.measured("core.predict")
    predict_ms = scopes.durations_ms[predicts]
    kernel_ms = np.array([extras.get(int(i), {}).get("kernel_s", 0.0) * 1e3 for i in predicts])
    out["core.predict_ms_p50"] = float(np.quantile(predict_ms, 0.5)) if predicts.size else 0.0
    out["core.predict_ms_p99"] = float(np.quantile(predict_ms, 0.99)) if predicts.size else 0.0
    out["core.kernel_share"] = (
        float(kernel_ms.sum() / predict_ms.sum()) if predicts.size else 0.0
    )
    out["core.wrapper_ms_per_call"] = (
        float((predict_ms.sum() - kernel_ms.sum()) / predicts.size) if predicts.size else 0.0
    )
    out["core.flatten_ms"] = scopes.per_setup_ms("core.flatten")
    sims = scopes.measured("core.sim_predict")
    out["core.sim_predict_ms"] = float(scopes.durations_ms[sims].mean()) if sims.size else 0.0

    # conversion stages (ConversionStats of each set-up's engine)
    stats = facts.get("conversions", [])

    def stage_ms(attr: str) -> float:
        return median(getattr(s, attr) for s in stats) * 1e3 if stats else 0.0

    out["conversion.fetch_probabilities_ms"] = stage_ms("t_fetch_probabilities")
    out["formats.node_rearrangement_ms"] = stage_ms("t_node_rearrangement")
    out["hashing.similarity_ms"] = stage_ms("t_similarity_detection")
    out["formats.format_conversion_ms"] = stage_ms("t_format_conversion")
    out["conversion.copy_ms"] = stage_ms("t_copy_to_gpu")
    layout = facts["layout"]
    out["formats.node_bytes"] = layout.record.node_bytes
    out["formats.layout_bytes"] = layout.total_bytes

    # modelstore
    out["modelstore.load_packed_ms"] = scopes.per_setup_ms("modelstore.load_packed")
    out["modelstore.artifact_bytes"] = facts.get("artifact_bytes", 0)
    out["modelstore.import_ms"] = scopes.per_setup_ms("modelstore.import")

    # perfmodel
    out["perfmodel.microbench_ms"] = scopes.per_setup_ms("perfmodel.microbench")
    out["perfmodel.rank_targets_calls"] = scopes.measured("perfmodel.rank_targets").size
    out["perfmodel.rank_targets_ms"] = scopes.measured_ms("perfmodel.rank_targets")
    out["perfmodel.select_ms"] = scopes.measured_ms("perfmodel.select")

    # obs
    out["obs.record_batch_calls"] = scopes.measured("obs.record_batch").size
    out["obs.record_batch_ms"] = scopes.measured_ms("obs.record_batch")
    out["obs.record_decision_ms"] = scopes.measured_ms("obs.record_decision")
    out["obs.record_traffic_calls"] = scopes.measured("obs.record_traffic").size
    out["obs.quantile_ms"] = scopes.measured_ms("obs.quantile")

    # explain
    explains = scopes.measured("core.explain")
    explained_rows = sum(extras.get(int(i), {}).get("rows", 0) for i in explains)
    out["explain.calls"] = explains.size
    out["explain.shap_ms_per_row"] = (
        scopes.measured_ms("explain.shap") / explained_rows if explained_rows else 0.0
    )
    out["explain.path_set_ms"] = scopes.measured_ms("explain.path_set")

    # gpusim and strategies (simulated counts of the first pass)
    sim = facts.get("sim", {})
    out["gpusim.sim_seconds"] = sim.get("sim_seconds", 0.0)
    out["gpusim.global_fetched_bytes"] = sim.get("global_fetched_bytes", 0)
    out["gpusim.transactions"] = sim.get("transactions", 0)
    out["strategies.chosen"] = sim.get("chosen", 0)
    out["strategies.run_ms"] = scopes.measured_ms("strategies.run")

    # driver and process
    out["driver.ops"] = facts.get("ops", 0)
    out["driver.lag_p99_ms"] = facts.get("lag_p99_ms", 0.0)
    out["driver.backlog_end"] = facts.get("backlog_end", 0)
    out["driver.backlog_end_overload"] = facts.get("backlog_end_overload", 0)
    out["proc.cpu_util"] = ctx.meter.cpu_util
    out["proc.gc_ms"] = ctx.meter.gc_s * 1e3
    out["proc.invol_ctx_switches"] = ctx.meter.invol_ctx_switches

    # self time, calls, remainder and overhead
    for layer, ms in log.layer_self_ms().items():
        out[f"self_ms.{layer}"] = ms
    for layer, calls in log.layer_calls().items():
        out[f"calls.{layer}"] = calls
    outer = facts["outer_ms"]
    out["trace.outer_ms"] = outer
    out["trace.unattributed_ms"] = outer - log.root_ms()
    out["trace.spans"] = len(log)
    traced_e2e = facts["e2e"]
    # Traced minus untraced, as a share of untraced: median latency and
    # set-up time.
    out["trace.overhead_share"] = traced_e2e["latency_p50_ms"] / plain_e2e["latency_p50_ms"] - 1.0
    out["trace.setup_overhead_share"] = traced_e2e["setup_s"] / plain_e2e["setup_s"] - 1.0
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
