"""The :class:`TahoeRouter` — fleet front end over TahoeServer shards.

One server is one process; the fleet tier answers "heavy traffic from
millions of users" with N of them behind a router.  The router is
itself a :class:`~repro.serving.api.Server` — same ``submit`` / ``run``
/ ``summary`` / ``metrics`` surface — so workloads, benches and the CLI
drive a fleet exactly as they drive one server.  Three dispatch modes:

``replicate``
    Every shard serves the full model; each request goes to the shard
    with the **least outstanding work** (queued + in-flight samples the
    router has sent it and not yet seen complete).  This is the mode
    the autoscaler operates on: replicas are added and drained from
    hysteresis on rolling p95/queue-depth windows, and because every
    replica adopts the same pinned layout from the shared
    :class:`~repro.core.cache.LayoutCache`, scale-up is conversion-free.

``forest``
    Splitting-shared-forest one tier up: the ensemble is cut into
    neutral sub-forests (:mod:`~repro.serving.fleet.sharding`), every
    request fans out to **all** shards, and the router performs the
    grouped reduction — summing shard leaf-sum partials and applying
    the full forest's finalisation once.  Predictions are bit-identical
    to a single server on the unsplit forest.

``models``
    One shard per logical model name; requests route by
    ``InferenceRequest.model`` (per-model routing over ModelRegistry
    names).

Per-shard admission control sits above the shards' own bounded queues:
when even the least-loaded eligible shard is past the
:class:`~repro.serving.api.AdmissionConfig` limits, the request is
rejected with a structured ``shard_overloaded`` error whose trace spans
still tile arrival → completion.  The router hop itself is a zero-length
``router`` :class:`~repro.serving.tracing.StageSpan` prepended to every
response's trace (and forest-mode responses gain a ``grouped_reduction``
span at completion).

Everything runs on the simulated clock, like the servers underneath:
outstanding-work accounting advances as arrivals advance time, so the
whole fleet is deterministic and unit-testable.
"""

from __future__ import annotations

import heapq
from dataclasses import replace as dc_replace

import numpy as np

from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.gpusim.specs import GPUSpec
from repro.obs.fleet import merge_calibration_trackers, merge_run_reports
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RunRecorder
from repro.obs.report import RunReport
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.serving.api import (
    AdmissionConfig,
    PolicyConfig,
    SchedulerConfig,
    materialize_workload,
)
from repro.serving.fleet.autoscaler import ReplicaAutoscaler
from repro.serving.fleet.sharding import plan_forest_shards
from repro.serving.request import (
    REJECTED_SHARD_OVERLOADED,
    InferenceRequest,
    InferenceResponse,
    ServingError,
)
from repro.serving.server import ServingResult, TahoeServer, quantile_summary, trace_meta
from repro.serving.slo import resolve_slo
from repro.serving.tracing import RequestTrace, StageSpan
from repro.strategies.base import finalize_predictions
from repro.trees.forest import Forest

__all__ = ["TahoeRouter"]

_MODES = ("replicate", "forest", "models")


class _Shard:
    """Router-side bookkeeping for one TahoeServer shard."""

    __slots__ = (
        "name",
        "index",
        "server",
        "active",
        "outstanding",
        "polled",
        "completions",
        "inflight",
        "routed_requests",
        "routed_samples",
        "model",
    )

    def __init__(self, name: str, index: int, server: TahoeServer, model: str) -> None:
        self.name = name
        self.index = index
        self.server = server
        self.active = True
        self.outstanding = 0  # samples routed, not yet seen complete
        self.polled = 0  # responses adopted so far
        self.completions: list[tuple[float, int]] = []  # (completion, n) heap
        self.inflight: dict[int, int] = {}  # request_id -> n_samples
        self.routed_requests = 0
        self.routed_samples = 0
        self.model = model


class TahoeRouter:
    """Load-aware router over N TahoeServer shards (a fleet-level
    :class:`~repro.serving.api.Server`).

    Args:
        forest: model the fleet serves (``replicate``/``forest`` modes).
        spec: GPU model every shard's replicas run on.
        n_shards: initial shard count (``replicate``/``forest``).
        mode: ``"replicate"``, ``"forest"`` or ``"models"``.
        models: ``{name: Forest}`` for ``models`` mode (one shard each).
        scheduler: per-shard :class:`SchedulerConfig` (shared).
        policy: fleet policy — ``slo`` is evaluated at the router,
            ``admission`` gates routing, ``autoscale`` drives replica
            count (``replicate`` mode only).
        config / hardware / layout_cache: shared engine configuration,
            pre-measured hardware parameters (measured once otherwise)
            and the layout cache every shard pools on — the shared cache
            is what makes replication and scale-up conversion-free.
        model_name: logical name replicated shards serve (and the
            default route in ``models`` mode).
    """

    def __init__(
        self,
        forest: Forest | None = None,
        spec: GPUSpec | None = None,
        *,
        n_shards: int = 2,
        mode: str = "replicate",
        models: dict[str, Forest] | None = None,
        scheduler: SchedulerConfig | None = None,
        policy: PolicyConfig | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        layout_cache: LayoutCache | None = None,
        model_name: str = "default",
    ) -> None:
        if spec is None:
            raise TypeError("TahoeRouter requires a GPU spec")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if mode == "models":
            if not models:
                raise TypeError("models mode needs a models= mapping")
        elif forest is None:
            raise TypeError(f"{mode} mode needs a forest=")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.mode = mode
        self.spec = spec
        self.forest = forest
        self.model_name = model_name
        self.scheduler = scheduler if scheduler is not None else SchedulerConfig()
        self.policy = policy if policy is not None else PolicyConfig()
        self.engine_config = config if config is not None else TahoeConfig()
        self.hardware = hardware or measure_hardware_parameters(spec)
        self.layout_cache = layout_cache if layout_cache is not None else LayoutCache()
        self.recorder = RunRecorder()
        self.admission: AdmissionConfig | None = self.policy.admission
        self.slo = resolve_slo(self.policy.slo, self.recorder.metrics)
        if self.policy.autoscale is not None and mode != "replicate":
            raise ValueError("autoscaling requires mode='replicate'")
        self.autoscaler = (
            ReplicaAutoscaler(self.policy.autoscale, metrics=self.recorder.metrics)
            if self.policy.autoscale is not None
            else None
        )
        self.shards: list[_Shard] = []
        if mode == "models":
            for name, model_forest in models.items():
                self._add_shard(name, model_forest, model=name)
            self._default_model = (
                model_name if model_name in models else next(iter(models))
            )
        elif mode == "forest":
            for i, sub in enumerate(plan_forest_shards(forest, n_shards)):
                self._add_shard(f"shard{i}", sub, model=model_name)
            self._default_model = model_name
        else:
            for i in range(n_shards):
                self._add_shard(f"shard{i}", forest, model=model_name)
            self._default_model = model_name
        self.recorder.metrics.gauge(
            "fleet.shards", help="active shards"
        ).set(len(self._active_shards()))
        # Fleet state (persists across submit()/run() calls).
        self._clock = 0.0
        self._responses: list[InferenceResponse] = []
        self._pending: list[InferenceRequest] = []
        # forest mode: request_id -> {"request", "need", "parts"}
        self._reductions: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def _add_shard(self, name: str, forest: Forest, *, model: str) -> _Shard:
        """Build one shard server on the shared cache and hardware.

        After the first shard, the flush point is reused (same model,
        same spec — no reason to re-plan) and conversion is a cache hit,
        so replica spin-up does no conversion work.
        """
        scheduler = self.scheduler
        if self.mode != "models" and self.shards:
            scheduler = dc_replace(
                scheduler, target_batch=self.shards[0].server.target_batch
            )
        server = TahoeServer(
            forest,
            self.spec,
            scheduler=scheduler,
            config=self.engine_config,
            hardware=self.hardware,
            layout_cache=self.layout_cache,
            model_name=model if self.mode != "forest" else forest.name,
        )
        shard = _Shard(name, len(self.shards), server, model)
        self.shards.append(shard)
        return shard

    def _active_shards(self) -> list[_Shard]:
        return [s for s in self.shards if s.active]

    @property
    def n_active_shards(self) -> int:
        return len(self._active_shards())

    # ------------------------------------------------------------------
    # Outstanding-work settlement
    # ------------------------------------------------------------------
    def _settle(self, now: float) -> None:
        """Adopt newly produced shard responses and retire completed
        outstanding work up to ``now``."""
        for shard in self.shards:
            produced = shard.server._responses
            while shard.polled < len(produced):
                response = produced[shard.polled]
                shard.polled += 1
                n = shard.inflight.pop(response.request_id, 0)
                heapq.heappush(
                    shard.completions, (response.completion_time, n)
                )
                self._adopt(shard, response)
            while shard.completions and shard.completions[0][0] <= now:
                _, n = heapq.heappop(shard.completions)
                shard.outstanding -= n

    def _adopt(self, shard: _Shard, response: InferenceResponse) -> None:
        """Fold one shard response into the fleet's response stream."""
        if self.mode == "forest":
            pending = self._reductions.get(response.request_id)
            if pending is None:
                return
            pending["parts"].append((shard.index, response))
            if len(pending["parts"]) == pending["need"]:
                del self._reductions[response.request_id]
                self._responses.append(self._reduce(pending))
            return
        if response.trace is not None:
            response.trace.spans.insert(
                0,
                StageSpan(
                    "router",
                    response.arrival_time,
                    response.arrival_time,
                    {"shard": shard.name},
                ),
            )
        self._observe(response)
        self._responses.append(response)

    def _observe(self, response: InferenceResponse) -> None:
        metrics = self.recorder.metrics
        if response.ok:
            metrics.counter("fleet.completed").inc()
            metrics.histogram(
                "fleet.request_latency_seconds",
                help="arrival-to-completion latency across the fleet",
            ).observe(response.latency)
            if self.autoscaler is not None:
                self.autoscaler.observe(response.completion_time, response.latency)
            if self.slo is not None:
                self.slo.observe(
                    now=response.completion_time,
                    latency=response.latency,
                    ok=not response.missed_deadline,
                )
        else:
            metrics.counter("fleet.errors").inc()
            if self.slo is not None:
                self.slo.observe(now=response.completion_time, ok=False)

    def _finalize_scale(self) -> tuple[np.ndarray | float, float]:
        """(scale, offset) mapping summed neutral-shard partials onto the
        full forest's margin space — the linear part of finalisation
        (``margin = offset + scale * raw_sum``), applied once post-sum."""
        forest = self.forest
        if forest.aggregation == "mean":
            if forest.n_classes > 1:
                return 1.0 / np.maximum(forest.trees_per_class(), 1), 0.0
            return 1.0 / forest.n_trees, 0.0
        return forest.learning_rate, forest.base_score

    def _reduce(self, pending: dict) -> InferenceResponse:
        """Grouped reduction: sum shard partials, finalise once.

        Predict requests sum shard leaf-sum partials and run the full
        forest's finalisation.  Explain requests sum the shards' raw
        attribution partials (each shard explains its neutral sub-forest,
        so partials live in unscaled leaf-sum space) and apply the
        parent's linear finalisation — shrinkage/averaging scale plus
        base score — after the sum, keeping the efficiency axiom intact
        against the full forest's margins.
        """
        request: InferenceRequest = pending["request"]
        parts = [r for _, r in sorted(pending["parts"])]
        completion = max(r.completion_time for r in parts)
        failed = next((r for r in parts if not r.ok), None)
        if failed is not None:
            merged = InferenceResponse(
                request_id=request.request_id,
                predictions=None,
                arrival_time=request.arrival_time,
                completion_time=completion,
                error=failed.error,
                trace=failed.trace,
            )
            self._observe(merged)
            return merged
        attributions = base_values = None
        if request.kind == "explain":
            phi = parts[0].attributions.astype(np.float64, copy=True)
            base = np.asarray(parts[0].base_values, dtype=np.float64)
            for part in parts[1:]:
                phi += part.attributions
                base = base + np.asarray(part.base_values, dtype=np.float64)
            scale, offset = self._finalize_scale()
            attributions = phi * scale
            base_values = base * scale + offset
            # Margins reconstruct from the scaled partials: base + Σ_f φ.
            predictions = base_values + attributions.sum(axis=1)
            if np.ndim(base_values) == 0:
                base_values = float(base_values)
        else:
            total = parts[0].predictions.astype(np.float64, copy=True)
            for part in parts[1:]:
                total += part.predictions
            predictions = finalize_predictions(self.forest, total)
        missed = request.deadline is not None and completion > request.deadline
        trace = None
        if self.scheduler.request_tracing:
            slowest = max(parts, key=lambda r: r.completion_time)
            spans = [
                StageSpan(
                    "router",
                    request.arrival_time,
                    request.arrival_time,
                    {"fanout": len(parts)},
                )
            ]
            if slowest.trace is not None:
                spans.extend(slowest.trace.spans)
            spans.append(
                StageSpan(
                    "grouped_reduction",
                    completion,
                    completion,
                    {"parts": len(parts)},
                )
            )
            trace = RequestTrace(
                trace_id=request.trace_id,
                request_id=request.request_id,
                spans=spans,
            )
        self.recorder.metrics.counter(
            "fleet.grouped_reductions", help="forest-mode reductions performed"
        ).inc()
        merged = InferenceResponse(
            request_id=request.request_id,
            predictions=predictions,
            arrival_time=request.arrival_time,
            completion_time=completion,
            missed_deadline=missed,
            model_version=f"{self.model_name}@forest{len(parts)}",
            trace=trace,
            attributions=attributions,
            base_values=base_values,
        )
        self._observe(merged)
        return merged

    # ------------------------------------------------------------------
    # Admission and routing
    # ------------------------------------------------------------------
    def _overloaded(self, shard: _Shard, request: InferenceRequest) -> str | None:
        """The admission-limit violation routing to ``shard`` would
        cause, or ``None`` when the shard can take the request."""
        if self.admission is None:
            return None
        if (
            shard.outstanding + request.n_samples
            > self.admission.max_outstanding_samples
        ):
            return (
                f"shard {shard.name} outstanding work "
                f"{shard.outstanding} + {request.n_samples} samples exceeds "
                f"{self.admission.max_outstanding_samples}"
            )
        if (
            self.admission.max_queue_depth is not None
            and shard.server.queue_depth >= self.admission.max_queue_depth
        ):
            return (
                f"shard {shard.name} queue depth {shard.server.queue_depth} "
                f"at limit {self.admission.max_queue_depth}"
            )
        return None

    def _reject(
        self, request: InferenceRequest, now: float, detail: str
    ) -> InferenceResponse:
        metrics = self.recorder.metrics
        metrics.counter("fleet.rejected.shard_overloaded").inc()
        trace = None
        if self.scheduler.request_tracing:
            trace = RequestTrace(
                trace_id=request.trace_id,
                request_id=request.request_id,
                spans=[
                    StageSpan(
                        "router",
                        request.arrival_time,
                        now,
                        {"rejected": REJECTED_SHARD_OVERLOADED},
                    ),
                    StageSpan(
                        "response_fanout",
                        now,
                        now,
                        {"rejected": REJECTED_SHARD_OVERLOADED},
                    ),
                ],
            )
        response = InferenceResponse(
            request_id=request.request_id,
            predictions=None,
            arrival_time=request.arrival_time,
            completion_time=now,
            error=ServingError(REJECTED_SHARD_OVERLOADED, detail),
            trace=trace,
        )
        if self.slo is not None:
            self.slo.observe(now=now, ok=False)
        self._responses.append(response)
        return response

    def _route(self, shard: _Shard, request: InferenceRequest) -> None:
        shard.inflight[request.request_id] = request.n_samples
        shard.outstanding += request.n_samples
        shard.routed_requests += 1
        shard.routed_samples += request.n_samples
        metrics = self.recorder.metrics
        metrics.counter("fleet.routed_total").inc()
        metrics.counter(f"fleet.routed.{shard.name}").inc()
        metrics.histogram(
            "fleet.shard_outstanding",
            help="chosen shard's outstanding samples at each routing decision",
        ).observe(shard.outstanding)
        shard.server.submit(request)

    def submit(self, request: InferenceRequest) -> InferenceResponse | None:
        """Route one request at its arrival time.

        Returns the structured ``shard_overloaded`` rejection when
        admission fails; ``None`` when the request was accepted by a
        shard (its response is produced later and collected by
        :meth:`run`).
        """
        now = request.arrival_time
        self._clock = max(self._clock, now)
        self.recorder.metrics.counter("fleet.requests_total").inc()
        self._settle(now)
        if self.autoscaler is not None:
            self._autoscale(now)
        if self.mode == "forest":
            targets = self._active_shards()
            for shard in targets:
                detail = self._overloaded(shard, request)
                if detail is not None:
                    return self._reject(request, now, detail)
            self._reductions[request.request_id] = {
                "request": request,
                "need": len(targets),
                "parts": [],
            }
            for shard in targets:
                self._route(shard, request)
            # Parts a shard resolved synchronously (its own bounded-queue
            # rejection) are already polled; check for early completion.
            self._settle(now)
            return None
        model = request.model if request.model is not None else self._default_model
        eligible = [s for s in self._active_shards() if s.model == model]
        if not eligible:
            return self._reject(request, now, f"no shard serves model {model!r}")
        shard = min(eligible, key=lambda s: (s.outstanding, s.index))
        detail = self._overloaded(shard, request)
        if detail is not None:
            return self._reject(request, now, detail)
        self._route(shard, request)
        return None

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def _autoscale(self, now: float) -> None:
        active = self._active_shards()
        depths = [s.server.queue_depth for s in active]
        mean_depth = sum(depths) / len(depths) if depths else 0.0
        action = self.autoscaler.evaluate(
            now, n_active=len(active), mean_queue_depth=mean_depth
        )
        if action == "scale_up":
            self._scale_up(now)
        elif action == "scale_down":
            self._scale_down(now)

    def _scale_up(self, now: float) -> None:
        n_before = self.n_active_shards
        # A previously drained replica is the cheapest capacity of all.
        parked = next((s for s in self.shards if not s.active), None)
        if parked is not None:
            parked.active = True
            shard = parked
            how = "reactivated"
        else:
            shard = self._add_shard(f"shard{len(self.shards)}", self.forest,
                                    model=self.model_name)
            how = "built"
        self.autoscaler.record_action(
            "scale_up",
            now,
            n_before=n_before,
            n_after=self.n_active_shards,
            shard=shard.name,
            provisioning=how,
            conversion_cache_hit=bool(
                shard.server.engines[0].conversion_stats.cache_hit
            ),
        )
        self.recorder.metrics.gauge("fleet.shards").set(self.n_active_shards)

    def _scale_down(self, now: float) -> None:
        active = self._active_shards()
        n_before = len(active)
        # Drain the replica with the least outstanding work; it stops
        # receiving traffic and finishes what it holds.
        shard = min(active, key=lambda s: (s.outstanding, -s.index))
        shard.active = False
        self.autoscaler.record_action(
            "scale_down",
            now,
            n_before=n_before,
            n_after=self.n_active_shards,
            shard=shard.name,
            outstanding_at_drain=shard.outstanding,
        )
        self.recorder.metrics.gauge("fleet.shards").set(self.n_active_shards)

    # ------------------------------------------------------------------
    # Serving (the Server protocol)
    # ------------------------------------------------------------------
    def run(
        self,
        workload=None,
        *,
        until: float | None = None,
        report: bool = False,
    ) -> ServingResult:
        """Serve a workload across the fleet.

        Same contract as :meth:`TahoeServer.run`: ``workload`` is an
        iterable of requests or a :class:`~repro.serving.api.Workload`;
        ``until=None`` drains every shard fully, otherwise the fleet
        advances to ``until`` and holds later arrivals for the next
        call.
        """
        mark = len(self._responses)
        requests = self._pending + materialize_workload(workload, until)
        self._pending = []
        requests.sort(key=lambda r: r.arrival_time)
        for request in requests:
            if until is not None and request.arrival_time > until:
                self._pending.append(request)
                continue
            self.submit(request)
        if until is None:
            for shard in self.shards:
                shard.server.run()
            self._settle(float("inf"))
        else:
            for shard in self.shards:
                shard.server.run(until=until)
            self._settle(until)
        responses = self._responses[mark:]
        summary = self.summary(responses)
        run_report = None
        if report:
            run_report = self.build_report(responses=responses, serving_summary=summary)
        responses = sorted(responses, key=lambda r: r.request_id)
        return ServingResult(responses=responses, summary=summary, report=run_report)

    def metrics(self) -> MetricsRegistry:
        """The router's live :class:`MetricsRegistry` (fleet.* series)."""
        return self.recorder.metrics

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, responses: list[InferenceResponse] | None = None) -> dict:
        """JSON-ready fleet aggregate: router counters, per-shard rows,
        autoscaler events, SLO state."""
        if responses is None:
            responses = list(self._responses)
        metrics = self.recorder.metrics
        latency = metrics.histogram("fleet.request_latency_seconds")
        completed = [r for r in responses if r.ok]
        makespan = 0.0
        if completed:
            makespan = max(r.completion_time for r in completed) - min(
                r.arrival_time for r in completed
            )
        return {
            "mode": self.mode,
            "requests": len(responses),
            "completed": len(completed),
            "rejected_shard_overloaded": int(
                metrics.counter("fleet.rejected.shard_overloaded").value
            ),
            "grouped_reductions": int(
                metrics.counter("fleet.grouped_reductions").value
            ),
            "n_shards": self.n_active_shards,
            "n_shards_ever": len(self.shards),
            "achieved_qps": (len(completed) / makespan)
            if makespan > 0
            else float("inf"),
            "latency_s": quantile_summary(latency),
            "slo": self.slo.summary() if self.slo is not None else None,
            "autoscale": (
                self.autoscaler.summary() if self.autoscaler is not None else None
            ),
            "shards": [
                {
                    "name": shard.name,
                    "model": shard.model,
                    "active": shard.active,
                    "routed_requests": shard.routed_requests,
                    "routed_samples": shard.routed_samples,
                    "outstanding": shard.outstanding,
                    "queue_depth": shard.server.queue_depth,
                    "target_batch": shard.server.target_batch,
                }
                for shard in self.shards
            ],
            "layout_cache": self.layout_cache.stats(),
        }

    def build_report(
        self, responses: list[InferenceResponse] | None = None, **meta
    ) -> RunReport:
        """One fleet :class:`RunReport`: per-shard reports merged via
        :func:`~repro.obs.fleet.merge_run_reports`, with the calibration
        section rebuilt exactly from the live per-engine trackers
        (merged per hardware target, never concatenated) and the metric
        registries folded replica-wise."""
        meta = dict(meta)
        if responses is not None and self.scheduler.request_tracing:
            meta.update(trace_meta(responses))
        if self.slo is not None:
            meta["slo"] = self.slo.summary()
        if self.autoscaler is not None:
            meta["autoscale_events"] = list(self.autoscaler.events)
        shard_reports = [
            shard.server.build_report(shard_name=shard.name) for shard in self.shards
        ]
        report = merge_run_reports(
            shard_reports, engine="tahoe-fleet", mode=self.mode, **meta
        )
        report.gpu = self.spec.name
        # Exact calibration: merge the live trackers per target key
        # instead of approximating from the serialised summaries.
        trackers = [self.recorder.calibration]
        for shard in self.shards:
            trackers.append(shard.server.recorder.calibration)
            trackers.extend(e.recorder.calibration for e in shard.server.engines)
        report.calibration = merge_calibration_trackers(trackers).summary()
        merged_metrics = MetricsRegistry()
        merged_metrics.merge(self.recorder.metrics)
        for shard in self.shards:
            merged_metrics.merge(shard.server.recorder.metrics)
        report.metrics = merged_metrics.snapshot()
        return report
