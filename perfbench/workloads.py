"""The two benchmark workloads.

Each workload builds its inputs from the seed, sets the program up
several times (``setup_s`` is the median), computes reference answers
outside any timed region, drives a measured phase, and then checks every
answer:

* ``mixed-explain``: :class:`TahoeServer` (native backend) on a packed
  letter artifact; open-loop Poisson single-row requests at a fixed
  rate, 20% of them ``explain``, then an overload phase far above
  capacity.
* ``sim-higgs``: :class:`TahoeEngine` (simulated P100) on the Higgs
  forest and rows; 100-row calls over the split, then the whole split.

The program is entered only through public callables, each looked up as
a module or class attribute at call time, so a traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
import repro.core.engine as core_engine
import repro.modelstore as modelstore
import repro.serving as serving
import repro.trees.io as trees_io
from repro.explain.kernel import shap_check_efficiency
from repro.explain.paths import path_set_for_layout

from perfbench import driver, inputs
from perfbench.tracing import SpanLog

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: The paper's low-parallelism batch (section 7.1).
LOW_BATCH = 100
#: Warm-up calls inside each set-up (their cost is part of ``setup_s``).
WARMUP_CALLS = 2
#: Warm-up requests sent through each server set-up.
WARMUP_REQUESTS = 64
#: ``mixed-explain`` traffic: the fixed steady rate and share of explain
#: requests, and an overload rate far above the server's capacity.
SERVING_RATE = 500.0
OVERLOAD_RATE = 16000.0
EXPLAIN_SHARE = 0.2
#: Share of ``--seconds`` given to the fixed-rate and overload schedules;
#: the rest is left for the overload backlog to drain (at a few thousand
#: requests per second, about six times the overload schedule's length).
STEADY_SHARE = 0.8
OVERLOAD_SHARE = 0.02
#: ``slo_attainment`` limit of a serving request.
SERVING_SLO_S = 0.02
#: ``slo_attainment`` limit of a ``sim-higgs`` call, per row.  The engine
#: serves whole batches, so the limit is per call and scales with its
#: rows.  It is about 1.5 times the median per-row time measured on a
#: quiet 2-vCPU x86 host (100-row calls ~40 ms), so a slowdown of that
#: size shows as missed calls.
CALL_SLO_S_PER_ROW = 0.6e-3
#: Strategy bit in ``strategies.chosen`` (a bitmask of strategies used).
STRATEGY_BITS = {"direct": 1, "shared_data": 2, "shared_forest": 4, "splitting_shared_forest": 8}

#: The bounded end-to-end metrics (``--trace 0``).  ``cost_per_row`` is
#: the program's wall time per correctly scored row (inside ``predict``
#: or ``run()``), each call's time divided by the median time of the
#: driver's reference operation in the same second
#: (:meth:`driver.HostReference.in_reference_units`): the time a row
#: costs, in units of the host's current speed.
E2E_UNITS = {
    "setup_s": "s",
    "cost_per_row": "ref",
    "peak_rss_mb": "MB",
}
#: End-to-end figures that a bound of at most 25% does not resolve on a
#: host of two vCPUs on a shared machine, where every process's speed
#: drifts by 10-40% over minutes: raw throughput and latency (ten seeds
#: spread 0.27 on ``mixed-explain`` ``rows_per_s`` and 0.26 on
#: ``sim-higgs`` ``latency_p50_ms``), the tails, the short overload
#: phase, the server's ``run()`` call time (calls carry a varying number
#: of requests) and a share that one slow phase can move.  The traced
#: run reports them, unbounded, from its untraced half, with the
#: reference operation's median time.
UNBOUNDED = (
    "rows_per_s",
    "latency_p50_ms",
    "host.ref_op_ms",
    "batch_p50_ms",
    "batch_p99_ms",
    "latency_p99_ms",
    "slo_attainment",
    "saturation_rps",
)


@dataclass
class Context:
    """One pass of a workload: its seed, length and (optional) span log."""

    name: str
    seed: int
    seconds: float
    workdir: Path
    log: SpanLog | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    input_digest: str = ""
    #: One line per measured phase: sent, succeeded, rejected, failed.
    phase_lines: list[str] = field(default_factory=list)
    meter: driver.ProcessMeter = field(default_factory=driver.ProcessMeter)
    #: Facts the per-layer report needs beyond the spans.
    facts: dict = field(default_factory=dict)

    def span(self, name: str):
        return contextlib.nullcontext() if self.log is None else self.log.span(name)

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.problems.append(why)

    def setups(self, build) -> tuple[list[float], object]:
        """Run ``build`` :data:`SETUP_REPEATS` times; returns the times and
        the last set-up (the one the measured phase uses)."""
        times = []
        for _ in range(SETUP_REPEATS):
            built = None  # release the previous set-up before the next
            gc.collect()
            with self.span("driver.setup"):
                t0 = time.perf_counter()
                built = build()
                times.append(time.perf_counter() - t0)
        gc.collect()
        return times, built


def _quantile_ms(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.quantile(values, q)) * 1e3 if values.size else 0.0


# ----------------------------------------------------------------------
# Closed-loop engine workload
# ----------------------------------------------------------------------
def _closed_loop_metrics(phase: driver.ClosedLoopPhase, ref: driver.HostReference,
                         rows: list[int], ok: np.ndarray, setups: list[float]) -> dict:
    walls = np.asarray(phase.walls_s)
    rows = np.asarray(rows)
    ok_rows = max(float(np.sum(rows[ok])), 1.0)
    per_row_s = float(walls.sum()) / ok_rows
    return {
        "setup_s": median(setups),
        "cost_per_row": ref.in_reference_units(phase.starts_s, phase.walls_s) / ok_rows,
        "host.ref_op_ms": ref.median_s() * 1e3,
        "rows_per_s": 1.0 / per_row_s,
        "batch_p50_ms": _quantile_ms(walls, 0.5),
        "batch_p99_ms": _quantile_ms(walls, 0.99),
        # One caller that waits for each reply: a request's latency is
        # its call's wall time, so these repeat the batch figures over
        # the correct calls only.
        "latency_p50_ms": _quantile_ms(walls[ok], 0.5),
        "latency_p99_ms": _quantile_ms(walls[ok], 0.99),
        "slo_attainment": float(np.mean(ok & (walls <= rows * CALL_SLO_S_PER_ROW))),
        # The one caller saturates the engine: calls per second.
        "saturation_rps": float(ok.sum()) / phase.wall_s,
    }


def _run_closed_loop(ctx: Context, call, n_inputs: int, expected) -> tuple:
    """Drive ``call`` and check each result against ``expected(item)``."""
    ref = driver.HostReference()
    ctx.meter.start()
    try:
        with ctx.span("driver.measure"):
            phase = driver.drive_closed_loop(call, n_inputs, ctx.seconds, ref=ref, log=ctx.log)
    finally:
        ctx.meter.stop()
    ctx.fail(len(phase.errors), "; ".join(phase.errors[:1]))
    with ctx.span("driver.check"):
        ok = np.array(
            [
                result is not None and np.array_equal(result.predictions, expected(item))
                for item, result in zip(phase.inputs, phase.results)
            ],
            dtype=bool,
        )
    ctx.attempted += len(phase.inputs)
    ctx.phase_lines.append(
        f"closed loop: sent={len(phase.inputs)} succeeded={int(ok.sum())} rejected=0 "
        f"failed={int((~ok).sum())}"
    )
    wrong = int((~ok).sum()) - len(phase.errors)
    ctx.fail(wrong, f"{wrong} predict calls disagreed with Forest.predict")
    ctx.facts["ops"] = len(phase.inputs)
    return phase, ref, ok


def sim_higgs(ctx: Context) -> dict:
    spec = inputs.bench_spec()
    with ctx.span("driver.inputs"):
        split = inputs.dataset_rows("Higgs", inputs.HIGGS_SPLIT_ROWS, ctx.seed)
    ctx.input_digest = inputs.digest(split)
    n_low = split.shape[0] // LOW_BATCH
    # One pass: every 100-row slice of the split, then the whole split.
    slices = [slice(k * LOW_BATCH, (k + 1) * LOW_BATCH) for k in range(n_low)]
    slices.append(slice(0, split.shape[0]))

    conversions = []

    def build():
        forest = trees_io.load_forest(inputs.HIGGS_FOREST)
        engine = core_engine.TahoeEngine(forest, spec)
        conversions.append(engine.conversion_stats)
        for _ in range(WARMUP_CALLS):
            engine.predict(split[slices[0]])
        return forest, engine

    setups, (forest, engine) = ctx.setups(build)
    with ctx.span("driver.reference"):
        reference = forest.predict(split)
    phase, ref, ok = _run_closed_loop(
        ctx, lambda k: engine.predict(split[slices[k]]), len(slices),
        lambda k: reference[slices[k]],
    )
    first_pass = [r for r in phase.results[: len(slices)] if r is not None]
    batches = [b for r in first_pass for b in r.batches]
    ctx.facts.update(
        conversions=conversions,
        layout=engine.layout,
        sim={
            "sim_seconds": float(sum(r.total_time for r in first_pass)),
            "global_fetched_bytes": int(sum(b.counters.global_fetched_bytes for b in batches)),
            "transactions": int(
                sum(
                    c.transactions
                    for b in batches
                    for c in (
                        b.counters.forest_global,
                        b.counters.sample_global,
                        b.counters.output_global,
                    )
                )
            ),
            "chosen": int(
                np.bitwise_or.reduce(
                    [STRATEGY_BITS[s] for r in first_pass for s in r.strategies_used] or [0]
                )
            ),
        },
    )
    rows = [slices[k].stop - slices[k].start for k in phase.inputs]
    return _closed_loop_metrics(phase, ref, rows, ok, setups)


# ----------------------------------------------------------------------
# Open-loop serving workload
# ----------------------------------------------------------------------


def _requests(schedule: inputs.Schedule, pool: np.ndarray, *, first_id: int,
              clock_base: float) -> list:
    return [
        serving.InferenceRequest(
            request_id=first_id + i,
            X=pool[row : row + 1],
            arrival_time=clock_base + float(t),
            kind="explain" if explain else "predict",
        )
        for i, (t, row, explain) in enumerate(
            zip(schedule.times, schedule.rows, schedule.explain)
        )
    ]


class _Checker:
    """Reference answers for the letter pool, computed before timing."""

    def __init__(self, forest, pool: np.ndarray, artifact: Path, spec) -> None:
        self.predictions = forest.predict(pool)
        # An engine of its own, on a layout of its own, so the reference
        # never warms the served engine's caches.
        engine = modelstore.load_packed(artifact).make_engine(spec, backend="native")
        self.attributions = engine.explain(pool).attributions
        self.margins = forest.raw_margin(pool)
        self.path_set = path_set_for_layout(engine.layout)

    def correct(self, response, row: int, explain: bool) -> bool:
        if response is None or not response.ok:
            return False
        if not explain:
            return bool(np.array_equal(response.predictions, self.predictions[row : row + 1]))
        phi = response.attributions
        if not np.array_equal(phi, self.attributions[row : row + 1]):
            return False
        try:
            shap_check_efficiency(self.path_set, phi[:, :, None], self.margins[row : row + 1])
        except AssertionError:
            return False
        return True


def mixed_explain(ctx: Context) -> dict:
    spec = inputs.bench_spec()
    with ctx.span("driver.inputs"):
        forest = trees_io.load_forest(inputs.LETTER_FOREST)
        pool = inputs.dataset_rows("letter", inputs.LETTER_POOL_ROWS, ctx.seed)
        warm = inputs.poisson_schedule(
            ctx.seed, 0, rate=SERVING_RATE, duration=1.0, pool_rows=pool.shape[0],
            explain_share=EXPLAIN_SHARE,
        )
        warm = inputs.Schedule(
            warm.times[:WARMUP_REQUESTS], warm.rows[:WARMUP_REQUESTS],
            warm.explain[:WARMUP_REQUESTS],
        )
        # Every set-up warms the explain path too.
        warm.explain[:2] = True
        steady = inputs.poisson_schedule(
            ctx.seed, 1, rate=SERVING_RATE, duration=STEADY_SHARE * ctx.seconds,
            pool_rows=pool.shape[0], explain_share=EXPLAIN_SHARE,
        )
        overload = inputs.poisson_schedule(
            ctx.seed, 2, rate=OVERLOAD_RATE, duration=OVERLOAD_SHARE * ctx.seconds,
            pool_rows=pool.shape[0], explain_share=EXPLAIN_SHARE,
        )
        # Packing is the offline deployment step, outside set-up.
        artifact = ctx.workdir / f"{ctx.name}-{ctx.seed}.tahoe"
        modelstore.pack_forest(forest, spec, artifact)
    ctx.input_digest = inputs.digest(
        pool, steady.times, steady.rows, steady.explain,
        overload.times, overload.rows, overload.explain,
    )

    def build():
        packed = modelstore.load_packed(artifact)
        server = serving.TahoeServer(
            packed=packed, spec=spec, scheduler=serving.SchedulerConfig(backend="native")
        )
        warm_result = server.run(_requests(warm, pool, first_id=0, clock_base=0.0))
        return server, warm_result

    setups, (server, warm_result) = ctx.setups(build)
    with ctx.span("driver.reference"):
        checker = _Checker(forest, pool, artifact, spec)
    for k, response in enumerate(warm_result.responses):
        if not checker.correct(response, int(warm.rows[k]), bool(warm.explain[k])):
            ctx.fail(1, "a warm-up answer was wrong")
    max_wait = server.config.max_wait
    clock_base = max(r.completion_time for r in warm_result.responses) + 1.0
    phases = {}
    refs = {"steady": driver.HostReference(), "overload": driver.HostReference()}
    next_id = WARMUP_REQUESTS
    gc.collect()
    ctx.meter.start()
    try:
        for label, schedule in (("steady", steady), ("overload", overload)):
            requests = _requests(schedule, pool, first_id=next_id, clock_base=clock_base)
            next_id += len(requests)
            with ctx.span("driver.measure"):
                phases[label] = driver.drive_open_loop(
                    server, requests, schedule.times, origin=time.perf_counter(),
                    clock_base=clock_base, max_wait=max_wait, ref=refs[label], log=ctx.log,
                )
            clock_base += phases[label].wall_s + 1.0
            ctx.meter.idle_s += phases[label].idle_s
            del requests
    finally:
        ctx.meter.stop()

    with ctx.span("driver.check"):
        verdicts = {}
        rejected = {serving.REJECTED_QUEUE_FULL: 0, serving.REJECTED_DEADLINE: 0}
        for label, schedule in (("steady", steady), ("overload", overload)):
            phase = phases[label]
            ctx.fail(len(phase.errors), "; ".join(phase.errors[:1]))
            ok = np.zeros(len(schedule), dtype=bool)
            backpressure = 0
            for k, response in enumerate(phase.responses):
                if response is not None and not response.ok:
                    code = response.error.code
                    rejected[code] = rejected.get(code, 0) + 1
                    # Overload queue-full rejections are expected
                    # backpressure, not failures.
                    backpressure += label == "overload" and code == serving.REJECTED_QUEUE_FULL
                    continue
                ok[k] = checker.correct(
                    response, int(schedule.rows[k]), bool(schedule.explain[k])
                )
            ctx.attempted += len(schedule)
            n_rejected = sum(1 for r in phase.responses if r is not None and not r.ok)
            ctx.phase_lines.append(
                f"{label}: sent={phase.sent} succeeded={int(ok.sum())} rejected={n_rejected} "
                f"failed={len(schedule) - int(ok.sum()) - n_rejected} "
                f"lag_p99_ms={_quantile_ms(phase.lag_s, 0.99):.3f} backlog_end={phase.backlog_end}"
            )
            wrong = len(schedule) - int(ok.sum()) - backpressure
            ctx.fail(wrong, f"{wrong} {label} requests failed, were rejected or answered wrongly")
            verdicts[label] = ok

    steady_phase, overload_phase = phases["steady"], phases["overload"]
    ok = verdicts["steady"]
    latency = steady_phase.latency_s
    gaps = [
        latency[k] - r.latency
        for k, r in enumerate(steady_phase.responses)
        if r is not None and r.ok
    ]
    ctx.facts.update(
        server=server,
        artifact_bytes=artifact.stat().st_size,
        ops=len(steady) + len(overload),
        requests=len(steady) + len(overload),
        lag_p99_ms=_quantile_ms(steady_phase.lag_s, 0.99),
        backlog_end=steady_phase.backlog_end,
        backlog_end_overload=overload_phase.backlog_end,
        clock_gap_ms_p50=_quantile_ms(gaps, 0.5),
        rejected_queue_full=rejected[serving.REJECTED_QUEUE_FULL],
        rejected_deadline=rejected[serving.REJECTED_DEADLINE],
        layout=server.engines[0].layout,
    )
    artifact.unlink()
    # Per second the server spent inside run(): rows per wall second
    # would only repeat the fixed offered rate.
    ok_rows = max(float(ok.sum()), 1.0)
    per_row_s = float(sum(steady_phase.call_walls_s)) / ok_rows
    ref = refs["steady"]
    return {
        "setup_s": median(setups),
        "cost_per_row": ref.in_reference_units(
            steady_phase.call_starts_s, steady_phase.call_walls_s
        ) / ok_rows,
        "host.ref_op_ms": ref.median_s() * 1e3,
        "rows_per_s": 1.0 / per_row_s,
        "batch_p50_ms": _quantile_ms(steady_phase.run_walls_s, 0.5),
        "batch_p99_ms": _quantile_ms(steady_phase.run_walls_s, 0.99),
        "latency_p50_ms": _quantile_ms(latency[ok], 0.5),
        "latency_p99_ms": _quantile_ms(latency[ok], 0.99),
        "slo_attainment": float(np.mean(ok & (latency <= SERVING_SLO_S))),
        "saturation_rps": float(verdicts["overload"].sum()) / overload_phase.wall_s,
    }


WORKLOADS = {"mixed-explain": mixed_explain, "sim-higgs": sim_higgs}


def run_pass(name: str, seed: int, seconds: float, workdir: Path,
             log: SpanLog | None = None) -> Context:
    """Run one pass of a workload; its end-to-end figures, bounded and
    unbounded, land in ``ctx.facts["e2e"]``."""
    ctx = Context(name=name, seed=seed, seconds=seconds, workdir=workdir, log=log)
    start = time.perf_counter()
    e2e = WORKLOADS[name](ctx)
    ctx.facts["outer_ms"] = (time.perf_counter() - start) * 1e3
    e2e["peak_rss_mb"] = driver.peak_rss_mb()
    ctx.facts["e2e"] = e2e
    return ctx
