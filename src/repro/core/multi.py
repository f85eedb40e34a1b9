"""Multi-GPU inference (paper section 7.5).

The paper evaluates Tahoe on an NVIDIA DGX-2 cluster with up to 128 GPUs
by partitioning the inference set evenly (strong scaling) or duplicating
it (weak scaling), with effectively no inter-GPU communication.
:class:`MultiGPUTahoeEngine` packages that data-parallel deployment: one
:class:`~repro.core.engine.TahoeEngine` per (simulated) GPU, even sample
sharding, completion time = the slowest shard.

The forest is converted **once**: replicas share one
:class:`~repro.core.cache.LayoutCache`, so the first engine runs the
conversion pipeline and every other replica adopts the finished layout
(a cache hit with near-zero :class:`ConversionStats`) — exactly the
paper's deployment, which replicates the already-converted forest to
every device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.core.engine import TahoeEngine
from repro.gpusim.specs import GPUSpec
from repro.obs.recorder import RunRecorder
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.trees.forest import Forest

__all__ = ["MultiGPUResult", "MultiGPUTahoeEngine"]


@dataclass
class MultiGPUResult(EngineResult):
    """Outcome of a multi-GPU predict call.

    Shares :class:`~repro.core.base.EngineResult`'s field shape (so
    ``throughput`` and friends are defined once) and adds the per-shard
    breakdown.

    Attributes:
        predictions: per-sample predictions, original order.
        total_time: completion time — the slowest GPU's simulated time
            (shards run concurrently; there is no communication).
        batches: every shard's per-batch strategy results, GPU order.
        strategies_used: strategy name per batch, matching ``batches``.
        per_gpu: each shard's engine result, in GPU order.
    """

    per_gpu: list[EngineResult] = field(default_factory=list)

    @property
    def n_gpus(self) -> int:
        return len(self.per_gpu)


class MultiGPUTahoeEngine(EngineBase):
    """Data-parallel Tahoe across ``n_gpus`` identical GPUs.

    Every GPU holds the full converted forest (the paper replicates the
    model; only samples are partitioned).  The hardware microbenchmarks
    and the forest conversion run once and are shared through the layout
    cache.

    Everything after ``(forest, spec)`` is keyword-only.
    """

    engine_name = "tahoe-multigpu"

    def __init__(
        self,
        forest: Forest,
        spec: GPUSpec,
        *,
        n_gpus: int | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
    ) -> None:
        n_gpus = 1 if n_gpus is None else n_gpus
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        self.config = config if config is not None else TahoeConfig()
        self.recorder = (
            recorder if recorder is not None else RunRecorder(tracing=self.config.obs.tracing)
        )
        self.n_gpus = n_gpus
        self.spec = spec
        hardware = hardware or measure_hardware_parameters(spec)
        self.layout_cache = layout_cache if layout_cache is not None else LayoutCache()
        # One engine per GPU.  The shared cache makes the conversion run
        # once: replica 0 converts, replicas 1..n adopt the layout.
        self.engines = [
            TahoeEngine(
                forest,
                spec,
                config=self.config,
                hardware=hardware,
                layout_cache=self.layout_cache,
            )
            for _ in range(n_gpus)
        ]
        self.conversion_stats = self.engines[0].conversion_stats
        self.recorder.record_conversion(self.conversion_stats)

    def predict(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        report: bool = False,
    ) -> MultiGPUResult:
        """Partition ``X`` evenly and run every shard.

        Shards are contiguous sample ranges; GPU ``g`` takes rows
        ``[g * ceil(n / n_gpus), ...)``.  Completion time is the slowest
        shard's simulated time.
        """
        X = check_batch(X, self.engines[0].forest.n_attributes)
        n = X.shape[0]
        shard = -(-n // self.n_gpus)
        predictions = prediction_buffer(n, self.engines[0].forest.n_classes)
        per_gpu: list[EngineResult] = []
        for g, engine in enumerate(self.engines):
            lo, hi = g * shard, min((g + 1) * shard, n)
            if lo >= hi:
                break
            result = engine.predict(X[lo:hi], batch_size=batch_size)
            predictions[lo:hi] = result.predictions
            per_gpu.append(result)
        slowest = max(result.total_time for result in per_gpu)
        batches = [batch for result in per_gpu for batch in result.batches]
        for index, batch in enumerate(batches):
            self.recorder.record_batch(index, batch)
        return MultiGPUResult(
            predictions=predictions,
            total_time=slowest,
            batches=batches,
            strategies_used=[s for result in per_gpu for s in result.strategies_used],
            per_gpu=per_gpu,
            report=self.build_report(
                n_samples=n,
                batch_size=batch_size,
                total_time=slowest,
                n_gpus=len(per_gpu),
            )
            if report
            else None,
        )

    def update_forest(self, forest: Forest) -> ConversionStats:
        """Incremental learning: reconvert once, redistribute the layout.

        Returns the stats of the single real conversion (replica 0);
        the other replicas adopt it through the shared cache.
        """
        stats = self.engines[0].update_forest(forest)
        for engine in self.engines[1:]:
            engine.update_forest(forest)
        self.conversion_stats = stats
        self.recorder.record_conversion(stats)
        return stats
