"""The FIL baseline engine (paper sections 2–3).

RAPIDS FIL as the paper describes it: forests stored in the reorg format
(training tree order, trained child order, fixed 4-byte attribute index)
and evaluated with the shared-data algorithm — samples staged in shared
memory, trees dealt round-robin over the block's threads, one block-wise
reduction per sample.  No structure awareness anywhere: this is the
baseline every Tahoe speedup in section 7 is measured against.

The engine is a :class:`~repro.core.engine.PipelineEngine`, so it
shares the :class:`~repro.core.base.Engine` surface and the batch driver
with the Tahoe engine; callers and the serving layer can swap it in
anywhere a Tahoe engine fits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import ConversionStats
from repro.core.config import TahoeConfig
from repro.core.engine import PipelineEngine
from repro.formats.layout import ForestLayout
from repro.formats.reorg import build_reorg_layout
from repro.gpusim.specs import GPUSpec
from repro.strategies import ExplainDirectStrategy, SharedDataStrategy, StrategyResult
from repro.trees.forest import Forest

__all__ = ["FILEngine", "fil_conversion_key"]

#: FIL's conversion has no tunables; this constant keys its cache slot.
_FIL_CONVERSION_KEY = ("reorg",)


def fil_conversion_key(config: TahoeConfig | None) -> tuple:
    """Cache key of FIL's reorg conversion.

    Historically the constant ``("reorg",)``; a packed node encoding is
    the one knob that changes the reorg layout's bytes, so it extends
    the key — legacy keys (and artifacts embedding them) are untouched.
    """
    if config is not None and config.node_width is not None:
        return _FIL_CONVERSION_KEY + (
            "node_encoding",
            str(config.node_width),
            config.threshold_mode,
        )
    return _FIL_CONVERSION_KEY


def fil_block_size(n_trees: int, spec: GPUSpec, cap: int = 256) -> int:
    """FIL's block size: enough threads to hold every tree in one
    round-robin round (maximum per-block parallelism, no balance
    awareness), warp-rounded and capped."""
    warps = max(1, (min(n_trees, cap) + spec.warp_size - 1) // spec.warp_size)
    return min(cap, warps * spec.warp_size)


class FILEngine(PipelineEngine):
    """Reorg format + shared-data strategy, unconditionally.

    Constructor arguments are :class:`~repro.core.engine.PipelineEngine`'s.
    ``config`` is accepted for engine-surface uniformity: FIL has no
    structure-aware knobs, so only ``config.obs`` and the packed node
    encoding are honoured.  ``hardware`` is kept when given, but FIL
    needs no microbenchmarks and measures none.
    """

    engine_name = "fil"

    def _default_hardware(self, spec: GPUSpec) -> None:
        return None

    def conversion_key(self) -> tuple:
        return fil_conversion_key(self.config)

    def _build_layout(self, forest: Forest) -> tuple[ForestLayout, ConversionStats]:
        stats = ConversionStats()
        t0 = time.perf_counter()
        encoding = None
        if self.config.node_width is not None:
            from repro.formats.encoding import make_encoding

            encoding = make_encoding(
                forest, self.config.node_width, self.config.threshold_mode
            )
        layout = build_reorg_layout(forest, node_encoding=encoding)
        stats.t_format_conversion = time.perf_counter() - t0
        return layout, stats

    def _install(self) -> None:
        # FIL is industry-quality: it sizes its sample stages for device
        # occupancy just like any tuned kernel.  Its structural handicaps
        # are the ones the paper documents -- reorg layout, training-order
        # round-robin assignment, one-round-wide blocks, and the
        # unconditional block-wise reduction.
        self._strategy = SharedDataStrategy(
            threads_per_block=fil_block_size(self.forest.n_trees, self.spec),
        )

    def _run_fixed(self, strategy, X, start, stop, index, **options) -> StrategyResult:
        rows = np.arange(start, stop, dtype=np.int64)
        result = strategy.run(self.layout, X, self.spec, sample_rows=rows, **options)
        self.recorder.record_batch(index, result)
        return result

    def _predict_batch(
        self, X: np.ndarray, start: int, stop: int, index: int, collect_level_stats: bool
    ) -> StrategyResult:
        return self._run_fixed(
            self._strategy, X, start, stop, index, collect_level_stats=collect_level_stats
        )

    def _explain_batch(
        self, X: np.ndarray, start: int, stop: int, index: int
    ) -> StrategyResult:
        # No model-guided selection for explain either: every batch runs
        # the direct path kernel, mirroring the fixed shared-data choice.
        # Attributions match the Tahoe engine's to float64 rounding (the
        # adaptive layout's tree rearrangement changes the accumulation
        # order); only the simulated traffic differs.
        return self._run_fixed(ExplainDirectStrategy(), X, start, stop, index)
