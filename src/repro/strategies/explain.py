"""Execution strategies for the SHAP explanation workload.

The explain kernel is a different beast from prediction: the hot data
is not the node arrays but the *path image* (packed edge records plus
slot/path tables from :class:`~repro.explain.paths.PathSet`), every
sample touches every path, and the per-sample compute is dominated by
the O(d²) EXTEND/UNWIND recurrences rather than a root→leaf walk.  The
same Tahoe question still applies, though: where does the path image
live?

* :class:`ExplainDirectStrategy` streams edge records from global
  memory.  Sample-per-thread warps process paths in lockstep, so record
  reads are warp-broadcast (one transaction per warp per record) — but
  every warp re-reads the full image, so global traffic scales with the
  batch.
* :class:`ExplainSharedPathsStrategy` stages the path image into shared
  memory once per block (the shared-forest move, applied to paths) and
  serves all record reads from SMEM.  Only applicable when the image
  fits ``spec.shared_mem_per_block``.

Both produce identical attributions — they run the same
:func:`~repro.explain.kernel.compute_shap` — and differ only in the
simulated traffic and time, which is what lets the §6 selector rank
them per batch like the prediction strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.explain.kernel import compute_shap
from repro.explain.paths import PathSet, path_set_for_layout
from repro.formats.layout import ForestLayout
from repro.gpusim.counters import TrafficCounters
from repro.gpusim.engine_sim import execution_time
from repro.gpusim.specs import GPUSpec
from repro.obs.trace import span
from repro.strategies.base import (
    StrategyNotApplicable,
    StrategyResult,
    add_coalesced_staging,
)

__all__ = [
    "ExplainStrategyResult",
    "ExplainDirectStrategy",
    "ExplainSharedPathsStrategy",
    "explain_work_steps",
]


@dataclass
class ExplainStrategyResult(StrategyResult):
    """A StrategyResult that also carries the attribution tensors.

    ``predictions`` holds the reconstructed raw margins (pre-link), so
    the result duck-types everywhere a prediction result is recorded.
    """

    attributions: np.ndarray | None = None  # (n, F, K) float64
    base_values: np.ndarray | None = None  # (K,) float64


def explain_work_steps(ps: PathSet) -> int:
    """Per-sample kernel steps: one per edge test + the recurrence work."""
    return ps.n_edges + 2 * ps.unique_depth_squares


def _charge_sample_reads(counters: TrafficCounters, ps: PathSet, n: int, spec: GPUSpec) -> None:
    """Per-edge attribute gathers: 4 useful bytes per 32-byte sector.

    Threads in a warp hold *consecutive samples*, so reading attribute
    ``f`` strides by the row width — uncoalesced, exactly the access
    shape the paper's figure 2a measures for sample reads.
    """
    accesses = n * ps.n_edges
    counters.sample_global.add(accesses * 4, accesses * 32, accesses, accesses)


def _charge_output_writes(counters: TrafficCounters, ps: PathSet, n: int, spec: GPUSpec) -> None:
    """Attribution matrix write-back: dense float64, fully coalesced."""
    n_bytes = n * ps.n_features * ps.n_classes * 8
    tx = (n_bytes + spec.transaction_bytes - 1) // spec.transaction_bytes
    counters.output_global.add(n_bytes, tx * spec.transaction_bytes, tx, tx * spec.warp_size)


class _PathImageStrategy:
    """The explain kernel under one placement of the path image.

    Subclasses name the placement, say whether the image is staged into
    shared memory (``image_in_smem``) and charge its record reads
    (:meth:`_charge_paths`); the kernel, the sample and output traffic
    and the timing are common.
    """

    name = ""
    image_in_smem = False

    def __init__(self, threads_per_block: int = 256) -> None:
        self._threads_per_block = threads_per_block

    def is_applicable(self, layout: ForestLayout, spec: GPUSpec) -> bool:
        return True

    def _charge_paths(self, counters, ps: PathSet, n: int, n_blocks: int, spec: GPUSpec):
        raise NotImplementedError

    def run(
        self,
        layout: ForestLayout,
        X: np.ndarray,
        spec: GPUSpec,
        sample_rows: np.ndarray | None = None,
        collect_level_stats: bool = False,
    ) -> ExplainStrategyResult:
        ps = path_set_for_layout(layout)
        smem = ps.image_bytes if self.image_in_smem else 0
        if smem > spec.shared_mem_per_block:
            raise StrategyNotApplicable(
                f"path image ({ps.image_bytes} B) exceeds shared memory "
                f"({spec.shared_mem_per_block} B) on {spec.name}"
            )
        if sample_rows is None:
            sample_rows = np.arange(np.asarray(X).shape[0], dtype=np.int64)
        n = int(sample_rows.shape[0])
        tpb = self._threads_per_block
        n_blocks = max(1, (n + tpb - 1) // tpb)
        with span(f"strategy.{self.name}", category="strategy", batch=n, blocks=n_blocks):
            phi, base, margins = compute_shap(ps, np.asarray(X)[sample_rows])
            counters = TrafficCounters()
            self._charge_paths(counters, ps, n, n_blocks, spec)
            _charge_sample_reads(counters, ps, n, spec)
            _charge_output_writes(counters, ps, n, spec)
            steps = explain_work_steps(ps)
            per_thread_steps = np.full(n, steps, dtype=np.int64)
            waves = -(-n_blocks // spec.concurrent_blocks(tpb, smem))
            breakdown = execution_time(
                counters,
                spec,
                n_threads=n,
                threads_per_block=tpb,
                n_blocks=n_blocks,
                per_thread_steps=per_thread_steps,
                chain_steps=float(steps) * waves,
                block_shared_bytes=smem,
                sample_first_touch_bytes=n * ps.n_features * 4,
                forest_footprint_bytes=ps.image_bytes,
            )
        return ExplainStrategyResult(
            strategy=self.name,
            predictions=margins,
            breakdown=breakdown,
            counters=counters,
            per_thread_steps=per_thread_steps,
            n_blocks=n_blocks,
            threads_per_block=tpb,
            batch_size=n,
            attributions=phi,
            base_values=base,
        )


class ExplainDirectStrategy(_PathImageStrategy):
    """Path image streamed from global memory, sample per thread."""

    name = "explain_direct"

    def _charge_paths(self, counters, ps, n, n_blocks, spec):
        # Warp-broadcast record reads: all 32 lanes want the same edge
        # record, so each warp pays one transaction per record.
        n_warps = -(-n // spec.warp_size)
        rec_tx = -(-PathSet.EDGE_BYTES // spec.transaction_bytes)
        tx = n_warps * ps.n_edges * rec_tx
        counters.forest_global.add(
            n * ps.n_edges * PathSet.EDGE_BYTES,
            tx * spec.transaction_bytes,
            tx,
            n * ps.n_edges,
        )


class ExplainSharedPathsStrategy(_PathImageStrategy):
    """Path image staged to shared memory once per block."""

    name = "explain_shared_paths"
    image_in_smem = True

    def is_applicable(self, layout: ForestLayout, spec: GPUSpec) -> bool:
        return path_set_for_layout(layout).image_bytes <= spec.shared_mem_per_block

    def _charge_paths(self, counters, ps, n, n_blocks, spec):
        # Stage the image once per block, then serve record reads from
        # SMEM (bank-conflict-free broadcast).
        add_coalesced_staging(counters, n_blocks * ps.image_bytes, spec, source="forest")
        accesses = n * ps.n_edges
        counters.shared_read.add(
            accesses * PathSet.EDGE_BYTES,
            accesses * PathSet.EDGE_BYTES,
            accesses,
            accesses,
        )
