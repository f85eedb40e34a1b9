"""Tahoe: the adaptive inference engine (paper section 6.2, Algorithm 1).

* :class:`~repro.core.base.Engine` — the protocol every engine
  conforms to: keyword-only construction after ``(forest, spec)``,
  uniform ``predict(X, *, batch_size=None, report=False)``, and
  ``update_forest`` returning :class:`ConversionStats`.
* :class:`~repro.core.engine.PipelineEngine` — the skeleton the next
  three engines share: construction, conversion (or layout adoption),
  ``update_forest``, one batch driver behind ``predict`` and
  ``explain``, and ``build_report``.  Each engine supplies only its
  layout recipe, stage-5 ship and per-batch executors.
* :class:`~repro.core.engine.TahoeEngine` — offline hardware detection,
  online adaptive-format conversion (with per-stage timing for the
  section 7.4 overhead analysis), per-batch model-guided strategy
  selection, inference-time edge-probability counting, and incremental-
  learning reconversion.
* :class:`~repro.core.fil.FILEngine` — the RAPIDS FIL baseline: reorg
  format + shared-data strategy, no rearrangement, fixed-width records.
* :class:`~repro.core.native.NativeEngine` — real vectorised execution
  of converted layouts on the host (wall-clock ``time_domain``), with an
  optional numba fast path.
* :class:`~repro.core.multi.MultiGPUTahoeEngine` — data-parallel pool of
  Tahoe replicas sharing one converted layout.
* :func:`engine_class` — which engine class serves a model of a given
  kind on a given backend.
* :class:`~repro.core.cache.LayoutCache` — converted-forest reuse, so
  rebuilding an engine (or a replica) from an unchanged forest skips
  the conversion pipeline.
* :mod:`repro.core.metrics` — throughput / speedup / CV helpers used by
  every benchmark.
"""

from repro.core.base import (
    TIME_DOMAIN_SIMULATED,
    TIME_DOMAIN_WALL,
    ConversionStats,
    Engine,
    EngineResult,
)
from repro.core.cache import LayoutCache
from repro.core.config import ObsConfig, TahoeConfig
from repro.core.engine import PipelineEngine, TahoeEngine
from repro.core.fil import FILEngine
from repro.core.metrics import geometric_mean, speedup, throughput
from repro.core.multi import MultiGPUResult, MultiGPUTahoeEngine
from repro.core.native import NativeEngine

__all__ = [
    "ConversionStats",
    "Engine",
    "EngineResult",
    "FILEngine",
    "LayoutCache",
    "NativeEngine",
    "TIME_DOMAIN_SIMULATED",
    "TIME_DOMAIN_WALL",
    "MultiGPUResult",
    "MultiGPUTahoeEngine",
    "ObsConfig",
    "PipelineEngine",
    "TahoeConfig",
    "TahoeEngine",
    "engine_class",
    "geometric_mean",
    "speedup",
    "throughput",
]


def engine_class(backend: str | None, engine_kind: str) -> type[PipelineEngine]:
    """The engine class serving a model of ``engine_kind`` on ``backend``.

    ``backend="native"`` executes either layout format on the host
    (:class:`NativeEngine`); any other backend runs the simulator engine
    matching the packed format — :class:`FILEngine` for ``"fil"``,
    :class:`TahoeEngine` otherwise.
    """
    if backend == "native":
        return NativeEngine
    return FILEngine if engine_kind == "fil" else TahoeEngine
