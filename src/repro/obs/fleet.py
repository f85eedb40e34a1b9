"""Fleet-level observability: merging per-shard telemetry exactly.

A fleet run produces one :class:`~repro.obs.report.RunReport` per shard.
Folding them into one fleet report has a trap the naive approach falls
into: per-shard ``calibration`` sections each carry residual statistics
*per hardware target* (or per strategy), and concatenating the sections
— or summing their headline fractions — double-counts every target that
appears on more than one shard and mis-weights the drift grade.  The
merge has to happen **per target key**, over the live trackers, where
the streaming residual histograms merge losslessly.

:func:`merge_calibration_trackers` does exactly that for
:class:`~repro.obs.drift.CalibrationTracker` objects.
:func:`merge_run_reports` builds the combined fleet report's records:
batch and decision records concatenated with shard-disambiguated
indices, plus per-shard metadata.  Merged metrics come from folding the
live :class:`~repro.obs.metrics.MetricsRegistry` objects, never from
serialised summaries, whose quantiles cannot be combined.
"""

from __future__ import annotations

from repro.obs.drift import CalibrationTracker
from repro.obs.report import RunReport

__all__ = ["merge_calibration_trackers", "merge_run_reports"]


def merge_calibration_trackers(trackers) -> CalibrationTracker:
    """Fold live trackers into one, per target key (lossless).

    ``None`` entries are skipped; the first tracker's risk threshold
    carries over to the merged one.
    """
    trackers = [t for t in trackers if t is not None]
    merged = CalibrationTracker(warn=False)
    if trackers:
        merged.ranking_risk_threshold = trackers[0].ranking_risk_threshold
    for tracker in trackers:
        merged.merge(tracker)
    return merged


def merge_run_reports(reports: list[RunReport], **meta) -> RunReport:
    """Fold per-shard reports into one fleet report.

    Batch and decision records are concatenated with globally re-indexed
    batch indices (per-shard indices collide); conversions concatenate;
    ``n_samples`` sums and ``total_time`` takes the slowest shard (the
    fleet finishes when its last shard does).  Per-shard metadata
    survives under ``meta["shards"]``.  The ``metrics`` and
    ``calibration`` sections are left empty: serialised summaries cannot
    be merged exactly, so the caller fills them from the live registries
    (:meth:`~repro.obs.metrics.MetricsRegistry.merge`) and trackers
    (:func:`merge_calibration_trackers`).
    """
    reports = [r for r in reports if r is not None]
    if not reports:
        raise ValueError("merge_run_reports needs at least one report")
    merged = RunReport(
        engine=meta.pop("engine", "tahoe-fleet"),
        gpu=reports[0].gpu,
        dataset=reports[0].dataset,
        n_samples=sum(r.n_samples for r in reports),
        total_time=max(r.total_time for r in reports),
    )
    offset = 0
    for shard_index, report in enumerate(reports):
        for conv in report.conversions:
            merged.conversions.append(conv)
        index_map: dict[int, int] = {}
        for batch in report.batches:
            index_map[batch.index] = offset + len(index_map)
            clone = type(batch).from_dict(batch.to_dict())
            clone.index = index_map[batch.index]
            merged.batches.append(clone)
        for decision in report.decisions:
            clone = type(decision).from_dict(decision.to_dict())
            clone.batch_index = index_map.get(
                decision.batch_index, offset + decision.batch_index
            )
            merged.decisions.append(clone)
        offset += max(len(report.batches), len(report.decisions))
    merged.meta = dict(meta)
    merged.meta["shards"] = [
        {"engine": r.engine, "gpu": r.gpu, "meta": r.meta} for r in reports
    ]
    return merged
