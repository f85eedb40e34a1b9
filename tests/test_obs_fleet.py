"""Fleet report merging: exact per-target calibration folds (no double
counting) over live trackers, and record re-indexing."""

from __future__ import annotations

import pytest

from repro.obs.drift import CalibrationTracker
from repro.obs.fleet import merge_calibration_trackers, merge_run_reports
from repro.obs.report import BatchRecord, RunReport, SelectorDecision


class _Candidate:
    def __init__(self, strategy, predicted):
        self.strategy = strategy
        self.predicted_time = predicted


class _Decision:
    """Minimal stand-in for a closed SelectorDecision; ``rival`` adds a
    runner-up candidate, so the decision has a selection margin."""

    def __init__(self, chosen, predicted, simulated, rival=None):
        self.chosen = chosen
        self.predicted_time = predicted
        self.simulated_time = simulated
        self.candidates = [] if rival is None else [_Candidate("rival", rival)]


def _tracker(decisions) -> CalibrationTracker:
    tracker = CalibrationTracker(warn=False)
    for decision in decisions:
        tracker.record(_Decision(*decision))
    return tracker


class TestTrackerMerge:
    def test_merge_equals_single_tracker_over_union(self):
        a = _tracker([("P100", 1.0, 1.1), ("P100", 2.0, 2.0)])
        b = _tracker([("P100", 1.0, 1.5), ("V100", 3.0, 3.1)])
        union = _tracker(
            [
                ("P100", 1.0, 1.1),
                ("P100", 2.0, 2.0),
                ("P100", 1.0, 1.5),
                ("V100", 3.0, 3.1),
            ]
        )
        merged = merge_calibration_trackers([a, b])
        assert merged.summary() == union.summary()
        # inputs are not mutated by the fold
        assert a.n_decisions == 2 and b.n_decisions == 2

    def test_none_trackers_are_skipped(self):
        merged = merge_calibration_trackers([None, _tracker([("P100", 1.0, 1.0)])])
        assert merged.n_decisions == 1


class TestSummaryMerge:
    """The merged calibration summary of several shards' trackers."""

    def test_shared_target_not_double_counted(self):
        # the same hardware target appears on both shards: the merged
        # section must sum its n once per decision, not once per shard
        merged = merge_calibration_trackers(
            [
                _tracker([("P100", 1.0, 1.1), ("P100", 2.0, 2.2)]),
                _tracker([("P100", 4.0, 4.4)]),
            ]
        ).summary()
        assert merged["n_decisions"] == 3
        assert set(merged["per_strategy"]) == {"P100"}
        assert merged["per_strategy"]["P100"]["n"] == 3

    def test_means_are_n_weighted(self):
        # shard A: 2 decisions at ratio 1.0; shard B: 1 decision at 0.5
        merged = merge_calibration_trackers(
            [
                _tracker([("P100", 1.0, 1.0), ("P100", 2.0, 2.0)]),
                _tracker([("P100", 1.0, 2.0)]),
            ]
        ).summary()
        row = merged["per_strategy"]["P100"]
        assert row["mean_ratio"] == pytest.approx((1.0 * 2 + 0.5 * 1) / 3)

    def test_fraction_recomputed_over_union_not_summed(self):
        # shard A's one decision is at risk (residual 1.0 > margin 0.1),
        # shard B's is not (residual 0 < margin 1.0)
        a = _tracker([("P100", 1.0, 2.0, 1.1)])
        b = _tracker([("V100", 1.0, 1.0, 2.0)])
        assert a.at_risk_fraction == 1.0 and b.at_risk_fraction == 0.0
        merged = merge_calibration_trackers([a, b]).summary()
        # naive concatenation would report 1.0 (a's fraction) or 1.0+0.0
        assert merged["ranking_at_risk_fraction"] == pytest.approx(0.5)

    def test_drift_grade_needs_min_decisions(self):
        at_risk = ("P100", 1.0, 2.0, 1.1)
        assert merge_calibration_trackers([_tracker([at_risk])]).summary()["drifted"] is False
        shards = [_tracker([at_risk] * 10), _tracker([at_risk] * 10)]
        assert merge_calibration_trackers(shards).summary()["drifted"] is True

    def test_empty_inputs(self):
        merged = merge_calibration_trackers([None, CalibrationTracker(warn=False)]).summary()
        assert merged["n_decisions"] == 0
        assert merged["drifted"] is False


class TestReportMerge:
    def _report(self, engine, n_batches, n_samples, total_time):
        report = RunReport(
            engine=engine, gpu="P100", n_samples=n_samples, total_time=total_time
        )
        for i in range(n_batches):
            report.batches.append(
                BatchRecord(index=i, strategy="s", batch_size=4, simulated_time=1e-3)
            )
            report.decisions.append(
                SelectorDecision(batch_index=i, batch_size=4, chosen="s")
            )
        report.metrics = {"counters": {"batches_total": n_batches}}
        report.calibration = _tracker([("P100", 1.0, 1.0)] * n_batches).summary()
        return report

    def test_indices_rebased_and_aggregates_summed(self):
        merged = merge_run_reports(
            [self._report("a", 3, 30, 2.0), self._report("b", 2, 20, 5.0)],
            mode="replicate",
        )
        assert merged.engine == "tahoe-fleet"
        assert merged.n_samples == 50
        assert merged.total_time == 5.0  # slowest shard, not the sum
        indices = [b.index for b in merged.batches]
        assert sorted(indices) == list(range(5))
        decision_targets = {d.batch_index for d in merged.decisions}
        assert decision_targets == set(indices)
        # summaries cannot be merged exactly: the caller fills these in
        # from the live registries and trackers
        assert merged.metrics == {} and merged.calibration == {}
        assert merged.meta["mode"] == "replicate"
        assert [s["engine"] for s in merged.meta["shards"]] == ["a", "b"]

    def test_round_trips_through_to_dict(self):
        merged = merge_run_reports([self._report("a", 2, 10, 1.0)])
        clone = RunReport.from_dict(merged.to_dict())
        assert clone.to_dict() == merged.to_dict()
        assert len(clone.batches) == 2

    def test_requires_at_least_one_report(self):
        with pytest.raises(ValueError):
            merge_run_reports([])
