"""NativeEngine: bit-identity with the simulator and engine-contract
behaviour of the wall-clock backend."""

import numpy as np
import pytest

from repro.core import (
    TIME_DOMAIN_SIMULATED,
    TIME_DOMAIN_WALL,
    FILEngine,
    LayoutCache,
    TahoeEngine,
    ckernel,
)
from repro.core.native import (
    NativeEngine,
    _traverse_numpy,
    _traverse_scalar,
    flatten_native,
)
from repro.formats import build_reorg_layout
from repro.modelstore import load_packed, pack_layout


class TestBitIdentity:
    def test_matches_tahoe_on_random_forest(self, small_forest, p100, test_X):
        native = NativeEngine(small_forest, p100)
        tahoe = TahoeEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            tahoe.predict(test_X).predictions,
        )

    def test_matches_tahoe_on_gbdt(self, small_gbdt, p100, test_X):
        native = NativeEngine(small_gbdt, p100)
        tahoe = TahoeEngine(small_gbdt, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            tahoe.predict(test_X).predictions,
        )

    def test_matches_fil_on_reorg_layout(self, small_forest, p100, test_X):
        layout = build_reorg_layout(small_forest)
        native = NativeEngine.from_layout(layout, p100)
        fil = FILEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            fil.predict(test_X).predictions,
        )

    def test_nan_takes_default_path_identically(self, small_forest, p100, test_X):
        X = test_X.copy()
        X[::3, 0] = np.nan
        X[1::5, 2] = np.nan
        native = NativeEngine(small_forest, p100)
        tahoe = TahoeEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(X).predictions, tahoe.predict(X).predictions
        )

    def test_scalar_kernel_matches_numpy(self, small_forest, p100, test_X):
        flat = NativeEngine(small_forest, p100).flat
        n = test_X.shape[0]
        fast = _traverse_numpy(test_X, flat, np.empty(n))
        slow = _traverse_scalar(test_X, flat, np.zeros((n, 1)))
        assert np.array_equal(fast, slow[:, 0])

    def test_batch_size_does_not_change_predictions(
        self, small_forest, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        whole = engine.predict(test_X).predictions
        batched = engine.predict(test_X, batch_size=17).predictions
        assert np.array_equal(whole, batched)


class TestEngineContract:
    def test_empty_batch_raises(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        with pytest.raises(ValueError, match="empty inference batch"):
            engine.predict(np.empty((0, small_forest.n_attributes)))

    def test_result_is_wall_domain(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        result = engine.predict(test_X)
        assert NativeEngine.time_domain == TIME_DOMAIN_WALL
        assert result.time_domain == TIME_DOMAIN_WALL
        assert result.time_domain != TIME_DOMAIN_SIMULATED

    def test_throughput_is_wall_samples_per_second(
        self, small_forest, p100, test_X
    ):
        result = NativeEngine(small_forest, p100).predict(test_X)
        assert result.total_time > 0
        assert result.throughput == pytest.approx(
            test_X.shape[0] / result.total_time
        )

    def test_update_forest_swaps_predictions(
        self, small_forest, small_gbdt, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        before = engine.predict(test_X).predictions
        stats = engine.update_forest(small_gbdt)
        assert stats.total > 0 or stats.source == "cache"
        after = engine.predict(test_X).predictions
        assert not np.array_equal(before, after)
        assert np.array_equal(
            after, TahoeEngine(small_gbdt, p100).predict(test_X).predictions
        )

    def test_available_kernels_reflect_environment(self, small_forest, p100):
        kernel = NativeEngine(small_forest, p100).kernel
        assert kernel == ("c" if ckernel.available() else "numpy")

    def test_report_carries_native_identity(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        result = engine.predict(test_X, report=True)
        assert result.report is not None
        assert result.report.engine == "native"
        assert result.report.meta["time_domain"] == TIME_DOMAIN_WALL
        assert result.report.meta["kernel"] == engine.kernel
        assert result.report.decisions


class TestLayoutInterop:
    def test_packed_artifact_round_trip(self, small_forest, p100, test_X, tmp_path):
        direct = NativeEngine(small_forest, p100)
        path = tmp_path / "forest.tahoe"
        pack_layout(
            direct.layout,
            path,
            engine="tahoe",
            spec_name=p100.name,
            conversion_key=direct.config.conversion_key(),
            source_fingerprint=small_forest.fingerprint(),
        )
        packed = load_packed(path).make_engine(p100, backend="native")
        assert isinstance(packed, NativeEngine)
        assert packed.conversion_stats.source == "artifact"
        assert np.array_equal(
            packed.predict(test_X).predictions,
            direct.predict(test_X).predictions,
        )

    def test_shares_layout_cache_with_tahoe(self, small_forest, p100, test_X):
        cache = LayoutCache()
        TahoeEngine(small_forest, p100, layout_cache=cache)
        native = NativeEngine(small_forest, p100, layout_cache=cache)
        assert native.conversion_stats.source == "cache"
        assert cache.hits == 1
        # And the reverse direction: native's conversion seeds tahoe.
        cache2 = LayoutCache()
        NativeEngine(small_forest, p100, layout_cache=cache2)
        tahoe = TahoeEngine(small_forest, p100, layout_cache=cache2)
        assert tahoe.conversion_stats.source == "cache"
        assert np.array_equal(
            native.predict(test_X).predictions,
            tahoe.predict(test_X).predictions,
        )

    def test_flatten_is_cached_on_layout(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        flat = flatten_native(engine.layout)
        assert flat is engine.flat  # second call returns the cached object
        assert flat.n_trees == small_forest.n_trees
        # Leaves self-loop: both children point at the leaf itself.
        leaves = np.flatnonzero(flat.is_leaf)
        assert np.array_equal(flat.child_true[leaves], leaves)
        assert np.array_equal(flat.child_false[leaves], leaves)


class TestFlushCurve:
    def test_measured_curve_covers_candidates(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        curve = engine.measure_flush_curve([16, 64], repeats=1)
        assert set(curve) == {16, 64}
        assert all(v > 0 for v in curve.values())

    def test_probes_do_not_pollute_telemetry(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        before = len(engine.recorder.decisions)
        engine.measure_flush_curve([16, 64], repeats=1)
        assert len(engine.recorder.decisions) == before

    def test_empty_candidates_rejected(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        with pytest.raises(ValueError, match="candidate batch size"):
            engine.measure_flush_curve([])


class TestHardwareRanking:
    def test_decisions_record_both_targets(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X)
        decision = engine.recorder.decisions[-1]
        names = {c.strategy for c in decision.candidates}
        assert decision.chosen == "native_cpu"
        assert any(name.startswith("gpusim_") for name in names)

    def test_ragged_batch_sizes_reuse_bucketed_ranking(
        self, small_forest, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X[:65])
        engine.predict(test_X[:100])  # same power-of-two bucket (128)
        assert len(engine._ranked_cache) == 1
        # Native predicted time still tracks the exact batch size.
        d65, d100 = engine.recorder.decisions[-2:]
        assert d65.predicted_time < d100.predicted_time
