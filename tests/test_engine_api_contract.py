"""API-contract tests: every engine behind the one unified surface.

Drives ``TahoeEngine``, ``FILEngine``, ``NativeEngine`` and
``MultiGPUTahoeEngine`` through the shared :class:`repro.core.Engine`
protocol — construction keywords, uniform ``predict``, result shape,
``update_forest`` return type, empty-batch error — and, on a multiclass
model, every hook of the shared batch driver (class-shaped outputs,
chunked explain).  Positional calls past ``(forest, spec)`` raise
``TypeError`` like any keyword-only signature.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import (
    ConversionStats,
    Engine,
    EngineResult,
    FILEngine,
    LayoutCache,
    MultiGPUResult,
    MultiGPUTahoeEngine,
    TahoeConfig,
    TahoeEngine,
)
from repro.core import NativeEngine
from repro.modelstore import import_model

FIXTURES = Path(__file__).parent / "fixtures"

ENGINE_FACTORIES = {
    "tahoe": lambda forest, spec, **kw: TahoeEngine(forest, spec, **kw),
    "fil": lambda forest, spec, **kw: FILEngine(forest, spec, **kw),
    "native": lambda forest, spec, **kw: NativeEngine(forest, spec, **kw),
    "multi": lambda forest, spec, **kw: MultiGPUTahoeEngine(
        forest, spec, n_gpus=2, **kw
    ),
}


@pytest.fixture(scope="module", params=sorted(ENGINE_FACTORIES))
def any_engine(request):
    forest = request.getfixturevalue("small_forest")
    p100 = request.getfixturevalue("p100")
    return request.param, ENGINE_FACTORIES[request.param](forest, p100)


class TestEngineProtocol:
    def test_conforms_to_protocol(self, any_engine):
        _, engine = any_engine
        assert isinstance(engine, Engine)

    def test_accepts_unified_keywords(self, small_forest, p100, any_engine):
        name, _ = any_engine
        engine = ENGINE_FACTORIES[name](
            small_forest, p100, config=TahoeConfig(), layout_cache=LayoutCache()
        )
        assert isinstance(engine, Engine)

    def test_empty_batch_raises(self, any_engine, small_forest):
        _, engine = any_engine
        empty = np.zeros((0, small_forest.n_attributes), np.float32)
        with pytest.raises(ValueError, match="empty inference batch"):
            engine.predict(empty)

    def test_predict_result_shape(self, any_engine, small_forest, test_X):
        _, engine = any_engine
        result = engine.predict(test_X, batch_size=40)
        assert isinstance(result, EngineResult)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )
        assert result.total_time > 0
        assert result.throughput > 0
        assert len(result.batches) == len(result.strategies_used) > 0
        assert result.report is None

    def test_report_flag(self, any_engine, test_X):
        name, engine = any_engine
        result = engine.predict(test_X, report=True)
        assert result.report is not None
        assert result.report.n_samples == test_X.shape[0]
        assert result.report.total_time == pytest.approx(result.total_time)
        expected = {
            "tahoe": "tahoe",
            "fil": "fil",
            "native": "native",
            "multi": "tahoe-multigpu",
        }[name]
        assert result.report.engine == expected

    def test_update_forest_returns_stats(self, any_engine, small_gbdt, p100, test_X):
        name, _ = any_engine
        # Fresh engine: update_forest mutates layout state.
        forest = small_gbdt
        engine = ENGINE_FACTORIES[name](forest, p100, config=TahoeConfig())
        stats = engine.update_forest(forest)
        assert isinstance(stats, ConversionStats)
        assert stats.total >= 0
        np.testing.assert_allclose(
            engine.predict(test_X).predictions, forest.predict(test_X), rtol=1e-4
        )


class TestMulticlassDriver:
    """A multiclass forest through every engine's batch driver."""

    @pytest.fixture(scope="class")
    def multiclass(self):
        forest = import_model(FIXTURES / "xgboost_multiclass_model.json")
        X = np.random.default_rng(3).normal(0.45, 0.3, size=(37, forest.n_attributes))
        X[::5, 2] = np.nan
        return forest, X.astype(np.float32)

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_predict_has_a_class_axis(self, name, multiclass, p100):
        forest, X = multiclass
        engine = ENGINE_FACTORIES[name](forest, p100)
        result = engine.predict(X, batch_size=8)
        assert result.predictions.shape == (X.shape[0], forest.n_classes)
        reference = TahoeEngine(forest, p100).predict(X).predictions
        np.testing.assert_array_equal(result.predictions, reference)

    @pytest.mark.parametrize("name", ["tahoe", "fil", "native"])
    def test_chunked_explain_equals_whole_batch(self, name, multiclass, p100):
        forest, X = multiclass
        engine = ENGINE_FACTORIES[name](forest, p100)
        whole = engine.explain(X)
        chunked = engine.explain(X, batch_size=8)
        K = forest.n_classes
        assert chunked.attributions.shape == (X.shape[0], forest.n_attributes, K)
        assert len(chunked.batches) == len(chunked.strategies_used) == 5
        np.testing.assert_array_equal(chunked.attributions, whole.attributions)
        np.testing.assert_array_equal(chunked.predictions, whole.predictions)
        np.testing.assert_array_equal(chunked.base_values, whole.base_values)


class TestKeywordOnlySurface:
    """The deprecation grace period is over: positionals are TypeErrors."""

    def test_tahoe_rejects_positional_config(self, small_forest, p100):
        with pytest.raises(TypeError):
            TahoeEngine(small_forest, p100, TahoeConfig())

    def test_multi_rejects_positional_n_gpus(self, small_forest, p100):
        with pytest.raises(TypeError):
            MultiGPUTahoeEngine(small_forest, p100, 3)

    def test_predict_rejects_positional_batch_size(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        with pytest.raises(TypeError):
            engine.predict(test_X, 32)


class TestMultiGPUUnification:
    def test_result_is_engine_result(self, small_forest, p100, test_X):
        result = MultiGPUTahoeEngine(small_forest, p100, n_gpus=2).predict(test_X)
        assert isinstance(result, MultiGPUResult)
        assert isinstance(result, EngineResult)
        assert result.n_gpus == 2
        assert result.throughput > 0
        # batches / strategies_used aggregate all shards.
        assert len(result.batches) == sum(len(r.batches) for r in result.per_gpu)
        assert result.strategies_used == [
            s for r in result.per_gpu for s in r.strategies_used
        ]

    def test_conversion_runs_once_and_is_shared(self, small_forest, p100):
        engine = MultiGPUTahoeEngine(small_forest, p100, n_gpus=4)
        assert not engine.engines[0].conversion_stats.cache_hit
        for replica in engine.engines[1:]:
            assert replica.conversion_stats.cache_hit
            # The layout object itself is shared, not re-derived.
            assert replica.layout is engine.engines[0].layout
        assert engine.layout_cache.hits == 3
        assert engine.layout_cache.misses == 1

    def test_update_forest_returns_stats_and_shares(self, small_forest, small_gbdt, p100):
        engine = MultiGPUTahoeEngine(small_forest, p100, n_gpus=3)
        stats = engine.update_forest(small_gbdt)
        assert isinstance(stats, ConversionStats)
        assert not stats.cache_hit  # the one real conversion
        for replica in engine.engines[1:]:
            assert replica.conversion_stats.cache_hit
            assert replica.layout is engine.engines[0].layout


class TestLayoutCache:
    def test_second_construction_hits(self, small_forest, p100):
        cache = LayoutCache()
        first = TahoeEngine(small_forest, p100, layout_cache=cache)
        second = TahoeEngine(small_forest, p100, layout_cache=cache)
        assert not first.conversion_stats.cache_hit
        assert second.conversion_stats.cache_hit
        assert second.layout is first.layout
        # The hit costs a content hash, not the conversion pipeline.
        assert second.conversion_stats.total < first.conversion_stats.total
        assert second.conversion_stats.t_format_conversion == 0.0

    def test_unchanged_update_forest_is_free(self, small_forest, p100):
        cache = LayoutCache()
        engine = TahoeEngine(small_forest, p100, layout_cache=cache)
        stats = engine.update_forest(small_forest)
        assert stats.cache_hit
        assert stats.t_similarity_detection == 0.0

    def test_different_config_misses(self, small_forest, p100):
        cache = LayoutCache()
        TahoeEngine(small_forest, p100, layout_cache=cache)
        TahoeEngine(
            small_forest,
            p100,
            config=TahoeConfig(node_rearrangement=False),
            layout_cache=cache,
        )
        assert cache.hits == 0
        assert cache.misses == 2
        assert len(cache) == 2

    def test_changed_forest_misses(self, small_forest, small_gbdt, p100):
        cache = LayoutCache()
        engine = TahoeEngine(small_forest, p100, layout_cache=cache)
        stats = engine.update_forest(small_gbdt)
        assert not stats.cache_hit

    def test_fil_engine_shares_too(self, small_forest, p100):
        cache = LayoutCache()
        FILEngine(small_forest, p100, layout_cache=cache)
        second = FILEngine(small_forest, p100, layout_cache=cache)
        assert second.conversion_stats.cache_hit

    def test_fil_and_tahoe_do_not_collide(self, small_forest, p100, test_X):
        cache = LayoutCache()
        tahoe = TahoeEngine(small_forest, p100, layout_cache=cache)
        fil = FILEngine(small_forest, p100, layout_cache=cache)
        assert not fil.conversion_stats.cache_hit
        assert fil.layout.format_name == "reorg"
        assert tahoe.layout.format_name == "adaptive"

    def test_lru_eviction(self, small_forest, small_gbdt, p100):
        cache = LayoutCache(capacity=1)
        TahoeEngine(small_forest, p100, layout_cache=cache)
        TahoeEngine(small_gbdt, p100, layout_cache=cache)
        assert len(cache) == 1
        # small_forest was evicted: rebuilding misses again.
        third = TahoeEngine(small_forest, p100, layout_cache=cache)
        assert not third.conversion_stats.cache_hit

    def test_conversion_record_carries_hit(self, small_forest, p100):
        cache = LayoutCache()
        TahoeEngine(small_forest, p100, layout_cache=cache)
        engine = TahoeEngine(small_forest, p100, layout_cache=cache)
        record = engine.recorder.conversions[-1]
        assert record.cache_hit
        assert record.to_dict()["cache_hit"] is True
        counters = engine.recorder.metrics.snapshot()["counters"]
        assert counters["conversion_cache_hits_total"] == 1
