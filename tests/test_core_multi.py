"""Tests for the multi-GPU engine."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import MultiGPUTahoeEngine, TahoeEngine
from repro.modelstore import import_model

FIXTURES = Path(__file__).parent / "fixtures"


class TestMultiGPUEngine:
    def test_predictions_match_reference(self, small_forest, p100, test_X):
        engine = MultiGPUTahoeEngine(small_forest, p100, n_gpus=4)
        result = engine.predict(test_X)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )

    def test_single_gpu_equals_plain_engine(self, small_forest, p100, test_X):
        multi = MultiGPUTahoeEngine(small_forest, p100, n_gpus=1).predict(test_X)
        solo = TahoeEngine(small_forest, p100).predict(test_X)
        np.testing.assert_allclose(multi.predictions, solo.predictions, rtol=1e-6)
        assert multi.total_time == pytest.approx(solo.total_time, rel=1e-6)

    def test_completion_is_slowest_shard(self, small_forest, p100, test_X):
        result = MultiGPUTahoeEngine(small_forest, p100, n_gpus=3).predict(test_X)
        assert result.total_time == pytest.approx(
            max(r.total_time for r in result.per_gpu)
        )

    def test_shards_cover_everything(self, small_forest, p100, test_X):
        result = MultiGPUTahoeEngine(small_forest, p100, n_gpus=5).predict(test_X)
        assert sum(r.predictions.shape[0] for r in result.per_gpu) == test_X.shape[0]

    def test_more_gpus_than_samples(self, small_forest, p100, test_X):
        tiny = test_X[:3]
        result = MultiGPUTahoeEngine(small_forest, p100, n_gpus=8).predict(tiny)
        assert result.n_gpus <= 3
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(tiny), rtol=1e-5
        )

    def test_rejects_bad_inputs(self, small_forest, p100):
        with pytest.raises(ValueError):
            MultiGPUTahoeEngine(small_forest, p100, n_gpus=0)
        engine = MultiGPUTahoeEngine(small_forest, p100, n_gpus=2)
        with pytest.raises(ValueError):
            engine.predict(np.zeros((0, small_forest.n_attributes), np.float32))

    def test_multiclass_predictions_keep_the_class_axis(self, p100):
        forest = import_model(FIXTURES / "xgboost_multiclass_model.json")
        X = np.random.default_rng(1).normal(0.45, 0.3, size=(41, forest.n_attributes))
        X = X.astype(np.float32)
        multi = MultiGPUTahoeEngine(forest, p100, n_gpus=2).predict(X, batch_size=16)
        solo = TahoeEngine(forest, p100).predict(X, batch_size=16)
        assert multi.predictions.shape == (X.shape[0], forest.n_classes)
        np.testing.assert_array_equal(multi.predictions, solo.predictions)

    def test_update_forest_propagates(self, small_forest, small_gbdt, p100, test_X):
        engine = MultiGPUTahoeEngine(small_forest, p100, n_gpus=2)
        engine.update_forest(small_gbdt)
        result = engine.predict(test_X)
        np.testing.assert_allclose(
            result.predictions, small_gbdt.predict(test_X), rtol=1e-4, atol=1e-6
        )

    def test_strong_scaling_helps_when_saturated(self, p100):
        """On a shard-divisible workload big enough to saturate one GPU,
        four GPUs must finish faster."""
        from repro.trees import train_forest_for_spec

        w = train_forest_for_spec("Higgs", scale=0.01, tree_scale=0.05, seed=3)
        spec = p100.scaled(compute=1 / 32)
        X = w.split.test.X
        t1 = MultiGPUTahoeEngine(w.forest, spec, n_gpus=1).predict(X).total_time
        t4 = MultiGPUTahoeEngine(w.forest, spec, n_gpus=4).predict(X).total_time
        assert t4 < t1
