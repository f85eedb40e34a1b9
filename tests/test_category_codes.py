"""Category codes no bitset can hold, on every numpy categorical path.

A float32 row can carry codes far outside any bitset: huge finite
values, infinities, NaN, and 2**63 (one past the int64 range).  The
numpy paths range-check a code in float64 before casting it to int64,
as the C kernel and the scalar reference do, so none of them warns and
all of them route such codes as non-members.  Every warning is an error
here.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import TahoeEngine
from repro.core.native import NativeEngine, _traverse_numpy, _traverse_scalar, flatten_native
from repro.explain.kernel import compute_shap
from repro.explain.paths import path_set_for_layout
from repro.formats import build_reorg_layout
from repro.gpusim.specs import GPU_SPECS
from repro.modelstore import load_model
from repro.strategies.base import finalize_predictions

pytestmark = pytest.mark.filterwarnings("error")

SPEC = GPU_SPECS["P100"]
FIXTURE = Path(__file__).parent / "fixtures" / "lightgbm_categorical_model.txt"
ODD_CODES = [1e30, -1e30, np.inf, -np.inf, np.nan, 2.0**63]


@pytest.fixture(scope="module")
def case():
    forest = load_model(FIXTURE)
    categorical = sorted(
        {
            int(f)
            for tree in forest.trees
            if tree.cat_offset is not None
            for f in tree.feature[tree.cat_offset >= 0]
        }
    )
    assert categorical
    rng = np.random.default_rng(0)
    rows = rng.normal(0.45, 0.2, size=(4, forest.n_attributes)).astype(np.float32)
    rows[:, categorical] = np.arange(4, dtype=np.float32)[:, None]  # in-set codes
    X = np.repeat(rows, len(ODD_CODES) + 1, axis=0)
    for k, code in enumerate(ODD_CODES):
        X[k + 1 :: len(ODD_CODES) + 1, categorical] = code
    return forest, X


def _scalar_sums(flat, X):
    return _traverse_scalar(X, flat, np.zeros((X.shape[0], flat.n_groups)))[:, 0]


def test_forest_predict_matches_scalar(case):
    forest, X = case
    # The reorg layout keeps the trees in order and unswapped, so its
    # scalar sums accumulate exactly as Forest.predict does.
    flat = flatten_native(build_reorg_layout(forest))
    assert np.array_equal(forest.predict(X), finalize_predictions(forest, _scalar_sums(flat, X)))


def test_numpy_native_path_matches_scalar(case, no_ckernel):
    forest, X = case
    engine = NativeEngine(forest, SPEC)
    assert engine.kernel == "numpy"
    expected = _scalar_sums(engine.flat, X)
    assert np.array_equal(_traverse_numpy(X, engine.flat, np.empty(X.shape[0])), expected)
    assert np.array_equal(
        engine.predict(X).predictions, finalize_predictions(forest, expected)
    )


def test_numpy_shap_matches_scalar(case, no_ckernel):
    forest, X = case
    engine = NativeEngine(forest, SPEC)
    _, _, margins = compute_shap(path_set_for_layout(engine.layout), X)
    raw = forest.base_score + forest.learning_rate * _scalar_sums(engine.flat, X)
    np.testing.assert_allclose(margins[:, 0], raw, rtol=1e-9, atol=1e-9)


def test_tahoe_engine_matches_scalar(case):
    forest, X = case
    native = NativeEngine(forest, SPEC)
    expected = finalize_predictions(forest, _scalar_sums(native.flat, X))
    assert np.array_equal(TahoeEngine(forest, SPEC).predict(X).predictions, expected)
