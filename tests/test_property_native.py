"""Property-based bit-identity: NativeEngine vs the simulator.

The native backend's headline claim is *bit-identical* predictions, not
approximately-equal ones, so the property sweep randomizes forest
structure (ragged depths, duplicate thresholds, default-left flags),
aggregation semantics (mean vs sum with shrinkage and base score), and
batch contents (including NaN and values exactly on thresholds) and
asserts ``array_equal`` throughout.  Leaf values are dyadic rationals
(integer / 16) so every float32 sum is exact regardless of association —
any mismatch is a traversal bug, never float noise.  The engine runs
the compiled kernel when it loaded and the numpy fallback under
``pytest --no-ckernel``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TahoeEngine
from repro.core.native import NativeEngine, _traverse_numpy, _traverse_scalar
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree


@st.composite
def random_forests(draw):
    """A small random forest plus a batch of inference rows."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_features = draw(st.integers(1, 5))
    n_trees = draw(st.integers(1, 6))
    max_depth = draw(st.integers(1, 5))
    aggregation = draw(st.sampled_from(["mean", "sum"]))
    rng = np.random.default_rng(seed)

    def grow_tree():
        feature, threshold, left, right = [], [], [], []
        value, default_left, visits = [], [], []

        def grow(depth):
            node = len(feature)
            feature.append(LEAF)
            # Thresholds on a coarse grid force exact-equality ties.
            threshold.append(0.0)
            left.append(LEAF)
            right.append(LEAF)
            value.append(float(rng.integers(-32, 32)) / 16.0)
            default_left.append(bool(rng.random() < 0.5))
            visits.append(1)
            if depth < max_depth and rng.random() < 0.7:
                feature[node] = int(rng.integers(0, n_features))
                threshold[node] = float(rng.integers(-4, 4)) / 2.0
                left[node] = grow(depth + 1)
                right[node] = grow(depth + 1)
            return node

        grow(0)
        return DecisionTree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float32),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.float32),
            default_left=np.array(default_left),
            visit_count=np.array(visits, dtype=np.int64),
        )

    forest = Forest(
        trees=[grow_tree() for _ in range(n_trees)],
        n_attributes=n_features,
        task="regression",
        aggregation=aggregation,
        base_score=float(rng.integers(-8, 8)) / 4.0 if aggregation == "sum" else 0.0,
        learning_rate=0.5 if aggregation == "sum" else 1.0,
    )

    n_rows = draw(st.integers(1, 40))
    with_nan = draw(st.booleans())
    # Sample values from the same grid as the thresholds so equality
    # ties (strictly-less routing) are exercised constantly.
    X = (rng.integers(-6, 6, size=(n_rows, n_features)) / 2.0).astype(np.float32)
    if with_nan:
        mask = rng.random(X.shape) < 0.2
        X[mask] = np.nan
    return forest, X


@given(random_forests())
@settings(max_examples=50, deadline=None)
def test_native_is_bit_identical_to_tahoe(p100, case):
    forest, X = case
    native = NativeEngine(forest, p100)
    tahoe = TahoeEngine(forest, p100)
    assert np.array_equal(
        native.predict(X).predictions,
        tahoe.predict(X).predictions,
        equal_nan=True,
    )


@given(random_forests())
@settings(max_examples=20, deadline=None)
def test_scalar_kernel_agrees_with_numpy(p100, case):
    forest, X = case
    flat = NativeEngine(forest, p100).flat
    fast = _traverse_numpy(X, flat, np.empty(X.shape[0]))
    slow = _traverse_scalar(X, flat, np.zeros((X.shape[0], 1)))
    assert np.array_equal(fast, slow[:, 0], equal_nan=True)


@given(st.integers(1, 8))
@settings(max_examples=5, deadline=None)
def test_empty_batch_always_raises(p100, n_features):
    tree = DecisionTree(
        feature=np.array([LEAF], dtype=np.int32),
        threshold=np.zeros(1, dtype=np.float32),
        left=np.array([LEAF], dtype=np.int32),
        right=np.array([LEAF], dtype=np.int32),
        value=np.ones(1, dtype=np.float32),
        default_left=np.zeros(1, dtype=bool),
        visit_count=np.ones(1, dtype=np.int64),
    )
    forest = Forest(trees=[tree], n_attributes=n_features, task="regression")
    engine = NativeEngine(forest, p100)
    with pytest.raises(ValueError, match="empty inference batch"):
        engine.predict(np.empty((0, n_features), dtype=np.float32))
