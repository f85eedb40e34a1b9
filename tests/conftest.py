"""Shared fixtures.

Training is the slow part of most tests, so trained workloads are
session-scoped and deliberately tiny; tests that need specific structure
build their own trees by hand instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset, train_test_split
from repro.gpusim.specs import GPU_SPECS
from repro.trees import GBDTTrainer, RandomForestTrainer
from repro.trees.tree import LEAF, DecisionTree


def pytest_addoption(parser):
    parser.addoption(
        "--no-ckernel",
        action="store_true",
        help="run as if no C compiler were installed (numpy kernels only)",
    )


def _disable_ckernel(setattr):
    """Make the kernel loader behave as if no C compiler were installed;
    ``setattr`` is the builtin (whole session) or ``monkeypatch.setattr``."""
    from repro.core import ckernel

    setattr(ckernel, "_compiler", lambda: None)
    setattr(ckernel, "_lib", ckernel._UNSET)


def pytest_configure(config):
    if config.getoption("--no-ckernel"):
        _disable_ckernel(setattr)


@pytest.fixture
def no_ckernel(monkeypatch):
    """The numpy fallback for one test: the ``--no-ckernel`` patch, undone
    afterwards."""
    from repro.core import ckernel

    _disable_ckernel(monkeypatch.setattr)
    monkeypatch.setattr(ckernel, "status", None)
    assert ckernel.library() is None
    assert "no C compiler" in ckernel.status


@pytest.fixture(scope="session")
def p100():
    return GPU_SPECS["P100"]


@pytest.fixture(scope="session")
def small_split():
    """A small classification dataset split (letter-like)."""
    data = load_dataset("letter", scale=0.08, seed=11)
    return train_test_split(data, seed=11)


@pytest.fixture(scope="session")
def small_forest(small_split):
    """A small random forest with depth variance."""
    return RandomForestTrainer(
        n_trees=24, max_depth=6, depth_jitter=0.5, feature_fraction=0.5, seed=3
    ).fit(small_split.train)


@pytest.fixture(scope="session")
def small_gbdt(small_split):
    """A small GBDT ensemble."""
    return GBDTTrainer(n_trees=16, max_depth=4, depth_jitter=0.4, seed=3).fit(
        small_split.train
    )


@pytest.fixture(scope="session")
def test_X(small_split):
    return small_split.test.X[:120]


def make_manual_tree() -> DecisionTree:
    """A hand-built 7-node tree with known probabilities.

    Structure::

            0 (f0 < 0.5)
           /   \
          1     2 (f1 < -1.0)
               /   \
              3     4 (f0 < 2.0)
                   /   \
                  5     6

    Visit counts make the right branch of node 0 the hot one (edge
    probability 0.8), so probability-based rearrangement must swap it.
    """
    return DecisionTree(
        feature=np.array([0, LEAF, 1, LEAF, 0, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.5, 0, -1.0, 0, 2.0, 0, 0], dtype=np.float32),
        left=np.array([1, LEAF, 3, LEAF, 5, LEAF, LEAF], dtype=np.int32),
        right=np.array([2, LEAF, 4, LEAF, 6, LEAF, LEAF], dtype=np.int32),
        value=np.array([0, 1.0, 0, 2.0, 0, 3.0, 4.0], dtype=np.float32),
        default_left=np.array([True, True, False, True, True, True, True]),
        visit_count=np.array([100, 20, 80, 30, 50, 35, 15], dtype=np.int64),
    )


@pytest.fixture()
def manual_tree():
    return make_manual_tree()
