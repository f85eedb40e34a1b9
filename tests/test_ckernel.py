"""The compiled C kernels: bit-identity with numpy and scalar, the build
cache, and the numpy fallback.

The C kernels claim *bit-identical* results, so every comparison here is
``array_equal``.  The forests are adversarial for the branch logic:
threshold ties, NaN rows, categorical bitsets probed with negative,
fractional, out-of-range, huge and infinite codes, and multiclass
groups.  Leaf values are dyadic rationals (integer / 16), so a float64
sum of them is exact in any order and any mismatch is a kernel bug.
"""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FILEngine, MultiGPUTahoeEngine, TahoeEngine, ckernel
from repro.core.native import NativeEngine, available_kernels, flatten_native
from repro.explain import kernel as shap_kernel
from repro.explain.paths import build_path_set, path_set_for_layout
from repro.formats import build_adaptive_layout
from repro.gpusim.specs import GPU_SPECS
from repro.serving import REJECTED_BAD_REQUEST, InferenceRequest, SchedulerConfig, TahoeServer
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree

SPEC = GPU_SPECS["P100"]
needs_c = pytest.mark.skipif(not ckernel.available(), reason="C kernels unavailable")

_GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 33.0], dtype=np.float32)
#: Category codes: members and non-members, negative, fractional, past
#: the bitset, huge, infinite.
_CODES = np.array(
    [0, 1, 2, 5, 31, 32, 33, 63, 64, 100, -1, -0.0, 2.5, -3.5, 1e30, np.inf, -np.inf],
    dtype=np.float32,
)


def _grow_tree(rng, n_features, max_depth, cat_share, group):
    feature, threshold, left, right = [], [], [], []
    value, default_left, visits, cat_offset, cat_count = [], [], [], [], []
    bits: list[int] = []

    def grow(depth, visit):
        node = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(float(rng.integers(-32, 32)) / 16.0)
        default_left.append(bool(rng.random() < 0.5))
        visits.append(int(visit))
        cat_offset.append(-1)
        cat_count.append(0)
        if depth < max_depth and visit >= 2 and rng.random() < 0.75:
            feature[node] = int(rng.integers(0, n_features))
            if rng.random() < cat_share:
                words = int(rng.integers(1, 3))
                cat_offset[node] = len(bits)
                cat_count[node] = words
                bits.extend(int(b) for b in rng.integers(0, 2**32, size=words, dtype=np.uint64))
            else:
                threshold[node] = float(rng.choice(_GRID))
            lv = int(rng.integers(1, visit))
            left[node] = grow(depth + 1, lv)
            right[node] = grow(depth + 1, visit - lv)
        return node

    grow(0, int(rng.integers(4, 500)))
    has_cat = bool(bits)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float32),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float32),
        default_left=np.array(default_left),
        visit_count=np.array(visits, dtype=np.int64),
        group=group,
        cat_offset=np.array(cat_offset, dtype=np.int64) if has_cat else None,
        cat_count=np.array(cat_count, dtype=np.int32) if has_cat else None,
        cat_bits=np.array(bits, dtype=np.uint32) if has_cat else None,
    )


@st.composite
def cases(draw, max_rows=24):
    """A random forest plus rows with ties, NaN and odd category codes."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.sampled_from([1, 1, 2, 3]))
    n_trees = draw(st.integers(max(1, n_classes), 7))
    cat_share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    aggregation = draw(st.sampled_from(["sum", "mean"]))
    rng = np.random.default_rng(seed)
    trees = [
        _grow_tree(rng, n_features, int(rng.integers(1, 6)), cat_share, i % n_classes)
        for i in range(n_trees)
    ]
    forest = Forest(
        trees=trees,
        n_attributes=n_features,
        aggregation=aggregation,
        learning_rate=0.5 if aggregation == "sum" else 1.0,
        base_score=float(rng.integers(-8, 8)) / 4.0 if aggregation == "sum" else 0.0,
        n_classes=n_classes,
    )
    n_rows = draw(st.integers(1, max_rows))
    X = rng.choice(_GRID, size=(n_rows, n_features))
    pick = rng.random(X.shape)
    X = np.where(pick < 0.4, rng.choice(_CODES, size=X.shape), X).astype(np.float32)
    X[pick > 0.9] = np.nan
    return forest, X


def _forest_and_rows():
    rng = np.random.default_rng(5)
    trees = [_grow_tree(rng, 6, 4, 0.3, i % 2) for i in range(6)]
    forest = Forest(trees=trees, n_attributes=6, aggregation="sum", n_classes=2)
    X = rng.choice(_CODES, size=(16, 6)).astype(np.float32)
    return forest, X


def _predictions(forest, X, kernel):
    return NativeEngine(forest, SPEC, kernel=kernel).predict(X).predictions


@needs_c
class TestPredictDifferential:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_c_numpy_scalar_agree(self, case):
        forest, X = case
        c = _predictions(forest, X, "c")
        assert np.array_equal(c, _predictions(forest, X, "numpy"))
        assert np.array_equal(c, _predictions(forest, X, "scalar"))

    @given(cases())
    @settings(max_examples=30, deadline=None)
    def test_c_matches_simulators(self, case):
        forest, X = case
        c = _predictions(forest, X, "c")
        assert np.array_equal(c, TahoeEngine(forest, SPEC).predict(X).predictions)
        assert np.array_equal(c, FILEngine(forest, SPEC).predict(X).predictions)

    @given(cases())
    @settings(max_examples=20, deadline=None)
    def test_wide_rows_read_only_their_own_columns(self, case):
        forest, X = case
        wide = np.concatenate([X, np.full((X.shape[0], 3), np.nan, np.float32)], axis=1)
        assert np.array_equal(_predictions(forest, X, "c"), _predictions(forest, wide, "c"))


@needs_c
class TestShapDifferential:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_c_matches_numpy(self, case):
        forest, X = case
        for ps in (build_path_set(forest), path_set_for_layout(build_adaptive_layout(forest))):
            assert np.array_equal(ckernel.shap(ps, X), shap_kernel._shap_numpy(ps, X))

    @given(cases(max_rows=4), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=8, deadline=None)
    def test_chunk_boundaries(self, case, delta):
        forest, X = case
        n = shap_kernel.DEFAULT_CHUNK + delta
        rows = np.resize(X, (n, X.shape[1]))
        ps = build_path_set(forest)
        assert np.array_equal(ckernel.shap(ps, rows), shap_kernel._shap_numpy(ps, rows))

    def test_binding_is_made_once(self):
        forest, X = _forest_and_rows()
        ps = build_path_set(forest)
        ckernel.shap(ps, X)
        first = ps.binding
        ckernel.shap(ps, X)
        assert ps.binding is first
        flat = flatten_native(build_adaptive_layout(forest))
        ckernel.traverse(flat, X)
        bound = flat.binding
        ckernel.traverse(flat, X)
        assert flat.binding is bound


class TestNarrowBatches:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_native_rejects_narrow_rows(self, kernel):
        forest, X = _forest_and_rows()
        engine = NativeEngine(forest, SPEC, kernel=kernel)
        with pytest.raises(ValueError, match="5 columns but the forest needs 6"):
            engine.predict(X[:, :5])
        with pytest.raises(ValueError, match="5 columns but the forest needs 6"):
            engine.explain(X[:, :5])

    @pytest.mark.parametrize(
        "make",
        [
            lambda f: TahoeEngine(f, SPEC),
            lambda f: FILEngine(f, SPEC),
            lambda f: MultiGPUTahoeEngine(f, SPEC, n_gpus=2),
        ],
    )
    def test_simulated_engines_reject_narrow_rows(self, make):
        forest, X = _forest_and_rows()
        with pytest.raises(ValueError, match="5 columns but the forest needs 6"):
            make(forest).predict(X[:, :5])

    def test_wider_rows_still_accepted(self):
        forest, X = _forest_and_rows()
        wide = np.concatenate([X, np.zeros((X.shape[0], 2), np.float32)], axis=1)
        engine = NativeEngine(forest, SPEC)
        assert np.array_equal(engine.predict(wide).predictions, engine.predict(X).predictions)

    def test_server_rejects_only_the_narrow_request(self):
        forest, X = _forest_and_rows()
        server = TahoeServer(
            forest, SPEC, scheduler=SchedulerConfig(backend="native", max_batch=8)
        )
        blocks = [X[0:1], X[1:2, :4], X[2:3], np.concatenate([X[3:4], X[3:4, :2]], axis=1)]
        requests = [
            InferenceRequest(request_id=i, X=b, arrival_time=0.001 * i)
            for i, b in enumerate(blocks)
        ]
        result = server.run(requests)
        by_id = {r.request_id: r for r in result.responses}
        bad = by_id[1]
        assert not bad.ok and bad.error.code == REJECTED_BAD_REQUEST
        assert "4" in bad.error.detail and "6" in bad.error.detail
        assert bad.trace is not None
        expected = forest.predict(X[[0, 2, 3]])
        for k, rid in enumerate((0, 2, 3)):
            assert by_id[rid].ok
            assert np.array_equal(by_id[rid].predictions, expected[k : k + 1])
        assert result.summary["rejected_bad_request"] == 1


# ----------------------------------------------------------------------
# Build cache and fallback
# ----------------------------------------------------------------------
@pytest.fixture
def counted_compiles(monkeypatch):
    calls = []
    real = ckernel._compile

    def compile_and_count(cc, target):
        calls.append(target)
        real(cc, target)

    monkeypatch.setattr(ckernel, "_compile", compile_and_count)
    return calls


def test_source_is_packaged_next_to_the_loader():
    assert ckernel.SOURCE.exists()
    assert "-ffp-contract=off" in ckernel.FLAGS
    assert not any("fast-math" in f or "march" in f for f in ckernel.FLAGS)


@needs_c
class TestBuildCache:
    def test_second_load_uses_the_cache(self, tmp_path, monkeypatch, counted_compiles):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib, how = ckernel._load()
        assert lib is not None and how == "built"
        cache = tmp_path / "repro"
        assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
        assert [p.suffix for p in cache.iterdir()] == [".so"]
        lib, how = ckernel._load()
        assert lib is not None and how == "cached"
        assert len(counted_compiles) == 1

    def test_corrupt_library_is_rebuilt(self, tmp_path, monkeypatch, counted_compiles):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        key = ckernel._cache_key(ckernel._compiler())
        target = tmp_path / "repro" / f"ckernel-{key[:24]}.so"
        target.parent.mkdir(mode=0o700)
        target.write_bytes(b"\x7fELF truncated")
        lib, how = ckernel._load()
        assert how == "built" and counted_compiles == [target]
        assert lib.repro_ckernel_abi() == ckernel.ABI

    def test_unwritable_cache_builds_privately(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(ckernel.tempfile, "tempdir", str(tmp_path))
        lib, how = ckernel._load()
        assert lib is not None and how == "built"
        assert list(tmp_path.glob("repro-ckernel-*/ckernel-*.so"))


class TestFallback:
    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_compiler", lambda: None)
        monkeypatch.setattr(ckernel, "_lib", ckernel._UNSET)
        monkeypatch.setattr(ckernel, "status", None)
        assert ckernel.library() is None
        assert "no C compiler" in ckernel.status

    def test_engines_fall_back_to_numpy(self, no_compiler):
        forest, X = _forest_and_rows()
        assert available_kernels() == ("numpy", "scalar")
        engine = NativeEngine(forest, SPEC)
        assert engine.kernel == "numpy"
        result = engine.predict(X, report=True)
        assert result.report.meta["kernel"] == "numpy"
        assert result.report.meta["shap_kernel"] == "numpy"
        assert np.array_equal(result.predictions, forest.predict(X))
        with pytest.raises(ValueError, match="C kernels are unavailable"):
            NativeEngine(forest, SPEC, kernel="c")

    def test_explain_falls_back_to_numpy(self, no_compiler):
        forest, X = _forest_and_rows()
        ps = build_path_set(forest)
        phi, _, _ = shap_kernel.compute_shap(ps, X)
        expected = shap_kernel._shap_numpy(ps, X).reshape(phi.shape)
        assert np.array_equal(phi, expected)
