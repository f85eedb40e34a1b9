"""The native backend: real host execution of converted layouts.

Every other engine in this repo *simulates* a GPU — their throughput
numbers measure how fast the simulator runs, not how fast a forest can
be evaluated.  :class:`NativeEngine` closes that gap: it takes an
already-converted :class:`~repro.formats.layout.ForestLayout` (tahoe
adaptive or fil reorg — the flattening is format-agnostic) and executes
it on the host with compiled C (or vectorised numpy) traversal,
reporting genuine wall-clock time (``EngineResult.time_domain == "wall"``).

Execution scheme (Py-Boost's ``EnsembleInference`` trick, adapted):

* **Flattening** — at layout-adoption time the forest's trees are
  concatenated into contiguous ``feature`` / ``threshold`` / child /
  ``value`` arrays (:class:`NativeForest`).  The per-node ``flip`` bit
  is *resolved away* by swapping the children (and xor-ing the default
  direction), so the hot loop's predicate is a plain ``x < threshold``.
  Leaves become self-loops (both children point at the leaf itself), so
  finished lanes need no masking — they just gather themselves until
  the loop ends.
* **Traversal** — the compiled C kernel (:mod:`repro.core.ckernel`,
  ``kernel="c"``) walks each (sample, tree) pair to its leaf.  Without a
  C compiler the vectorised numpy kernel serves instead: all
  ``(sample, tree)`` cursors advance one level per step with
  fancy-indexed gathers over the flat arrays (level-synchronous).  The
  pure-Python scalar kernel (``kernel="scalar"``) is the reference both
  are tested against.
* **Reduction** — per-tree leaf values accumulate into a float64
  per-sample sum and run through the exact same
  :func:`~repro.strategies.base.finalize_predictions` the simulated
  strategies use, which is what makes native predictions bit-identical
  to :class:`~repro.core.engine.TahoeEngine`'s.

The engine conforms to the shared :class:`~repro.core.base.Engine`
surface and shares the :class:`~repro.core.cache.LayoutCache` with
:class:`TahoeEngine` under the *same* key — converting a forest for one
backend makes it free for the other, and packed ``.tahoe`` artifacts
adopt with zero conversion via :meth:`NativeEngine.from_layout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import ckernel
from repro.core.base import TIME_DOMAIN_WALL
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.core.engine import PipelineEngine
from repro.formats.layout import ForestLayout
from repro.gpusim.counters import TrafficCounters
from repro.gpusim.specs import GPUSpec
from repro.obs.recorder import RunRecorder
from repro.obs.trace import span
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.native import (
    HardwareTarget,
    NativeCostModel,
    calibrate_native_model,
    rank_hardware_targets,
)
from repro.perfmodel.notation import HardwareParams
from repro.strategies import ExplainStrategyResult, StrategyResult
from repro.strategies.base import finalize_predictions
from repro.trees.forest import Forest
from repro.trees.tree import LEAF

__all__ = [
    "NativeEngine",
    "NativeForest",
    "available_kernels",
    "flatten_native",
]

#: Target (sample, tree) lanes per vectorised traversal chunk — bounds
#: the working set of the gather matrices (~4 MB of int32 per array at
#: this size) so huge batches stay cache-friendly instead of allocating
#: gigabyte cursor matrices.
_TARGET_LANES = 1 << 20


def _resolve_kernel(kernel: str | None) -> str:
    if kernel is None:
        return "c" if ckernel.available() else "numpy"
    if kernel not in ("c", "numpy", "scalar"):
        raise ValueError(f"unknown native kernel {kernel!r} (need c, numpy, or scalar)")
    if kernel == "c" and not ckernel.available():
        raise ValueError(
            f"kernel='c' requested but the C kernels are unavailable ({ckernel.status}); "
            "use kernel='numpy'"
        )
    return kernel


def available_kernels() -> tuple[str, ...]:
    """Kernels this process can run (``c`` only when the library loaded)."""
    return ("c", "numpy", "scalar") if ckernel.available() else ("numpy", "scalar")


@dataclass
class NativeForest:
    """A forest flattened for native traversal (all trees concatenated).

    Node ids are *global* across trees (tree ``t``'s nodes occupy
    ``[offsets[t], offsets[t+1])``).  The conversion-time ``flip`` bit
    is already resolved: ``child_true`` is the node taken when
    ``x[feature] < threshold`` holds, ``child_false`` otherwise, and
    ``default_true`` says whether a missing (NaN) attribute takes the
    ``child_true`` branch (original ``default_left ^ flip``).  Leaves
    keep ``feature == -1`` (the scalar kernel's termination test) but
    carry a safe ``feature_ix == 0`` for masked-free vectorised gathers,
    and self-loop through both child pointers.
    """

    feature: np.ndarray  # int32, -1 at leaves
    feature_ix: np.ndarray  # int32, gather-safe (0 at leaves)
    threshold: np.ndarray  # float32
    child_true: np.ndarray  # int32, global ids; leaf self-loops
    child_false: np.ndarray  # int32, global ids; leaf self-loops
    child_pair: np.ndarray  # int32, interleaved [false, true] per node
    default_true: np.ndarray  # bool
    value: np.ndarray  # float32 leaf values (0 at decision nodes)
    is_leaf: np.ndarray  # bool
    roots: np.ndarray  # int32, per-tree root global id
    offsets: np.ndarray  # int64, per-tree start (n_trees + 1)
    max_depth: int
    mean_depth: float
    n_attributes: int
    #: Per-tree output group and group count (1 → single-margin path).
    tree_group: np.ndarray | None = None  # int64 (n_trees,)
    n_groups: int = 1
    #: Categorical bitsets (global node ids); allocated only when the
    #: forest needs the extended kernel, ``None`` keeps the historical
    #: hot paths untouched.
    has_cat: bool = False
    cat_offset: np.ndarray | None = None  # int64, -1 at numeric nodes
    cat_count: np.ndarray | None = None  # int32 words per bitset
    cat_bits: np.ndarray | None = None  # uint32 pool
    #: The C kernel's argument struct (:func:`repro.core.ckernel.bind_forest`).
    binding: object = field(default=None, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


def flatten_native(layout: ForestLayout) -> NativeForest:
    """Build (and cache on the layout) the native traversal arrays.

    Cached under ``layout.metadata["_native"]`` so every replica
    adopting the same layout object (the serving pool, the cache) shares
    one flattening — mirroring how the simulator caches its device image
    under ``"_flat"``.  Underscore keys are stripped from packed
    artifacts, so the cache never leaks to disk.
    """
    cached = layout.metadata.get("_native")
    if cached is not None:
        return cached
    trees = layout.forest.trees
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    feature = np.empty(total, dtype=np.int32)
    threshold = np.empty(total, dtype=np.float32)
    child_true = np.empty(total, dtype=np.int32)
    child_false = np.empty(total, dtype=np.int32)
    default_true = np.empty(total, dtype=bool)
    value = np.empty(total, dtype=np.float32)
    for t, tree in enumerate(trees):
        base = int(offsets[t])
        sl = slice(base, base + tree.n_nodes)
        feature[sl] = tree.feature
        threshold[sl] = tree.threshold
        flip = tree.flip
        # Resolve the flip bit: the predicate becomes a plain `<`, the
        # flipped node's children swap, and the default path follows.
        left = np.where(flip, tree.right, tree.left).astype(np.int64)
        right = np.where(flip, tree.left, tree.right).astype(np.int64)
        leaf = tree.feature == LEAF
        self_id = np.arange(tree.n_nodes, dtype=np.int64)
        child_true[sl] = np.where(leaf, self_id, left) + base
        child_false[sl] = np.where(leaf, self_id, right) + base
        default_true[sl] = np.where(leaf, False, tree.default_left ^ flip)
        value[sl] = np.where(leaf, tree.value, np.float32(0.0))
    forest = layout.forest
    tree_group = None
    if forest.n_classes > 1:
        tree_group = forest.tree_class.astype(np.int64)
    has_cat = forest.has_categorical
    cat_offset = cat_count = cat_bits = None
    if has_cat or tree_group is not None:
        # The extended kernel always takes the categorical columns, so a
        # multiclass-but-numeric forest gets all-(-1) dummies.
        cat_offset = np.full(total, -1, dtype=np.int64)
        cat_count = np.zeros(total, dtype=np.int32)
        pools = []
        pool_base = 0
        for t, tree in enumerate(trees):
            if tree.cat_offset is None:
                continue
            base = int(offsets[t])
            sl = slice(base, base + tree.n_nodes)
            shifted = tree.cat_offset.copy()
            shifted[shifted >= 0] += pool_base
            cat_offset[sl] = shifted
            cat_count[sl] = tree.cat_count
            pools.append(tree.cat_bits)
            pool_base += tree.cat_bits.shape[0]
        cat_bits = np.concatenate(pools) if pools else np.zeros(1, dtype=np.uint32)
    is_leaf = feature == LEAF
    feature_ix = np.where(is_leaf, np.int32(0), feature).astype(np.int32)
    # Interleave the children so the vectorised kernel resolves a step
    # with ONE gather: next = child_pair[2*cur + go] (go ∈ {0, 1})
    # instead of two gathers plus a where.
    child_pair = np.empty(2 * total, dtype=np.int32)
    child_pair[0::2] = child_false
    child_pair[1::2] = child_true
    flat = NativeForest(
        feature=feature,
        feature_ix=feature_ix,
        threshold=threshold,
        child_true=child_true,
        child_false=child_false,
        child_pair=child_pair,
        default_true=default_true,
        value=value,
        is_leaf=is_leaf,
        roots=offsets[:-1].astype(np.int32),
        offsets=offsets,
        max_depth=int(layout.forest.max_depth()),
        mean_depth=float(layout.forest.mean_depth()),
        n_attributes=int(layout.forest.n_attributes),
        tree_group=tree_group,
        n_groups=int(forest.n_classes),
        has_cat=has_cat,
        cat_offset=cat_offset,
        cat_count=cat_count,
        cat_bits=cat_bits,
    )
    layout.metadata["_native"] = flat
    return flat


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _traverse_scalar(X: np.ndarray, flat: NativeForest, out: np.ndarray) -> np.ndarray:
    """Reference scalar kernel: one (sample, tree) walk at a time.

    Plain pure-Python loops, run by ``kernel="scalar"``: the reference
    that ``repro_traverse`` in ``ckernel.c`` follows line for line.
    ``out`` is ``(n_samples, n_groups)``; leaf values accumulate in
    float64 in tree order.
    """
    cat = flat.cat_offset
    group = flat.tree_group
    for i in range(X.shape[0]):
        for t in range(flat.n_trees):
            node = flat.roots[t]
            f = flat.feature[node]
            while f >= 0:
                v = X[i, f]
                if v != v:  # NaN: the (flip-resolved) default path
                    go = flat.default_true[node]
                elif cat is not None and cat[node] >= 0:
                    # Bitset membership on the truncated category code;
                    # negative, infinite and out-of-range codes are
                    # non-members.
                    go = False
                    if 0 <= v < 32 * int(flat.cat_count[node]):
                        code = int(v)
                        bits = int(flat.cat_bits[cat[node] + (code >> 5)])
                        go = ((bits >> (code & 31)) & 1) == 1
                else:
                    go = v < flat.threshold[node]
                node = flat.child_true[node] if go else flat.child_false[node]
                f = flat.feature[node]
            # Explicit float64: NEP 50 numpy-scalar arithmetic would
            # demote a float32 sum.
            out[i, 0 if group is None else group[t]] += float(flat.value[node])
    return out


def _traverse_numpy(X: np.ndarray, flat: NativeForest, out: np.ndarray) -> np.ndarray:
    """Level-synchronous vectorised traversal over flattened (sample, tree)
    lanes.

    All cursors advance one level per step; leaf self-loops make
    finished lanes harmless, so no masking is needed.  Each step costs
    four gathers — feature ids, sample values, thresholds, and the
    interleaved child pair ``child_pair[2*cur + go]`` (one gather where
    the naive form needs two plus a ``where``) — all issued through
    ``ndarray.take``, which is roughly twice as fast as fancy ``[]``
    indexing, with the sample gather done against the flattened feature
    matrix (``X.ravel().take(row*n_attr + feature)`` beats a 2-D fancy
    gather by ~5x).  The self-loop property doubles as a free
    termination test: a lane is finished exactly when its child equals
    its cursor, so ``(nxt == cur).all()`` ends ragged forests early
    without an ``is_leaf`` gather.  The NaN default-path handling is
    hoisted out of the level loop — clean batches (the common case)
    never pay for it.  Large batches are chunked to keep the cursor
    vectors in cache.  Leaf values reduce in float64 (exact for
    realistic leaf magnitudes, hence order-independent — see
    docs/performance.md).
    """
    n, n_attr = X.shape
    n_trees = flat.n_trees
    chunk = max(1, _TARGET_LANES // max(1, n_trees))
    has_nan = bool(np.isnan(X).any())
    Xf = np.ascontiguousarray(X).reshape(-1)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        c = stop - start
        lanes = c * n_trees
        # Rebased chunk view keeps sample-gather indices small enough
        # for int32 (half the index-arithmetic memory traffic of intp).
        Xc = Xf[start * n_attr : stop * n_attr]
        idx_dtype = np.int32 if c * n_attr < 2**31 else np.intp
        cur = np.tile(flat.roots, c)
        base = np.repeat(np.arange(c, dtype=idx_dtype) * n_attr, n_trees)
        step = np.empty(lanes, dtype=np.int32)
        xidx = np.empty(lanes, dtype=idx_dtype)
        # Lane compaction: ragged tree depths strand an increasing
        # share of lanes on self-looping leaves; once enough die, stop
        # gathering for them.  ``origin`` maps the compacted lanes back
        # to their grid slot (None while no compaction has happened);
        # ``final`` holds every lane's resting node.
        origin = None
        final = cur
        for depth in range(flat.max_depth):
            m = cur.shape[0]
            np.add(
                base, flat.feature_ix.take(cur), out=xidx[:m], casting="unsafe"
            )
            vals = Xc.take(xidx[:m])
            go = vals < flat.threshold.take(cur)
            if flat.has_cat:
                co = flat.cat_offset.take(cur)
                cat = co >= 0
                if cat.any():
                    v = vals[cat].astype(np.float64)
                    code = np.where(
                        np.isfinite(v) & (v >= 0), v, -1.0
                    ).astype(np.int64)
                    word = code >> 5
                    valid = (code >= 0) & (
                        word < flat.cat_count.take(cur[cat]).astype(np.int64)
                    )
                    slot = co[cat] + np.where(valid, word, 0)
                    bits = flat.cat_bits.take(slot).astype(np.int64)
                    go[cat] = valid & (((bits >> (code & 31)) & 1) == 1)
            if has_nan:
                missing = np.isnan(vals)
                if missing.any():
                    go = np.where(missing, flat.default_true.take(cur), go)
            # step = 2*cur + go, elementwise in int32 without temporaries
            np.add(cur, cur, out=step[:m])
            np.add(step[:m], go, out=step[:m], casting="unsafe")
            nxt = flat.child_pair.take(step[:m])
            if depth >= 2 and depth + 1 < flat.max_depth:
                alive = nxt != cur
                n_alive = int(np.count_nonzero(alive))
                if n_alive == 0:
                    cur = nxt
                    break
                if n_alive < 0.7 * m:
                    keep = np.flatnonzero(alive)
                    if origin is None:
                        final = nxt
                        origin = keep
                    else:
                        final[origin] = nxt
                        origin = origin.take(keep)
                    cur = nxt.take(keep)
                    base = base.take(keep)
                    continue
            cur = nxt
        if origin is None:
            final = cur
        else:
            final[origin] = cur
        leaf = flat.value.take(final).reshape(c, n_trees)
        if flat.n_groups > 1:
            # Grouped segment-sum via bincount on a composite
            # (sample, class) index — deterministic addition order, so
            # results stay bit-identical to the scalar kernel's.
            K = flat.n_groups
            gidx = (
                np.arange(c, dtype=np.int64)[:, None] * K
                + flat.tree_group[None, :]
            ).ravel()
            out[start:stop] = np.bincount(
                gidx, weights=leaf.astype(np.float64).ravel(), minlength=c * K
            ).reshape(c, K)
        else:
            out[start:stop] = leaf.sum(axis=1, dtype=np.float64)
    return out


@dataclass
class NativeBreakdown:
    """Wall-clock decomposition of one native batch.

    Mirrors the simulator's ``ExecutionBreakdown`` duck type: ``total``
    and ``to_dict`` for :class:`~repro.obs.report.BatchRecord`, and a
    ``t_global_reduce`` tail the serving layer splits into its
    kernel/reduction stage spans.
    """

    t_traversal: float = 0.0
    t_global_reduce: float = 0.0

    @property
    def total(self) -> float:
        return self.t_traversal + self.t_global_reduce

    def to_dict(self) -> dict:
        return {
            "t_traversal": self.t_traversal,
            "t_global_reduce": self.t_global_reduce,
            "total": self.total,
            "time_domain": TIME_DOMAIN_WALL,
        }


class NativeEngine(PipelineEngine):
    """Wall-clock host execution of converted forest layouts.

    A :class:`~repro.core.engine.PipelineEngine`: construction from a
    forest runs the *same* conversion stages as :class:`TahoeEngine`
    (via :func:`~repro.core.engine.convert_forest`) under the *same*
    layout-cache key, so the two backends trade finished layouts freely;
    stage 5 ("copy to device") builds the flat native arrays instead of
    the simulated GPU image, and every batch runs the host kernel.

    Constructor arguments are :class:`~repro.core.engine.PipelineEngine`'s
    plus ``kernel`` — ``"c"`` / ``"numpy"`` / ``"scalar"``; when omitted,
    ``"c"`` if the compiled library loaded, ``"numpy"`` otherwise.
    ``spec`` and ``hardware`` feed the simulated-GPU half of the hardware
    ranking (the §6 candidate the native target is compared to).
    """

    engine_name = "native"
    time_domain = TIME_DOMAIN_WALL

    def __init__(
        self,
        forest: Forest,
        spec: GPUSpec,
        *,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
        kernel: str | None = None,
    ) -> None:
        self.kernel = _resolve_kernel(kernel)
        super().__init__(
            forest,
            spec,
            config=config,
            hardware=hardware,
            recorder=recorder,
            layout_cache=layout_cache,
        )

    @classmethod
    def from_layout(
        cls,
        layout: ForestLayout,
        spec: GPUSpec,
        *,
        cache_key: tuple | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
        kernel: str | None = None,
    ) -> "NativeEngine":
        """Adopt an already-converted layout (tahoe *or* fil format)."""
        kernel = _resolve_kernel(kernel)
        engine = super().from_layout(
            layout,
            spec,
            cache_key=cache_key,
            config=config,
            hardware=hardware,
            recorder=recorder,
            layout_cache=layout_cache,
        )
        engine.kernel = kernel
        return engine

    # Hooks of the skeleton.  The hardware default is looked up in this
    # module, at call time, so it can be traced apart from Tahoe's.
    def _default_hardware(self, spec: GPUSpec) -> HardwareParams:
        return measure_hardware_parameters(spec)

    def _ship(self, layout: ForestLayout) -> None:
        # Stage 5 for this backend: "copy to device" is building the
        # flat native arrays the kernels traverse.
        with span("copy_to_native", category="conversion"):
            flatten_native(layout)

    def _install(self) -> None:
        self.flat = flatten_native(self.layout)
        if ckernel.available():
            ckernel.bind_forest(self.flat)
        self._cost_model: NativeCostModel | None = None  # re-calibrate
        self._ranked_cache: dict[int, list] = {}

    def _report_meta(self) -> dict:
        return {
            "time_domain": TIME_DOMAIN_WALL,
            "kernel": self.kernel,
            "shap_kernel": "c" if ckernel.available() else "numpy",
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _leaf_sums(self, X: np.ndarray) -> np.ndarray:
        """Per-sample float64 leaf-value sums via the selected kernel.

        Returns ``(n,)`` for single-output forests and ``(n, n_classes)``
        for multiclass ones (what :func:`finalize_predictions` expects).
        """
        flat = self.flat
        if self.kernel == "numpy":
            shape = (X.shape[0], flat.n_groups) if flat.n_groups > 1 else X.shape[0]
            return _traverse_numpy(X, flat, np.empty(shape, dtype=np.float64))
        if self.kernel == "c":
            out = ckernel.traverse(flat, X)
        else:
            out = _traverse_scalar(X, flat, np.zeros((X.shape[0], flat.n_groups)))
        return out if flat.n_groups > 1 else out[:, 0]

    def _run_flat(self, X: np.ndarray) -> tuple[np.ndarray, NativeBreakdown]:
        """Traverse + reduce one batch, wall-clock timed per phase."""
        t0 = time.perf_counter()
        leaf_sum = self._leaf_sums(X)
        t1 = time.perf_counter()
        predictions = finalize_predictions(self.forest, leaf_sum)
        t2 = time.perf_counter()
        return predictions, NativeBreakdown(
            t_traversal=t1 - t0, t_global_reduce=t2 - t1
        )

    @property
    def cost_model(self) -> NativeCostModel:
        """The calibrated wall-clock cost model (probed lazily, once)."""
        if self._cost_model is None or self._cost_model.kernel != self.kernel:
            # The vectorised kernels amortise dispatch over large
            # batches, so probe well into that regime; the pure-Python
            # scalar kernel is too slow for a 1024-row probe.
            probes = (16, 256) if self.kernel == "scalar" else (64, 1024)
            self._cost_model = calibrate_native_model(
                self._leaf_sums,
                n_trees=self.forest.n_trees,
                depth=self.flat.mean_depth,
                n_attributes=self.forest.n_attributes,
                kernel=self.kernel,
                probe_sizes=probes,
            )
            self._ranked_cache.clear()
        return self._cost_model

    def _ranked_targets(self, nb: int) -> list:
        """The two-target hardware ranking for a batch size, memoized.

        The §6 GPU-side prediction walks the per-tree imbalance model
        (milliseconds per call), so it is evaluated once per
        power-of-two batch-size bucket and linearly rescaled — serving
        loops coalesce ragged micro-batches, and a per-exact-size memo
        would miss on nearly every dispatch.  The native prediction is
        a two-coefficient evaluation, so it is always computed exactly
        for the actual batch size: the chosen target's predicted time
        is what feeds the calibration residuals.
        """
        bucket = max(1, 1 << (int(nb) - 1).bit_length())
        ranked = self._ranked_cache.get(bucket)
        if ranked is None:
            ranked = rank_hardware_targets(
                self.cost_model,
                self.layout,
                bucket,
                self.spec,
                self.hardware,
                depth=self.flat.mean_depth,
            )
            self._ranked_cache[bucket] = ranked
        if nb == bucket:
            return ranked
        scale = nb / bucket
        targets = []
        for target in ranked:
            if target.name == "native_cpu":
                predicted = self.cost_model.predict_time(
                    nb, self.flat.n_trees, self.flat.mean_depth
                )
                note = target.note
            else:
                predicted = target.predicted_time * scale
                note = f"{target.note}; rescaled from batch {bucket}"
            targets.append(
                HardwareTarget(
                    name=target.name, predicted_time=predicted, note=note
                )
            )
        targets.sort(key=lambda t: t.predicted_time)
        return targets

    def _predict_batch(
        self, X: np.ndarray, start: int, stop: int, index: int, collect_level_stats: bool
    ) -> StrategyResult:
        # collect_level_stats is ignored: there is no simulated memory
        # system to collect from.  The hardware-target ranking (native
        # CPU vs best simulated-GPU strategy) happens outside the timed
        # region, like strategy selection does for the simulated engines.
        nb = stop - start
        ranked = self._ranked_targets(nb)
        chosen = next(t for t in ranked if t.name == "native_cpu")
        preds, breakdown = self._run_flat(X[start:stop])
        result = _wall_result(StrategyResult, "native", preds, breakdown, nb)
        decision = self.recorder.record_decision(index, nb, ranked, chosen)
        self.recorder.record_batch(index, result, decision)
        return result

    def _explain_batch(
        self, X: np.ndarray, start: int, stop: int, index: int
    ) -> ExplainStrategyResult:
        # The same compute_shap the simulated strategies run, timed for
        # real.  Looked up at call time so tracing can wrap it.
        from repro.explain.kernel import compute_shap
        from repro.explain.paths import path_set_for_layout

        ps = path_set_for_layout(self.layout)
        t0 = time.perf_counter()
        phi, base, margins = compute_shap(ps, X[start:stop])
        breakdown = NativeBreakdown(t_traversal=time.perf_counter() - t0)
        result = _wall_result(
            ExplainStrategyResult,
            "native_explain",
            margins,
            breakdown,
            stop - start,
            attributions=phi,
            base_values=base,
        )
        self.recorder.record_batch(index, result)
        return result

    def measure_flush_curve(
        self, batch_sizes: list[int], *, repeats: int = 2, seed: int = 11
    ) -> dict[int, float]:
        """Measured per-sample wall seconds at each candidate batch size.

        The serving layer's native flush-point planner: where the
        simulated backends scan the §6 *predicted* per-sample time
        curve, the native backend times its own dispatch path on
        synthetic probe batches (best of ``repeats``) — the knee of a
        measured curve, not a modelled one.  Probes run the full
        ``predict`` path, not just the kernel: per-dispatch costs
        (target ranking, decision/batch recording, result assembly) are
        exactly what makes small flush points a bad deal, so a curve
        without them would understate the knee.  Probes record into a
        throwaway recorder so they never pollute batch/decision
        telemetry.
        """
        if not batch_sizes:
            raise ValueError("need at least one candidate batch size")
        rng = np.random.default_rng(seed)
        biggest = max(batch_sizes)
        X = rng.standard_normal(
            (biggest, max(1, self.flat.n_attributes))
        ).astype(np.float32)
        curve: dict[int, float] = {}
        real_recorder = self.recorder
        try:
            self.recorder = type(real_recorder)()
            for b in sorted(set(batch_sizes)):
                probe = X[:b]
                best = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    self.predict(probe)
                    best = min(best, time.perf_counter() - t0)
                curve[b] = best / b
        finally:
            self.recorder = real_recorder
        return curve


def _wall_result(cls, strategy: str, predictions, breakdown, n: int, **extra):
    """A wall-clock batch result: no simulated traffic or launch shape."""
    return cls(
        strategy=strategy,
        predictions=predictions,
        breakdown=breakdown,
        counters=TrafficCounters(),
        per_thread_steps=np.zeros(0, dtype=np.int64),
        n_blocks=0,
        threads_per_block=0,
        batch_size=n,
        **extra,
    )
