"""Lockstep traversal trace engine.

Simulates SIMT execution of forest traversal at warp granularity and
produces exact memory-access traces.  Two thread-to-work mappings cover
all four inference strategies (paper sections 2 and 5):

* :func:`trace_tree_parallel` — FIL's shared-data mapping: the threads of
  a block split the *trees* round-robin and every thread walks its trees
  for the same sample; samples stream one after another.  At a given
  lockstep instruction, warp lanes sit at the same level of *different*
  trees — the access pattern whose (un)coalescing figure 2(a) plots.
* :func:`trace_sample_parallel` — the direct / shared-forest / splitting
  mappings: every thread owns one *sample* and the block's threads walk
  the same tree together; warp lanes sit at the same level of the same
  tree for 32 different samples.

Both return a :class:`TraceResult` with per-traffic-class counters, the
per-thread work vector (for load-imbalance CV), and the per-sample sum of
leaf values (so the simulated kernel's predictions can be checked against
the reference predictor bit-for-bit).

Address spaces are disjoint: the forest lives at byte 0, samples at
``SAMPLE_BASE``, outputs at ``OUTPUT_BASE`` — matching distinct
allocations on a real device.

Hot-path structure (PR 2): the lockstep loop only *records* each level's
``(addr, alive)`` warp rows into per-chunk buffers; all counter and
level-stat arithmetic is flushed in one vectorised call per chunk
(:class:`_AccessBuffer`), leaf values accumulate through a single
``np.bincount``, fully-finished tile rows are compacted away mid-chunk,
and the sample-parallel mapping stacks several trees into one tile so
the Python-level loop count drops from ``n_trees x n_chunks`` to
``ceil(n_trees / trees_per_tile) x n_chunks``.  Equivalence tests pin
every observable output to the original per-level implementation
(``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.layout import ForestLayout
from repro.gpusim.counters import LevelStats, TrafficCounters
from repro.gpusim.memory import (
    adjacent_lane_distances,
    bank_conflict_factor,
    transactions_per_row,
)
from repro.gpusim.specs import GPUSpec
from repro.obs.trace import span
from repro.trees.tree import category_member

__all__ = [
    "FlatForest",
    "TraceResult",
    "flatten_layout",
    "trace_tree_parallel",
    "trace_sample_parallel",
    "SAMPLE_BASE",
    "OUTPUT_BASE",
]

SAMPLE_BASE = np.int64(1) << 40
OUTPUT_BASE = np.int64(1) << 41

_ATT_BYTES = 4  # float32 attributes (the paper's S_att)


@dataclass
class FlatForest:
    """A layout's trees concatenated into flat arrays for vectorised
    traversal.

    ``offsets[p]`` is the flat index of layout-tree ``p``'s root; child
    pointers stay tree-local, so the flat index of a node is always
    ``offsets[p] + local_id``.
    """

    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    flip: np.ndarray
    is_leaf: np.ndarray
    address: np.ndarray
    n_attributes: int
    node_size: int
    #: Per-node output group (the owning tree's class); all zeros and
    #: ``n_groups == 1`` for single-output forests.
    group: np.ndarray | None = None
    n_groups: int = 1
    #: Categorical bitset columns; ``None`` for purely numeric forests so
    #: the traversal hot path stays branch-free.
    cat_offset: np.ndarray | None = None
    cat_count: np.ndarray | None = None
    cat_bits: np.ndarray | None = None


def flatten_layout(layout: ForestLayout) -> FlatForest:
    """Build (and cache on the layout) the flat traversal arrays."""
    cached = layout.metadata.get("_flat")
    if cached is not None:
        return cached
    forest = layout.forest
    trees = forest.trees
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    group = None
    if forest.n_classes > 1:
        group = np.concatenate(
            [np.full(t.n_nodes, t.group, dtype=np.int64) for t in trees]
        )
    cat_offset = cat_count = cat_bits = None
    if forest.has_categorical:
        # Per-tree bitset pools concatenate into one; each tree's offsets
        # shift by the running pool length (-1 stays -1 for numeric nodes).
        offs, counts, pools = [], [], []
        pool_base = 0
        for t in trees:
            if t.cat_offset is None:
                offs.append(np.full(t.n_nodes, -1, dtype=np.int64))
                counts.append(np.zeros(t.n_nodes, dtype=np.int32))
            else:
                shifted = t.cat_offset.copy()
                shifted[shifted >= 0] += pool_base
                offs.append(shifted)
                counts.append(t.cat_count)
                pools.append(t.cat_bits)
                pool_base += t.cat_bits.shape[0]
        cat_offset = np.concatenate(offs)
        cat_count = np.concatenate(counts)
        cat_bits = (
            np.concatenate(pools) if pools else np.zeros(0, dtype=np.uint32)
        )
    flat = FlatForest(
        offsets=offsets,
        feature=np.concatenate([t.feature for t in trees]),
        threshold=np.concatenate([t.threshold for t in trees]),
        left=np.concatenate([t.left for t in trees]),
        right=np.concatenate([t.right for t in trees]),
        value=np.concatenate([t.value for t in trees]),
        default_left=np.concatenate([t.default_left for t in trees]),
        flip=np.concatenate([t.flip for t in trees]),
        is_leaf=np.concatenate([t.is_leaf for t in trees]),
        address=np.concatenate(layout.node_address),
        n_attributes=forest.n_attributes,
        node_size=layout.node_size,
        group=group,
        n_groups=forest.n_classes,
        cat_offset=cat_offset,
        cat_count=cat_count,
        cat_bits=cat_bits,
    )
    layout.metadata["_flat"] = flat
    return flat


@dataclass
class TraceResult:
    """Outcome of tracing one block-sized piece of work.

    Attributes:
        leaf_sum: per-sample sum of leaf values over the traversed trees
            (raw margins; the strategy applies the forest's aggregation).
        per_thread_steps: node visits per simulated thread — the
            load-imbalance signal (figure 2c / table 3).
        counters: traffic per memory class.
        level_stats: per-level coalescing stats when requested.
        node_visits: total node fetches issued.
    """

    leaf_sum: np.ndarray
    per_thread_steps: np.ndarray
    counters: TrafficCounters
    level_stats: LevelStats | None
    node_visits: int


def _as_warp_rows(arr: np.ndarray, warp_size: int) -> np.ndarray:
    """Reshape (rows, lanes) lane-major data into (rows*warps, warp_size)."""
    rows, lanes = arr.shape
    if lanes % warp_size != 0:
        raise ValueError(f"lane count {lanes} not a multiple of warp size {warp_size}")
    return arr.reshape(rows * (lanes // warp_size), warp_size)


class _AccessBuffer:
    """Per-chunk buffer of warp-row accesses, flushed in one batch.

    The lockstep loop appends each level's ``(addr, alive)`` warp rows
    (plus the level id when level stats are wanted); :meth:`flush` then
    runs the memory-model kernel exactly once over the concatenation.
    Buffered rows are warp-shaped, so concatenating levels — or even
    different trees' tiles — never mixes lanes across rows, and every
    per-row quantity the kernels emit is independent of the batching.
    """

    __slots__ = ("_addr", "_active", "_levels", "_track_levels")

    def __init__(self, track_levels: bool) -> None:
        self._addr: list[np.ndarray] = []
        self._active: list[np.ndarray] = []
        self._levels: list[np.ndarray] = []
        self._track_levels = track_levels

    def append(self, addr: np.ndarray, active: np.ndarray, level: int) -> None:
        self._addr.append(addr)
        self._active.append(active)
        if self._track_levels:
            self._levels.append(np.full(addr.shape[0], level, dtype=np.int64))

    def flush_node(
        self,
        counters: TrafficCounters,
        level_stats: LevelStats | None,
        node_space: str,
        spec: GPUSpec,
        node_size: int,
    ) -> None:
        """Charge all buffered node fetches to the right traffic class."""
        if not self._addr:
            return
        addr = np.concatenate(self._addr)
        active = np.concatenate(self._active)
        if node_space == "global":
            tx, sectors, req = transactions_per_row(
                addr, active, spec.transaction_bytes, node_size
            )
            fetched_rows = sectors * 32
            counters.forest_global.add(
                int(req.sum()), int(fetched_rows.sum()), int(tx.sum()), int(active.sum())
            )
            if level_stats is not None:
                lev = np.concatenate(self._levels)
                mask = lev < level_stats.max_levels
                if mask.any():
                    lv = lev[mask]
                    cap = level_stats.max_levels
                    dist, pairs = adjacent_lane_distances(addr[mask], active[mask])
                    level_stats.distance_sum += np.bincount(
                        lv, weights=dist, minlength=cap
                    )
                    level_stats.pair_count += np.bincount(
                        lv, weights=pairs, minlength=cap
                    ).astype(np.int64)
                    level_stats.requested += np.bincount(
                        lv, weights=req[mask], minlength=cap
                    ).astype(np.int64)
                    level_stats.fetched += np.bincount(
                        lv, weights=fetched_rows[mask], minlength=cap
                    ).astype(np.int64)
        elif node_space == "shared":
            self._flush_shared(counters, node_size)
        else:
            raise ValueError(f"unknown node_space {node_space!r}")

    def flush_sample(
        self, counters: TrafficCounters, sample_space: str, spec: GPUSpec
    ) -> None:
        """Charge all buffered attribute fetches."""
        if not self._addr:
            return
        if sample_space == "global":
            addr = np.concatenate(self._addr)
            active = np.concatenate(self._active)
            tx, sectors, req = transactions_per_row(
                addr, active, spec.transaction_bytes, _ATT_BYTES
            )
            counters.sample_global.add(
                int(req.sum()), int(sectors.sum()) * 32, int(tx.sum()), int(active.sum())
            )
        elif sample_space == "shared":
            self._flush_shared(counters, _ATT_BYTES)
        else:
            raise ValueError(f"unknown sample_space {sample_space!r}")

    def _flush_shared(self, counters: TrafficCounters, access_bytes: int) -> None:
        # Conflict factor f serialises the warp access into f replays:
        # effective bytes moved = requested bytes of the row times f.
        addr = np.concatenate(self._addr)
        active = np.concatenate(self._active)
        factor = bank_conflict_factor(addr, active)
        per_row_req = active.sum(axis=1).astype(np.int64) * access_bytes
        counters.shared_read.add(
            int(per_row_req.sum()),
            int((per_row_req * np.maximum(factor, 1)).sum()),
            int(factor.sum()),
            int(active.sum()),
        )


def _traverse_chunk(
    flat: FlatForest,
    X: np.ndarray,
    sample_rows: np.ndarray,
    tree_of_lane: np.ndarray,
    shared_rows: np.ndarray | None,
    counters: TrafficCounters,
    level_stats: LevelStats | None,
    spec: GPUSpec,
    node_space: str,
    sample_space: str,
    leaf_sum: np.ndarray,
    step_rows: np.ndarray,
    warp_major: bool,
) -> int:
    """Lockstep-traverse one (rows x lanes) tile; returns node visits.

    Args:
        sample_rows: (rows, lanes) sample index per slot, or (rows,) when
            every lane of a row shares the sample (tree-parallel).
        tree_of_lane: (lanes,) layout tree position per lane (-1 = idle)
            for tree-parallel, or a (rows, lanes) matrix when different
            tile rows walk different trees (sample-parallel tree
            stacking).
        shared_rows: shared-memory row index per slot when samples are
            cached in shared memory (None otherwise).
        leaf_sum: per-sample accumulator, indexed by sample row.
        step_rows: per-thread step accumulator (lanes,) for tree-parallel
            or flattened (rows*lanes,) for sample-parallel.
        warp_major: True when the (rows, lanes) tile is already
            warp-shaped (sample-parallel); False when lanes span a whole
            block and must be re-chunked into warps for accounting.

    Rows whose lanes have all finished are compacted out of the live
    tile; all memory accounting is buffered per level and flushed once
    per chunk (see :class:`_AccessBuffer`).
    """
    rows = sample_rows.shape[0]
    lanes = tree_of_lane.shape[0] if tree_of_lane.ndim == 1 else tree_of_lane.shape[1]
    sample_2d = np.ascontiguousarray(
        sample_rows
        if sample_rows.ndim == 2
        else np.broadcast_to(sample_rows[:, None], (rows, lanes))
    )
    tree_2d = np.broadcast_to(tree_of_lane, (rows, lanes))
    alive = (tree_2d >= 0).copy() if tree_2d.base is not None else tree_2d >= 0
    base = flat.offsets[np.maximum(tree_2d, 0)]
    cur = np.zeros((rows, lanes), dtype=np.int64)
    srow_2d = None
    if sample_space == "shared":
        srow = shared_rows if shared_rows is not None else sample_2d
        srow_2d = np.ascontiguousarray(
            srow if srow.ndim == 2 else np.broadcast_to(srow[:, None], (rows, lanes))
        ).astype(np.int64)
    # Per-thread step accounting: tree-parallel sums over tile rows
    # directly; sample-parallel needs the original row ids to survive
    # compaction, so it accumulates into a local tile first.
    local_steps = np.zeros((rows, lanes), dtype=np.int64) if warp_major else None
    row_ids = np.arange(rows, dtype=np.int64)
    node_buf = _AccessBuffer(track_levels=level_stats is not None)
    samp_buf = _AccessBuffer(track_levels=False)
    leaf_idx_parts: list[np.ndarray] = []
    leaf_val_parts: list[np.ndarray] = []
    visits = 0
    level = 0
    n_att = flat.n_attributes
    while alive.any():
        idx = base + cur
        addr = np.where(alive, flat.address[idx], np.int64(-1))
        if warp_major:
            node_buf.append(addr, alive, level)
        else:
            node_buf.append(
                _as_warp_rows(addr, spec.warp_size),
                _as_warp_rows(alive, spec.warp_size),
                level,
            )
        visits += int(alive.sum())
        if warp_major:
            local_steps[row_ids] += alive
        else:
            step_rows += alive.sum(axis=0)
        leaf_here = alive & flat.is_leaf[idx]
        if leaf_here.any():
            if flat.n_groups > 1:
                # Composite (sample, class) index into the flat (n*K,)
                # accumulator — one bincount covers the grouped reduction.
                leaf_idx_parts.append(
                    sample_2d[leaf_here] * flat.n_groups + flat.group[idx[leaf_here]]
                )
            else:
                leaf_idx_parts.append(sample_2d[leaf_here])
            leaf_val_parts.append(flat.value[idx[leaf_here]].astype(np.float64))
        decide = alive & ~leaf_here
        if decide.any():
            feat = np.where(decide, flat.feature[idx], 0)
            if sample_space == "shared":
                s_addr = (srow_2d * n_att + feat) * _ATT_BYTES
            else:
                s_addr = SAMPLE_BASE + (sample_2d.astype(np.int64) * n_att + feat) * _ATT_BYTES
            if warp_major:
                samp_buf.append(s_addr, decide, level)
            else:
                samp_buf.append(
                    _as_warp_rows(s_addr, spec.warp_size),
                    _as_warp_rows(decide, spec.warp_size),
                    level,
                )
            vals = X[sample_2d, feat]
            missing = np.isnan(vals)
            go_left = (vals < flat.threshold[idx]) ^ flat.flip[idx]
            if flat.cat_offset is not None:
                cat = decide & (flat.cat_offset[idx] >= 0)
                if cat.any():
                    cidx = idx[cat]
                    member = category_member(
                        vals[cat], flat.cat_offset[cidx], flat.cat_count[cidx], flat.cat_bits
                    )
                    go_left[cat] = member ^ flat.flip[cidx]
            go_left = np.where(missing, flat.default_left[idx], go_left)
            nxt = np.where(go_left, flat.left[idx], flat.right[idx])
            cur = np.where(decide, nxt, cur)
        alive = decide
        level += 1
        if level > 64:
            raise RuntimeError("traversal exceeded 64 levels; corrupt tree?")
        # Compact finished tile rows out of the live state.
        live = alive.any(axis=1)
        if not live.all():
            keep = np.nonzero(live)[0]
            alive = alive[keep]
            cur = cur[keep]
            base = base[keep]
            sample_2d = sample_2d[keep]
            row_ids = row_ids[keep]
            if srow_2d is not None:
                srow_2d = srow_2d[keep]
    node_buf.flush_node(counters, level_stats, node_space, spec, flat.node_size)
    samp_buf.flush_sample(counters, sample_space, spec)
    if leaf_idx_parts:
        leaf_sum += np.bincount(
            np.concatenate(leaf_idx_parts),
            weights=np.concatenate(leaf_val_parts),
            minlength=leaf_sum.shape[0],
        )
    if warp_major:
        step_rows += local_steps.reshape(-1)
    return visits


def trace_tree_parallel(
    layout: ForestLayout,
    X: np.ndarray,
    sample_rows: np.ndarray,
    assignments: list[np.ndarray],
    spec: GPUSpec,
    node_space: str = "global",
    sample_space: str = "shared",
    shared_batch_rows: np.ndarray | None = None,
    collect_level_stats: bool = False,
    max_levels: int = 32,
    chunk: int = 1024,
) -> TraceResult:
    """Trace FIL's shared-data mapping for one thread block.

    Args:
        layout: forest layout (reorg or adaptive).
        X: full sample matrix (float32).
        sample_rows: row indices of the samples this block processes.
        assignments: per-thread arrays of layout tree positions (from
            :func:`repro.formats.tree_rearrange.round_robin_assignment`).
        spec: GPU model.
        node_space / sample_space: where nodes / samples are read from.
        shared_batch_rows: shared-memory row slot of each sample when
            samples are staged in shared memory (defaults to position in
            the batch).
        collect_level_stats: gather figure 2(a) per-level statistics.
        max_levels: level-stats capacity.
        chunk: samples traversed per vectorised tile.

    The number of threads is ``len(assignments)`` (padded to a warp
    multiple); rounds iterate over each thread's tree list.
    """
    flat = flatten_layout(layout)
    n_threads = len(assignments)
    pad_threads = ((n_threads + spec.warp_size - 1) // spec.warp_size) * spec.warp_size
    n_rounds = max((a.shape[0] for a in assignments), default=0)
    counters = TrafficCounters()
    level_stats = LevelStats(max_levels) if collect_level_stats else None
    leaf_sum = np.zeros(X.shape[0] * flat.n_groups, dtype=np.float64)
    per_thread_steps = np.zeros(pad_threads, dtype=np.int64)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    if shared_batch_rows is None:
        shared_batch_rows = np.arange(sample_rows.shape[0], dtype=np.int64)
    # One padded (n_rounds, pad_threads) assignment matrix up front
    # instead of rebuilding the lane map once per round.
    assign_matrix = np.full((n_rounds, pad_threads), -1, dtype=np.int64)
    for t, assigned in enumerate(assignments):
        assign_matrix[: assigned.shape[0], t] = assigned
    visits = 0
    with span(
        "gpusim.trace_tree_parallel",
        category="kernel",
        samples=int(sample_rows.shape[0]),
        threads=n_threads,
        rounds=n_rounds,
    ) as sp:
        for k in range(n_rounds):
            tree_of_lane = assign_matrix[k]
            for start in range(0, sample_rows.shape[0], chunk):
                rows = sample_rows[start : start + chunk]
                srows = shared_batch_rows[start : start + chunk]
                visits += _traverse_chunk(
                    flat, X, rows, tree_of_lane, srows,
                    counters, level_stats, spec, node_space, sample_space,
                    leaf_sum, per_thread_steps, warp_major=False,
                )
        sp.set(node_visits=visits)
    if flat.n_groups > 1:
        leaf_sum = leaf_sum.reshape(X.shape[0], flat.n_groups)
    return TraceResult(
        leaf_sum=leaf_sum,
        per_thread_steps=per_thread_steps[:n_threads],
        counters=counters,
        level_stats=level_stats,
        node_visits=visits,
    )


def trace_sample_parallel(
    layout: ForestLayout,
    X: np.ndarray,
    sample_rows: np.ndarray,
    tree_positions: np.ndarray,
    spec: GPUSpec,
    node_space: str = "global",
    sample_space: str = "global",
    collect_level_stats: bool = False,
    max_levels: int = 32,
    chunk_warps: int = 64,
    trees_per_tile: int = 8,
) -> TraceResult:
    """Trace the one-sample-per-thread mapping.

    Every thread owns one sample from ``sample_rows`` and walks every tree
    in ``tree_positions`` (the block's tree set — the whole forest for the
    direct and shared-forest strategies, one part for splitting).

    ``trees_per_tile`` trees are stacked into the row dimension of each
    traversal tile, so the Python loop runs ``ceil(n_trees /
    trees_per_tile) x n_chunks`` times instead of once per (tree, chunk)
    pair.  Warp rows stay independent, so all counters are identical to
    the tree-at-a-time loop.
    """
    flat = flatten_layout(layout)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    n = sample_rows.shape[0]
    warp = spec.warp_size
    pad = ((n + warp - 1) // warp) * warp
    padded = np.full(pad, -1, dtype=np.int64)
    padded[:n] = sample_rows
    grid = padded.reshape(-1, warp)
    valid = grid >= 0
    counters = TrafficCounters()
    level_stats = LevelStats(max_levels) if collect_level_stats else None
    leaf_sum = np.zeros(X.shape[0] * flat.n_groups, dtype=np.float64)
    per_thread_steps = np.zeros(pad, dtype=np.int64)
    visits = 0
    tree_positions = np.asarray(tree_positions, dtype=np.int64)
    trees_per_tile = max(1, int(trees_per_tile))
    with span(
        "gpusim.trace_sample_parallel",
        category="kernel",
        samples=n,
        trees=int(tree_positions.shape[0]),
    ) as sp:
        for p0 in range(0, tree_positions.shape[0], trees_per_tile):
            tile_trees = tree_positions[p0 : p0 + trees_per_tile]
            t = tile_trees.shape[0]
            for w0 in range(0, grid.shape[0], chunk_warps):
                rows = grid[w0 : w0 + chunk_warps]
                mask = valid[w0 : w0 + chunk_warps]
                tile_rows = np.tile(rows, (t, 1))
                tree_of_lane = np.where(
                    np.tile(mask, (t, 1)),
                    np.repeat(tile_trees, rows.shape[0])[:, None],
                    np.int64(-1),
                )
                tile_steps = np.zeros(tile_rows.size, dtype=np.int64)
                visits += _traverse_chunk(
                    flat, X, np.maximum(tile_rows, 0), tree_of_lane, None,
                    counters, level_stats, spec, node_space, sample_space,
                    leaf_sum, tile_steps, warp_major=True,
                )
                seg = per_thread_steps[w0 * warp : w0 * warp + rows.size]
                seg += tile_steps.reshape(t, rows.size).sum(axis=0)
        sp.set(node_visits=visits)
    # Padding lanes pointed at sample row 0 but were inactive (tree -1),
    # so leaf_sum is exact; steps for pad threads are zero.
    if flat.n_groups > 1:
        leaf_sum = leaf_sum.reshape(X.shape[0], flat.n_groups)
    return TraceResult(
        leaf_sum=leaf_sum,
        per_thread_steps=per_thread_steps[:n],
        counters=counters,
        level_stats=level_stats,
        node_visits=visits,
    )
