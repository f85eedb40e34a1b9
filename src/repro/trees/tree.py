"""Array-based binary decision tree.

A tree is stored in parallel numpy arrays indexed by node id.  Node 0 is the
root.  Leaves have ``feature == -1`` and child pointers ``-1``.  Every
decision node stores:

* ``feature`` — attribute index tested at the node (``x[feature] < threshold``
  goes left),
* ``threshold`` — split value,
* ``default_left`` — the default path taken when the attribute is missing
  (NaN), matching the paper's "default path" ``D``,
* ``visit_count`` — how many training samples passed through the node; the
  paper's *edge probability* of the left edge at node ``i`` is
  ``visit_count[left[i]] / visit_count[i]``, and the *node probability* is
  ``visit_count[i] / visit_count[0]``,
* ``flip`` — set when probability-based node rearrangement (paper section
  4.1) swapped the node's children: the branch predicate inverts, i.e. a
  sample goes left when ``x[feature] >= threshold``.  The real engine
  stores this bit in the node record; we store it as a parallel array.

Categorical splits (LightGBM's ``decision_type & 1`` nodes) are stored as
bitsets: a node with ``cat_offset[i] >= 0`` tests membership of
``int(x[feature])`` in the set whose ``cat_count[i]`` uint32 words start
at ``cat_bits[cat_offset[i]]``.  Membership routes left before the flip
bit; NaN follows the default path; negative or out-of-range codes are
non-members.  Numeric nodes keep ``cat_offset[i] == -1``, and purely
numeric trees keep ``cat_offset is None`` so the hot paths stay
branch-free.

Multiclass ensembles tag each tree with the class (``group``) its leaf
values contribute to; single-output trees keep the default group 0.

The layout is intentionally decoupled from any on-GPU storage format —
:mod:`repro.formats` flattens trees into reorg / adaptive layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DecisionTree", "LEAF", "category_member"]

#: Sentinel used in ``feature``/``left``/``right`` for leaves.
LEAF = -1


def category_member(vals, offset, count, bits: np.ndarray) -> np.ndarray:
    """Bitset membership of the category codes ``int(vals)``.

    ``offset`` / ``count`` (broadcast against ``vals``) locate each
    code's bitset: ``count`` uint32 words of ``bits`` from ``offset``.
    NaN, infinite, negative and past-the-bitset codes are non-members,
    and the range is checked in float64 *before* the int64 cast, so a
    huge code never reaches a platform-defined conversion — the rule
    the C kernel and the scalar reference follow.
    """
    v = np.asarray(vals, dtype=np.float64)
    valid = np.isfinite(v) & (v >= 0) & (v < 32 * np.asarray(count, dtype=np.int64))
    code = np.where(valid, v, 0.0).astype(np.int64)
    words = bits.take(offset + (code >> 5))
    return valid & (((words.astype(np.int64) >> (code & 31)) & 1) == 1)


@dataclass
class DecisionTree:
    """A binary decision tree over float features.

    All arrays share length ``n_nodes``.  Construction validates structural
    invariants (single root, acyclic child pointers, leaves consistent).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    visit_count: np.ndarray
    flip: np.ndarray | None = None
    group: int = 0
    cat_offset: np.ndarray | None = None
    cat_count: np.ndarray | None = None
    cat_bits: np.ndarray | None = None
    validate_on_init: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float32)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.float32)
        self.default_left = np.asarray(self.default_left, dtype=bool)
        self.visit_count = np.asarray(self.visit_count, dtype=np.int64)
        if self.flip is None:
            self.flip = np.zeros(self.feature.shape[0], dtype=bool)
        else:
            self.flip = np.asarray(self.flip, dtype=bool)
        self.group = int(self.group)
        if self.cat_offset is not None:
            self.cat_offset = np.asarray(self.cat_offset, dtype=np.int64)
            self.cat_count = np.asarray(self.cat_count, dtype=np.int32)
            self.cat_bits = np.asarray(
                self.cat_bits if self.cat_bits is not None else [], dtype=np.uint32
            )
        if self.validate_on_init:
            self.validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean mask of leaf nodes."""
        return self.feature == LEAF

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.is_leaf))

    @property
    def has_categorical(self) -> bool:
        """True when any node tests bitset membership."""
        return self.cat_offset is not None and bool((self.cat_offset >= 0).any())

    @property
    def is_categorical(self) -> np.ndarray:
        """Boolean mask of categorical decision nodes."""
        if self.cat_offset is None:
            return np.zeros(self.n_nodes, dtype=bool)
        return self.cat_offset >= 0

    def cat_member(self, nodes: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Bitset membership of ``int(vals)`` at categorical ``nodes``.

        NaN, negative, and out-of-range codes are non-members (LightGBM's
        routing: only codes present in the stored set go left).
        """
        nodes = np.asarray(nodes)
        return category_member(
            vals, self.cat_offset[nodes], self.cat_count[nodes], self.cat_bits
        )

    def depth(self) -> int:
        """Depth of the tree: number of edges on the longest root→leaf path."""
        depths = self.node_depths()
        return int(depths.max()) if depths.size else 0

    def node_depths(self) -> np.ndarray:
        """Depth of every node (root = 0), computed by BFS."""
        depths = np.full(self.n_nodes, -1, dtype=np.int32)
        depths[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for node in frontier:
                for child in (self.left[node], self.right[node]):
                    if child != LEAF:
                        depths[child] = depths[node] + 1
                        nxt.append(int(child))
            frontier = nxt
        return depths

    def parents(self) -> np.ndarray:
        """Parent index of every node (root gets -1)."""
        parent = np.full(self.n_nodes, -1, dtype=np.int32)
        for node in range(self.n_nodes):
            for child in (self.left[node], self.right[node]):
                if child != LEAF:
                    parent[child] = node
        return parent

    # ------------------------------------------------------------------
    # Probabilities (paper section 2)
    # ------------------------------------------------------------------
    def edge_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p_left, p_right)`` per node.

        ``p_left[i]`` is the probability that a sample at decision node
        ``i`` takes the left edge, estimated from training visit counts.
        Leaves get 0.  Nodes never visited during training get 0.5/0.5.
        """
        p_left = np.zeros(self.n_nodes, dtype=np.float64)
        p_right = np.zeros(self.n_nodes, dtype=np.float64)
        decision = ~self.is_leaf
        idx = np.nonzero(decision)[0]
        for i in idx:
            total = self.visit_count[i]
            if total <= 0:
                p_left[i] = p_right[i] = 0.5
            else:
                p_left[i] = self.visit_count[self.left[i]] / total
                p_right[i] = self.visit_count[self.right[i]] / total
        return p_left, p_right

    def node_probabilities(self) -> np.ndarray:
        """Probability that each node is visited (root = 1.0).

        Computed as the product of edge probabilities from the root, which
        by construction equals ``visit_count[i] / visit_count[0]`` when
        counts are consistent.
        """
        prob = np.zeros(self.n_nodes, dtype=np.float64)
        prob[0] = 1.0
        p_left, p_right = self.edge_probabilities()
        frontier = [0]
        while frontier:
            nxt = []
            for node in frontier:
                lo, hi = self.left[node], self.right[node]
                if lo != LEAF:
                    prob[lo] = prob[node] * p_left[node]
                    nxt.append(int(lo))
                if hi != LEAF:
                    prob[hi] = prob[node] * p_right[node]
                    nxt.append(int(hi))
            frontier = nxt
        return prob

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised prediction for a batch of samples.

        NaN attribute values follow the node's default path, matching the
        paper's missing-value semantics.
        """
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        node = np.zeros(X.shape[0], dtype=np.int32)
        active = ~self.is_leaf[node]
        while np.any(active):
            cur = node[active]
            feat = self.feature[cur]
            vals = X[np.nonzero(active)[0], feat]
            missing = np.isnan(vals)
            go_left = (vals < self.threshold[cur]) ^ self.flip[cur]
            if self.cat_offset is not None:
                cat = self.cat_offset[cur] >= 0
                if cat.any():
                    member = self.cat_member(cur[cat], vals[cat])
                    go_left[cat] = member ^ self.flip[cur[cat]]
            go_left = np.where(missing, self.default_left[cur], go_left)
            nxt = np.where(go_left, self.left[cur], self.right[cur])
            node[active] = nxt
            active = ~self.is_leaf[node]
        return self.value[node]

    def decision_path(self, x: np.ndarray) -> list[int]:
        """Node ids on the root→leaf path taken by a single sample."""
        x = np.asarray(x, dtype=np.float32)
        path = [0]
        node = 0
        while self.feature[node] != LEAF:
            v = x[self.feature[node]]
            if np.isnan(v):
                go_left = bool(self.default_left[node])
            elif self.cat_offset is not None and self.cat_offset[node] >= 0:
                member = bool(self.cat_member(np.array([node]), np.array([v]))[0])
                go_left = member ^ bool(self.flip[node])
            else:
                go_left = bool(v < self.threshold[node]) ^ bool(self.flip[node])
            node = int(self.left[node] if go_left else self.right[node])
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # Traversal helpers used by formats / hashing
    # ------------------------------------------------------------------
    def level_order(self) -> list[list[int]]:
        """Node ids grouped by depth (BFS levels), children in (left, right) order."""
        levels: list[list[int]] = [[0]]
        while True:
            nxt: list[int] = []
            for node in levels[-1]:
                for child in (self.left[node], self.right[node]):
                    if child != LEAF:
                        nxt.append(int(child))
            if not nxt:
                return levels
            levels.append(nxt)

    def root_to_leaf_paths(self) -> list[list[int]]:
        """All root→leaf paths as lists of node ids (preorder of leaves)."""
        paths: list[list[int]] = []
        stack: list[tuple[int, list[int]]] = [(0, [0])]
        while stack:
            node, path = stack.pop()
            if self.feature[node] == LEAF:
                paths.append(path)
                continue
            # Push right first so left paths are emitted first.
            stack.append((int(self.right[node]), path + [int(self.right[node])]))
            stack.append((int(self.left[node]), path + [int(self.left[node])]))
        return paths

    def copy(self) -> "DecisionTree":
        return DecisionTree(
            feature=self.feature.copy(),
            threshold=self.threshold.copy(),
            left=self.left.copy(),
            right=self.right.copy(),
            value=self.value.copy(),
            default_left=self.default_left.copy(),
            visit_count=self.visit_count.copy(),
            flip=self.flip.copy(),
            group=self.group,
            cat_offset=None if self.cat_offset is None else self.cat_offset.copy(),
            cat_count=None if self.cat_count is None else self.cat_count.copy(),
            cat_bits=None if self.cat_bits is None else self.cat_bits.copy(),
            validate_on_init=False,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("tree must have at least one node")
        lengths = {
            "threshold": self.threshold.shape[0],
            "left": self.left.shape[0],
            "right": self.right.shape[0],
            "value": self.value.shape[0],
            "default_left": self.default_left.shape[0],
            "visit_count": self.visit_count.shape[0],
            "flip": self.flip.shape[0],
        }
        if self.cat_offset is not None:
            lengths["cat_offset"] = self.cat_offset.shape[0]
            lengths["cat_count"] = self.cat_count.shape[0]
        for name, length in lengths.items():
            if length != n:
                raise ValueError(f"array {name} has length {length}, expected {n}")
        if self.group < 0:
            raise ValueError(f"tree group must be >= 0, got {self.group}")
        if self.cat_offset is not None:
            cat = self.cat_offset >= 0
            if (cat & self.is_leaf).any():
                raise ValueError("leaf nodes cannot carry categorical bitsets")
            if (self.cat_count[cat] < 1).any():
                raise ValueError("categorical nodes need at least one bitset word")
            ends = self.cat_offset[cat] + self.cat_count[cat]
            if cat.any() and int(ends.max()) > self.cat_bits.shape[0]:
                raise ValueError("categorical bitset extends past cat_bits pool")
        is_leaf = self.is_leaf
        for node in range(n):
            lo, hi = int(self.left[node]), int(self.right[node])
            if is_leaf[node]:
                if lo != LEAF or hi != LEAF:
                    raise ValueError(f"leaf {node} has children ({lo}, {hi})")
            else:
                if not (0 <= lo < n and 0 <= hi < n):
                    raise ValueError(f"node {node} has out-of-range child ({lo}, {hi})")
                if lo == node or hi == node:
                    raise ValueError(f"node {node} is its own child")
                if self.feature[node] < 0:
                    raise ValueError(f"decision node {node} has negative feature index")
        # Every non-root node must be reachable exactly once (tree, not DAG).
        seen = np.zeros(n, dtype=np.int32)
        for node in range(n):
            for child in (self.left[node], self.right[node]):
                if child != LEAF:
                    seen[child] += 1
        if seen[0] != 0:
            raise ValueError("root has a parent")
        bad = np.nonzero(seen[1:] != 1)[0] + 1
        if bad.size:
            raise ValueError(f"nodes {bad.tolist()} are not reachable exactly once")

    @staticmethod
    def single_leaf(value: float, visit_count: int = 1) -> "DecisionTree":
        """A degenerate one-node tree (useful for tests and trivial fits)."""
        return DecisionTree(
            feature=np.array([LEAF], dtype=np.int32),
            threshold=np.array([0.0], dtype=np.float32),
            left=np.array([LEAF], dtype=np.int32),
            right=np.array([LEAF], dtype=np.int32),
            value=np.array([value], dtype=np.float32),
            default_left=np.array([True]),
            visit_count=np.array([visit_count], dtype=np.int64),
        )
