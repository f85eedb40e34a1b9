"""Exact TreeSHAP over a :class:`~repro.explain.paths.PathSet`.

This is the workload the explain strategies simulate and the native
backend times: for every (sample, path) pair, run the Shapley
permutation-weight recurrences of Lundberg et al.'s TreeSHAP restricted
to that single path (the GPUTreeShap decomposition), and scatter-add
each unique feature's contribution into the attribution matrix.

Two kernels compute the same bits.  The compiled one
(:func:`repro.core.ckernel.shap`) runs whenever its library loaded; the
numpy kernel here serves without a C compiler and is the specification
the C code follows operation for operation.  The numpy kernel is
batch-vectorised the same way the simulator's traversal kernel is: samples form the trailing axis of every intermediate, paths
of equal unique-depth are processed as one array group (the GPU analogy
is one warp shape per depth bucket), and the EXTEND/UNWIND recurrences
run as ``d``-step loops over ``(paths_in_group, samples)`` matrices.

Exactness: attributions satisfy the SHAP *efficiency* axiom by
construction —

    ``base_values[k] + Σ_f phi[i, f, k] == raw margin of sample i``

up to float64 rounding, where the raw margin is the engine's pre-link
prediction (leaf sums after learning-rate / averaging finalisation but
before sigmoid/softmax).
"""

from __future__ import annotations

import numpy as np

from repro.core import ckernel
from repro.explain.paths import PathSet

__all__ = ["compute_shap", "shap_check_efficiency"]

#: Samples per kernel chunk.  Keeps the (E, chunk) edge-satisfaction
#: matrix and the (P_d, d+1, chunk) recurrence state in cache-friendly
#: territory without launching per-sample Python work.
DEFAULT_CHUNK = 1024


def _edge_satisfaction(ps: PathSet, X: np.ndarray) -> np.ndarray:
    """(E, c) bool: does each sample take each edge's direction?"""
    v = X.T[ps.edge_feature]  # (E, c) attribute values, float32
    go = (v < ps.edge_threshold[:, None]) ^ ps.edge_flip[:, None]
    cat = ps.edge_cat_offset >= 0
    if cat.any():
        vv = v[cat].astype(np.float64)
        code = np.where(np.isfinite(vv) & (vv >= 0), vv, -1.0).astype(np.int64)
        word = code >> 5
        valid = (code >= 0) & (
            word < ps.edge_cat_count[cat][:, None].astype(np.int64)
        )
        slot = ps.edge_cat_offset[cat][:, None] + np.where(valid, word, 0)
        bits = ps.cat_bits[slot].astype(np.int64)
        member = valid & (((bits >> (code & 31)) & 1) == 1)
        go[cat] = member ^ ps.edge_flip[cat][:, None]
    missing = np.isnan(v)
    go = np.where(missing, ps.edge_default_left[:, None], go)
    return go == ps.edge_expect_left[:, None]


def compute_shap(
    ps: PathSet, X: np.ndarray, chunk: int = DEFAULT_CHUNK
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-feature SHAP values for every sample.

    Returns ``(phi, base_values, margins)`` where ``phi`` has shape
    ``(n, n_features, n_classes)``, ``base_values`` is the float64
    per-class expected margin, and ``margins`` is the reconstructed raw
    margin ``base_values + phi.sum(axis=1)`` (shape ``(n, K)``).  Runs
    the compiled kernel (:func:`repro.core.ckernel.shap`) when it loaded
    and the numpy kernel otherwise; the two agree bit for bit.  ``chunk``
    bounds the numpy kernel's working set (samples per pass).
    """
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] < ps.n_features:
        raise ValueError(
            f"X has {X.shape[1]} columns but the forest needs {ps.n_features}"
        )
    n = X.shape[0]
    if ckernel.available():
        phi = ckernel.shap(ps, X)
    else:
        phi = _shap_numpy(ps, X, chunk)
    phi = phi.reshape(n, ps.n_features, ps.n_classes)
    margins = ps.base_values[None, :] + phi.sum(axis=1)
    return phi, ps.base_values.copy(), margins


def _shap_numpy(ps: PathSet, X: np.ndarray, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """The vectorised numpy kernel: ``(n, n_features * n_classes)``
    attributions of float32 ``X``, ``chunk`` samples at a time."""
    n = X.shape[0]
    F, K = ps.n_features, ps.n_classes
    phi = np.zeros((n, F * K), dtype=np.float64)
    depths = np.diff(ps.path_slot_start)
    groups: dict[int, np.ndarray] = {}
    for d in np.unique(depths):
        groups[int(d)] = np.nonzero(depths == d)[0]

    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        Xc = X[start:stop]
        c = stop - start
        e_sat = _edge_satisfaction(ps, Xc)
        # Segmented AND over each slot's contiguous edge run.
        slot_sat = np.minimum.reduceat(
            e_sat.astype(np.uint8), ps.slot_edge_start[:-1], axis=0
        ).astype(np.float64)
        phi_c = phi[start:stop]
        for d, pidx in groups.items():
            if d == 0:
                continue  # leaf-only prior paths contribute base only
            sidx = ps.path_slot_start[pidx][:, None] + np.arange(d)
            z = ps.slot_zero[sidx]  # (P_d, d)
            o = slot_sat[sidx.ravel()].reshape(len(pidx), d, c)
            val = ps.path_value[pidx]  # (P_d,)

            # EXTEND: grow the permutation-weight polynomial one unique
            # feature at a time.  m[:, i, :] holds the weight of subsets
            # of size i among the features added so far.
            m = np.zeros((len(pidx), d + 1, c), dtype=np.float64)
            m[:, 0, :] = 1.0
            for k in range(1, d + 1):
                zk = z[:, k - 1][:, None]
                ok = o[:, k - 1, :]
                for i in range(k - 1, -1, -1):
                    m[:, i + 1, :] += ok * m[:, i, :] * ((i + 1) / (k + 1))
                    m[:, i, :] *= zk * ((k - i) / (k + 1))

            # UNWIND each feature j out of the polynomial and sum the
            # permutation weights it leaves behind.
            for j in range(d):
                zj = z[:, j][:, None]
                oj = o[:, j, :]
                one = oj > 0.5
                next_one = m[:, d, :]
                total = np.zeros((len(pidx), c), dtype=np.float64)
                for i in range(d - 1, -1, -1):
                    tmp = next_one * ((d + 1) / (i + 1))
                    tot1 = total + tmp
                    next1 = m[:, i, :] - tmp * zj * ((d - i) / (d + 1))
                    tot0 = total + m[:, i, :] / (zj * ((d - i) / (d + 1)))
                    total = np.where(one, tot1, tot0)
                    next_one = np.where(one, next1, next_one)
                contrib = (oj - zj) * val[:, None] * total  # (P_d, c)
                cols = (
                    ps.slot_feature[sidx[:, j]].astype(np.int64) * K
                    + ps.path_group[pidx]
                )
                np.add.at(phi_c, (slice(None), cols), contrib.T)

    return phi


def shap_check_efficiency(
    ps: PathSet, phi: np.ndarray, raw_margin: np.ndarray, rtol: float = 1e-9
) -> None:
    """Assert the efficiency axiom against an engine's raw margin."""
    margin = np.asarray(raw_margin, dtype=np.float64)
    if margin.ndim == 1:
        margin = margin[:, None]
    recon = ps.base_values[None, :] + phi.sum(axis=1)
    np.testing.assert_allclose(recon, margin, rtol=rtol, atol=1e-9)
