"""Tahoe engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ObsConfig", "TahoeConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (see :mod:`repro.obs`).

    Attributes:
        tracing: record spans through conversion, selection, the chosen
            strategy and the simulated kernel loop.  Off by default —
            every span costs a clock read and an allocation; disabled
            tracing is a shared no-op context manager.
    """

    tracing: bool = False


@dataclass(frozen=True)
class TahoeConfig:
    """Knobs of the Tahoe engine.

    Defaults are the paper's (section 7.1: ``T_nodes=4``, ``L_hash=128``,
    ``M=64``; all three format techniques on; LSH-based similarity).

    Attributes:
        t_nodes: nodes per SimHash token.
        l_hash: SimHash checksum length in bits.
        m_chunks: LSH chunk count.
        node_rearrangement: apply probability-based child swapping.
        tree_rearrangement: apply similarity-based tree ordering.
        variable_width: use the just-wide-enough attribute index.
        similarity_method: ``"lsh"`` (online) or ``"pairwise"`` (exact,
            quadratic — the section 7.4 baseline).
        node_width: packed node-word width — ``None`` (legacy separate
            flags byte, the default), ``"auto"`` (narrowest of 8/16/32
            bits whose fid capacity covers the forest, like
            ``encode_node_adaptive``), or an explicit ``8``/``16``/``32``.
        threshold_mode: float-field storage for packed records —
            ``"f32"`` (lossless default), ``"f16"``, ``"q8"``, ``"q16"``
            (nextafter-safe ceil-quantised thresholds).  Only meaningful
            when ``node_width`` is set.
        strategy_override: force a strategy by name instead of using the
            performance models (ablation hook).
        count_edge_probabilities: blend inference-time routing back into
            the forest's visit counts (Algorithm 1 line 16), so the next
            conversion reflects the inference distribution.
        edge_count_decay: blending factor for the above.
        obs: observability toggles (span tracing).
    """

    t_nodes: int = 4
    l_hash: int = 128
    m_chunks: int = 64
    node_rearrangement: bool = True
    tree_rearrangement: bool = True
    variable_width: bool = True
    similarity_method: str = "lsh"
    node_width: int | str | None = None
    threshold_mode: str = "f32"
    strategy_override: str | None = None
    count_edge_probabilities: bool = False
    edge_count_decay: float = 0.9
    obs: ObsConfig = field(default_factory=ObsConfig)

    def conversion_key(self) -> tuple:
        """The knobs the conversion pipeline's output depends on.

        Hashable; part of the :class:`~repro.core.cache.LayoutCache`
        key.  Runtime-only knobs (strategy override, observability,
        edge counting) deliberately excluded — they never change the
        layout.
        """
        key = (
            self.t_nodes,
            self.l_hash,
            self.m_chunks,
            self.node_rearrangement,
            self.tree_rearrangement,
            self.variable_width,
            self.similarity_method,
        )
        # Appended only when packing is requested, so legacy keys (and
        # the artifacts that embed them) are untouched.
        if self.node_width is not None:
            key += ("node_encoding", str(self.node_width), self.threshold_mode)
        return key
