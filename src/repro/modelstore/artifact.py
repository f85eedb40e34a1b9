"""The packed ``.tahoe`` deployment artifact.

Tahoe's conversion pipeline (probability fetch → node rearrangement →
similarity ordering → adaptive format build) runs *online*, every time an
engine starts — acceptable in the paper's single-process experiments,
wasteful in a serving fleet where the same forest boots on many replicas.
PACSET makes the case for persisting the optimised layout itself; this
module applies that to Tahoe's format: pack the **finished**
:class:`~repro.formats.layout.ForestLayout` (trees already rearranged and
flip-bit annotated, trees already in similarity order, record already
width-sized) into one file, and loading it hands
``TahoeEngine.from_layout`` / ``FILEngine.from_layout`` a servable engine
with zero conversion work.

File format (all integers little-endian)::

    8 bytes   magic  b"TAHOEPK\\0"
    4 bytes   u32 header length H
    H bytes   JSON header: artifact/schema versions, engine kind, GPU
              spec name, conversion key, the source forest's
              fingerprint (the LayoutCache key), forest + layout
              scalars, and a section table
    ...       raw sections, each a contiguous little-endian ndarray,
              crc32-checksummed individually

The header stores the **source** forest's fingerprint (the forest as it
looked *before* conversion), so the packed layout can be published into a
:class:`~repro.core.cache.LayoutCache` under the exact key a cold engine
built from the original JSON would look up.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.formats.layout import ForestLayout, NodeRecordLayout
from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "PackedModel",
    "load_packed",
    "pack_forest",
    "pack_layout",
]

ARTIFACT_MAGIC = b"TAHOEPK\x00"
#: Current writer version.  v2 added multiclass tree groups and optional
#: per-tree categorical bitset sections; v3 adds packed node encodings —
#: layouts with a packed record store ``tree{i}/words`` (the bit-packed
#: fid+flags node word) plus ``tree{i}/tfield``/``tree{i}/vfield`` (the
#: possibly-narrowed float fields) *instead of* the five legacy sections
#: (feature/threshold/value/default_left/flip), so artifacts genuinely
#: shrink on disk.  v1/v2 files still load; legacy-record layouts still
#: write the legacy sections.
ARTIFACT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

#: Optional per-tree categorical sections (written only when present).
_CAT_FIELDS = (
    ("cat_offset", np.int64),
    ("cat_count", np.int32),
    ("cat_bits", np.uint32),
)

#: Tree arrays serialised per tree, in section order.
_TREE_FIELDS = (
    ("feature", np.int32),
    ("threshold", np.float32),
    ("left", np.int32),
    ("right", np.int32),
    ("value", np.float32),
    ("default_left", np.uint8),
    ("visit_count", np.int64),
    ("flip", np.uint8),
)

#: Tree arrays a *packed*-record layout serialises instead of the five
#: node-level `_TREE_FIELDS` entries it supersedes (v3 artifacts).
_PACKED_STRUCT_FIELDS = (
    ("left", np.int32),
    ("right", np.int32),
    ("visit_count", np.int64),
)


class ArtifactError(ValueError):
    """A ``.tahoe`` file is malformed, corrupt, or from the future."""


class _SectionWriter:
    """Accumulates named ndarray sections and their table entries."""

    def __init__(self) -> None:
        self.blobs: list[bytes] = []
        self.table: list[dict] = []
        self._offset = 0

    def add(self, name: str, arr: np.ndarray, dtype: type) -> None:
        data = np.ascontiguousarray(
            arr, dtype=np.dtype(dtype).newbyteorder("<")
        ).tobytes()
        self.table.append(
            {
                "name": name,
                "dtype": np.dtype(dtype).name,
                "offset": self._offset,
                "length": len(data),
                "crc32": zlib.crc32(data),
            }
        )
        self.blobs.append(data)
        self._offset += len(data)


class _SectionReader:
    """Validates and decodes sections against the header table."""

    def __init__(self, body: bytes, table: list[dict]) -> None:
        self._body = body
        self._by_name = {entry["name"]: entry for entry in table}

    def has(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> np.ndarray:
        entry = self._by_name.get(name)
        if entry is None:
            raise ArtifactError(f"artifact is missing section {name!r}")
        chunk = self._body[entry["offset"] : entry["offset"] + entry["length"]]
        if len(chunk) != entry["length"]:
            raise ArtifactError(f"section {name!r} is truncated")
        if zlib.crc32(chunk) != entry["crc32"]:
            raise ArtifactError(f"section {name!r} failed its crc32 check")
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        arr = np.frombuffer(chunk, dtype=dtype)
        return arr.astype(dtype.newbyteorder("="))  # native, writable


def _json_safe_metadata(metadata: dict) -> dict:
    """Layout metadata minus runtime caches: keys starting with ``_``
    (e.g. the flattened device image) and values JSON cannot carry."""
    safe = {}
    for key, value in metadata.items():
        if key.startswith("_"):
            continue
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


def _tupleize(value):
    """JSON round-trips tuples as lists; restore them recursively."""
    if isinstance(value, list):
        return tuple(_tupleize(v) for v in value)
    return value


def pack_layout(
    layout: ForestLayout,
    path: str | Path,
    *,
    engine: str,
    spec_name: str,
    conversion_key: tuple,
    source_fingerprint: str,
) -> "PackedModel":
    """Serialise a finished layout to ``path`` as a ``.tahoe`` artifact.

    Args:
        layout: the converted layout to persist.
        engine: ``"tahoe"`` or ``"fil"`` — which engine the layout's
            format belongs to.
        spec_name: GPU spec the layout targets (recorded; the strategy
            ranking depends on it only at predict time).
        conversion_key: the config half of the layout-cache key.
        source_fingerprint: ``Forest.fingerprint()`` of the forest as it
            was *before* conversion — the content half of the cache key.
    """
    forest = layout.forest
    writer = _SectionWriter()
    packed = layout.record.packed
    if packed:
        from repro.formats.encoding import NodeEncoding, encode_field, pack_node_words

        encoding = NodeEncoding(8 * layout.record.attr_bytes, layout.record.threshold_mode)
        nmeta = layout.metadata.get("node_encoding") or {}
        tgrid = tuple(nmeta["tgrid"]) if nmeta.get("tgrid") else None
        vgrid = tuple(nmeta["vgrid"]) if nmeta.get("vgrid") else None
        mode = encoding.threshold_mode
    for i, tree in enumerate(forest.trees):
        if packed:
            # The forest's floats are already the codec's decoded images
            # (decode-at-build), so this re-encode is a bit-exact fixed
            # point: load_packed reproduces the arrays exactly.
            writer.add(f"tree{i}/words", pack_node_words(tree, encoding), encoding.word_dtype)
            writer.add(
                f"tree{i}/tfield",
                encode_field(tree.threshold, mode, tgrid, rounding="ceil"),
                encoding.field_dtype,
            )
            writer.add(
                f"tree{i}/vfield",
                encode_field(tree.value, mode, vgrid, rounding="nearest"),
                encoding.field_dtype,
            )
            for field, dtype in _PACKED_STRUCT_FIELDS:
                writer.add(f"tree{i}/{field}", getattr(tree, field), dtype)
        else:
            for field, dtype in _TREE_FIELDS:
                writer.add(f"tree{i}/{field}", getattr(tree, field), dtype)
        if tree.cat_offset is not None:
            for field, dtype in _CAT_FIELDS:
                writer.add(f"tree{i}/{field}", getattr(tree, field), dtype)
        writer.add(f"tree{i}/address", layout.node_address[i], np.int64)
    writer.add("tree_order", np.asarray(layout.tree_order), np.int64)
    writer.add("level_base", layout.level_base, np.int64)
    writer.add("level_slots", layout.level_slots, np.int64)

    header = {
        "artifact_version": ARTIFACT_VERSION,
        "engine": engine,
        "spec_name": spec_name,
        "conversion_key": list(conversion_key),
        "source_fingerprint": source_fingerprint,
        "forest": {
            "n_trees": forest.n_trees,
            "tree_nodes": [tree.n_nodes for tree in forest.trees],
            "n_classes": forest.n_classes,
            "tree_groups": [tree.group for tree in forest.trees],
            "n_attributes": forest.n_attributes,
            "task": forest.task,
            "aggregation": forest.aggregation,
            "base_score": forest.base_score,
            "learning_rate": forest.learning_rate,
            "name": forest.name,
            "metadata": _json_safe_metadata(forest.metadata),
        },
        "layout": {
            "format_name": layout.format_name,
            "total_bytes": layout.total_bytes,
            "record": {
                "attr_bytes": layout.record.attr_bytes,
                "threshold_bytes": layout.record.threshold_bytes,
                "flags_bytes": layout.record.flags_bytes,
                "packed": layout.record.packed,
                "threshold_mode": layout.record.threshold_mode,
            },
            "metadata": _json_safe_metadata(layout.metadata),
        },
        "sections": writer.table,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARTIFACT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in writer.blobs:
            fh.write(blob)
    return PackedModel(header=header, layout=layout, path=Path(path))


def pack_forest(
    forest: Forest,
    spec,
    path: str | Path,
    *,
    engine: str = "tahoe",
    config=None,
) -> "PackedModel":
    """Convert ``forest`` for ``spec`` and pack the result in one step.

    This is the offline half of the deployment story: run the full
    conversion pipeline once (exactly as a cold engine would), then
    persist its output so every later engine start skips it.
    """
    from repro.core import engine_class

    if engine not in ("tahoe", "fil"):
        raise ArtifactError(f"unknown engine kind {engine!r} (need tahoe or fil)")
    built = engine_class(None, engine)(forest, spec, config=config)
    return pack_layout(
        built.layout,
        path,
        engine=engine,
        spec_name=spec.name,
        conversion_key=built.conversion_key(),
        source_fingerprint=forest.fingerprint(),
    )


def load_packed(path: str | Path) -> "PackedModel":
    """Read and verify a ``.tahoe`` artifact.

    Every section's crc32 is checked; the layout is rebuilt exactly as
    packed (tree validation is skipped — the arrays were valid when
    written and are checksummed on the way back in).

    Raises:
        ArtifactError: bad magic, unsupported version, truncation, or a
            checksum mismatch.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(ARTIFACT_MAGIC) + 4 or raw[: len(ARTIFACT_MAGIC)] != ARTIFACT_MAGIC:
        raise ArtifactError(
            f"{path} is not a .tahoe artifact (bad magic); pack one with "
            "`repro pack` or modelstore.pack_forest"
        )
    (header_len,) = struct.unpack_from("<I", raw, len(ARTIFACT_MAGIC))
    header_start = len(ARTIFACT_MAGIC) + 4
    header_end = header_start + header_len
    if len(raw) < header_end:
        raise ArtifactError(f"{path} is truncated inside its header")
    try:
        header = json.loads(raw[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path} has a corrupt header: {exc}") from exc
    version = header.get("artifact_version")
    if version not in _READABLE_VERSIONS:
        raise ArtifactError(
            f"{path} has artifact version {version!r}; this build reads "
            f"versions {_READABLE_VERSIONS}"
        )
    reader = _SectionReader(raw[header_end:], header["sections"])

    fmeta = header["forest"]
    lmeta = header["layout"]
    record = NodeRecordLayout(**lmeta["record"])
    if record.packed:
        from repro.formats.encoding import NodeEncoding, decode_field, unpack_node_words

        encoding = NodeEncoding(8 * record.attr_bytes, record.threshold_mode)
        nmeta = lmeta.get("metadata", {}).get("node_encoding") or {}
        tgrid = tuple(nmeta["tgrid"]) if nmeta.get("tgrid") else None
        vgrid = tuple(nmeta["vgrid"]) if nmeta.get("vgrid") else None
    tree_groups = fmeta.get("tree_groups") or [0] * fmeta["n_trees"]
    trees = []
    for i in range(fmeta["n_trees"]):
        if record.packed:
            unpacked = unpack_node_words(reader.get(f"tree{i}/words"), encoding)
            fields = {
                field: reader.get(f"tree{i}/{field}")
                for field, _ in _PACKED_STRUCT_FIELDS
            }
            fields.update(
                feature=unpacked["feature"],
                threshold=decode_field(
                    reader.get(f"tree{i}/tfield"), record.threshold_mode, tgrid
                ),
                value=decode_field(
                    reader.get(f"tree{i}/vfield"), record.threshold_mode, vgrid
                ),
                default_left=unpacked["default_left"],
                flip=unpacked["flip"],
            )
        else:
            fields = {
                field: reader.get(f"tree{i}/{field}") for field, _ in _TREE_FIELDS
            }
        cats = {}
        if reader.has(f"tree{i}/cat_offset"):
            cats = {
                field: reader.get(f"tree{i}/{field}") for field, _ in _CAT_FIELDS
            }
        trees.append(
            DecisionTree(
                feature=fields["feature"],
                threshold=fields["threshold"],
                left=fields["left"],
                right=fields["right"],
                value=fields["value"],
                default_left=np.asarray(fields["default_left"]).astype(bool),
                visit_count=fields["visit_count"],
                flip=np.asarray(fields["flip"]).astype(bool),
                group=int(tree_groups[i]),
                validate_on_init=False,
                **cats,
            )
        )
    forest = Forest(
        trees=trees,
        n_attributes=int(fmeta["n_attributes"]),
        n_classes=int(fmeta.get("n_classes", 1) or 1),
        task=fmeta["task"],
        aggregation=fmeta["aggregation"],
        base_score=float(fmeta["base_score"]),
        learning_rate=float(fmeta["learning_rate"]),
        name=fmeta.get("name", "forest"),
        metadata=dict(fmeta.get("metadata", {})),
    )
    layout = ForestLayout(
        forest=forest,
        record=record,
        tree_order=[int(v) for v in reader.get("tree_order")],
        node_address=[reader.get(f"tree{i}/address") for i in range(fmeta["n_trees"])],
        level_base=reader.get("level_base"),
        level_slots=reader.get("level_slots"),
        total_bytes=int(lmeta["total_bytes"]),
        format_name=lmeta["format_name"],
        metadata=dict(lmeta.get("metadata", {})),
    )
    return PackedModel(header=header, layout=layout, path=Path(path))


@dataclass
class PackedModel:
    """A loaded (or just-written) ``.tahoe`` artifact.

    Attributes:
        header: the decoded JSON header (section table included).
        layout: the reconstructed, ready-to-serve layout.
        path: where the artifact lives on disk.
    """

    header: dict
    layout: ForestLayout
    path: Path

    @property
    def engine_kind(self) -> str:
        return self.header["engine"]

    @property
    def spec_name(self) -> str:
        return self.header["spec_name"]

    @property
    def source_fingerprint(self) -> str:
        return self.header["source_fingerprint"]

    @property
    def conversion_key(self) -> tuple:
        return _tupleize(self.header["conversion_key"])

    @property
    def cache_key(self) -> tuple:
        """The :class:`~repro.core.cache.LayoutCache` key a cold engine
        built from the *source* forest would compute."""
        return (self.source_fingerprint, self.spec_name, self.conversion_key)

    @property
    def node_encoding(self) -> str:
        """On-disk node-record label (``w8/f32``, ``legacy-a1``, ...)."""
        return self.layout.record.encoding_label

    def section_sizes(self) -> dict[str, int]:
        """On-disk bytes per section kind (``tree{i}/x`` summed over trees)."""
        sizes: dict[str, int] = {}
        for entry in self.header.get("sections", []):
            kind = entry["name"].split("/", 1)[-1]
            sizes[kind] = sizes.get(kind, 0) + int(entry["length"])
        return sizes

    def resolve_spec(self):
        """Find the artifact's GPU spec among the known presets."""
        from repro.gpusim.specs import GPU_SPECS

        for spec in GPU_SPECS.values():
            if spec.name == self.spec_name:
                return spec
        raise ArtifactError(
            f"artifact targets unknown GPU spec {self.spec_name!r}; pass "
            "spec= explicitly to make_engine"
        )

    def make_engine(
        self,
        spec=None,
        *,
        config=None,
        hardware=None,
        recorder=None,
        layout_cache=None,
        backend=None,
    ):
        """Build a servable engine from the packed layout — no conversion.

        By default the engine class matches the packed format (``tahoe``
        → adaptive layout + full strategy selection, ``fil`` → reorg +
        shared-data).  ``backend="native"`` instead returns a
        :class:`~repro.core.native.NativeEngine` executing the packed
        layout (either format) on the host at wall-clock speed;
        ``backend=None`` or ``"simulated"`` keeps the format-matched
        simulator engine.  When ``layout_cache`` is given the layout is
        published under :attr:`cache_key`, so engines later built from
        the source forest hit the cache instead of reconverting.
        """
        from repro.core import engine_class

        spec = spec if spec is not None else self.resolve_spec()
        if spec.name != self.spec_name:
            raise ArtifactError(
                f"artifact was packed for {self.spec_name!r} but spec is "
                f"{spec.name!r}; repack with `repro pack --gpu ...`"
            )
        if backend not in (None, "simulated", "native"):
            raise ArtifactError(
                f"unknown backend {backend!r} (expected 'simulated' or 'native')"
            )
        return engine_class(backend, self.engine_kind).from_layout(
            self.layout,
            spec,
            cache_key=self.cache_key,
            config=config,
            hardware=hardware,
            recorder=recorder,
            layout_cache=layout_cache,
        )
