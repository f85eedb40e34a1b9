"""One sniffing loader for every model format the CLI accepts.

``repro predict --forest`` / ``repro serve --forest`` (and anything else
that takes "a model file") route through :func:`load_model`: packed
``.tahoe`` artifacts, our native forest JSON (v1 or v2), and every
foreign dump the importers understand all work from the same flag, and
an unrecognised file fails with one error that lists what *would* have
worked.
"""

from __future__ import annotations

from pathlib import Path

from repro.modelstore.artifact import ARTIFACT_MAGIC, PackedModel, load_packed
from repro.modelstore.importers import (
    SUPPORTED_FORMATS,
    ModelImportError,
    _sniff_text,
    import_model,
)
from repro.trees.forest import Forest

__all__ = ["load_model", "sniff_format"]


def sniff_format(path: str | Path) -> str:
    """Classify a model file without fully parsing it.

    Returns one of ``tahoe-artifact``, ``forest-json``, ``xgboost``,
    ``xgboost-dump``, ``sklearn``, ``lightgbm``.

    Raises:
        ModelImportError: unreadable or unrecognised content; the message
            lists the supported formats.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            head = fh.read(len(ARTIFACT_MAGIC))
    except OSError as exc:
        raise ModelImportError(f"cannot read model file {path}: {exc}") from exc
    if head == ARTIFACT_MAGIC:
        return "tahoe-artifact"
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ModelImportError(
            f"{path} is binary but not a .tahoe artifact; supported formats: "
            f"{', '.join(('tahoe-artifact (.tahoe packed layout)',) + SUPPORTED_FORMATS)}"
        ) from exc
    return _sniff_text(text)


def load_model(
    path: str | Path, *, n_attributes: int | None = None
) -> "Forest | PackedModel":
    """Load any supported model file.

    Returns a :class:`~repro.modelstore.artifact.PackedModel` for packed
    ``.tahoe`` artifacts (serve it via ``.make_engine()`` — zero
    conversion) and a :class:`~repro.trees.forest.Forest` for everything
    else (native JSON or an imported foreign dump — the engine converts
    on construction as usual).
    """
    fmt = sniff_format(path)
    if fmt == "tahoe-artifact":
        return load_packed(path)
    return import_model(path, format=fmt, n_attributes=n_attributes)
