"""Compiled C kernels for the native backend, built once per machine.

``ckernel.c`` (next to this module) holds two entry points — forest
traversal for :class:`~repro.core.native.NativeEngine` and exact
path-wise TreeSHAP for :func:`repro.explain.kernel.compute_shap` — that
reproduce the numpy kernels bit for bit.  This module compiles it into a
shared library on first use, caches the library on disk, and loads it
once per process with stdlib :mod:`ctypes`.

* **Build** — ``cc -O2 -shared -fPIC -ffp-contract=off``.  No
  ``-ffast-math`` (it reassociates) and no ``-march=native`` (the cached
  library must not depend on the build host's extensions);
  ``-ffp-contract=off`` stops the compiler from fusing ``a*b + c`` into
  an FMA, which rounds once instead of twice and would change results on
  targets with FMA (aarch64 contracts by default).
* **Cache** — ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
  created with mode 0700.  The file name carries a sha256 of the source,
  ``cc --version``, the flags and the machine type, so an edited source,
  a new compiler or a different architecture gets its own library.  A
  build writes a temporary file and ``os.replace``\\ s it into place, so a
  concurrent reader never sees half a library; a cached file that does
  not load (truncated, corrupt, wrong ABI) is rebuilt.  When the cache
  directory is not writable the library is built into a private
  temporary directory for this process.
* **Fallback** — with no ``cc`` on the ``PATH``, or a failed build,
  :func:`library` returns ``None`` and callers run the numpy kernels;
  :data:`status` says why.
* **Binding** — :func:`bind_forest` / :func:`bind_paths` fill one ctypes
  argument struct per :class:`~repro.core.native.NativeForest` /
  :class:`~repro.explain.paths.PathSet` (kept on the object), so a call
  marshals only the batch, the output buffer and the row count.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "FLAGS",
    "SOURCE",
    "available",
    "bind_forest",
    "bind_paths",
    "library",
    "shap",
    "status",
    "traverse",
]

SOURCE = Path(__file__).with_name("ckernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: Must equal ``REPRO_CKERNEL_ABI`` in the source.
ABI = 1

_UNSET = object()
_lib = _UNSET
_lock = threading.Lock()
#: How the library was obtained (``"built"``, ``"cached"``), or why it
#: is unavailable; ``None`` until the first :func:`library` call.
status: str | None = None

_p = ctypes.c_void_p
_i64 = ctypes.c_int64


class _Forest(ctypes.Structure):
    _fields_ = [
        ("feature", _p),
        ("threshold", _p),
        ("child_true", _p),
        ("child_false", _p),
        ("default_true", _p),
        ("value", _p),
        ("roots", _p),
        ("group", _p),
        ("cat_offset", _p),
        ("cat_count", _p),
        ("cat_bits", _p),
        ("n_trees", _i64),
        ("n_groups", _i64),
    ]


class _Paths(ctypes.Structure):
    _fields_ = [
        ("edge_feature", _p),
        ("edge_threshold", _p),
        ("edge_flip", _p),
        ("edge_default_left", _p),
        ("edge_expect_left", _p),
        ("edge_cat_offset", _p),
        ("edge_cat_count", _p),
        ("cat_bits", _p),
        ("slot_edge_start", _p),
        ("slot_zero", _p),
        ("path_slot_start", _p),
        ("path_value", _p),
        ("scatter_slot", _p),
        ("scatter_col", _p),
        ("ratio", _p),
        ("ratio_dim", _i64),
        ("n_slots", _i64),
        ("n_paths", _i64),
        ("n_cols", _i64),
        ("max_depth", _i64),
    ]


# ----------------------------------------------------------------------
# Build, cache and load
# ----------------------------------------------------------------------
def _compiler() -> str | None:
    return shutil.which("cc")


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(root) / "repro"


def _cache_key(cc: str) -> str:
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, check=True
    ).stdout
    h = hashlib.sha256()
    for part in (SOURCE.read_bytes(), version.encode(), " ".join(FLAGS).encode(),
                 platform.machine().encode()):
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _compile(cc: str, target: Path) -> None:
    """Build into a temporary file beside ``target``, then rename it."""
    fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, check=True
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path):
    lib = ctypes.CDLL(str(path))
    if lib.repro_ckernel_abi() != ABI:
        raise OSError(f"{path} has ABI {lib.repro_ckernel_abi()}, need {ABI}")
    lib.repro_traverse.argtypes = [ctypes.POINTER(_Forest), _p, _i64, _i64, _p]
    lib.repro_traverse.restype = None
    lib.repro_shap.argtypes = [ctypes.POINTER(_Paths), _p, _i64, _i64, _p]
    lib.repro_shap.restype = ctypes.c_int
    return lib


def _writable_cache() -> Path | None:
    try:
        directory = _cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return directory if os.access(directory, os.W_OK | os.X_OK) else None


def _load():
    """Open the cached library, building it first when needed.

    Returns ``(library or None, status)``.
    """
    cc = _compiler()
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    try:
        key = _cache_key(cc)
    except (OSError, subprocess.CalledProcessError) as exc:
        return None, f"cc --version failed: {exc}"
    directory = _writable_cache()
    if directory is None:
        directory = Path(tempfile.mkdtemp(prefix="repro-ckernel-"))
    target = directory / f"ckernel-{key[:24]}.so"
    if target.exists():
        try:
            return _open(target), "cached"
        except (OSError, AttributeError):
            pass  # corrupt or stale: rebuild over it
    try:
        _compile(cc, target)
        return _open(target), "built"
    except (OSError, AttributeError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", b"") or b""
        if isinstance(detail, bytes):
            detail = detail.decode(errors="replace")
        return None, f"build failed: {exc} {detail.strip()}".strip()


def library():
    """The loaded kernel library, or ``None`` when it cannot be built."""
    global _lib, status
    if _lib is _UNSET:
        with _lock:
            if _lib is _UNSET:
                _lib, status = _load()
    return _lib


def available() -> bool:
    """Whether the compiled kernels can run in this process."""
    return library() is not None


# ----------------------------------------------------------------------
# Argument binding and calls
# ----------------------------------------------------------------------
def _ptr(a: np.ndarray | None):
    return None if a is None else a.ctypes.data


class _Binding:
    """A filled argument struct plus the arrays its pointers point into."""

    __slots__ = ("arrays", "struct", "ref")

    def __init__(self, cls, arrays: dict, **scalars) -> None:
        self.arrays = arrays
        self.struct = cls(**{k: _ptr(v) for k, v in arrays.items()}, **scalars)
        self.ref = ctypes.pointer(self.struct)


def _c(a: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=dtype)


def bind_forest(flat) -> _Binding:
    """Bind (once) a :class:`~repro.core.native.NativeForest`."""
    if flat.binding is None:
        # Numeric forests pass NULL bitsets, so the kernel skips the
        # per-node categorical test.
        has_cat = flat.has_cat
        flat.binding = _Binding(
            _Forest,
            {
                "feature": _c(flat.feature, np.int32),
                "threshold": _c(flat.threshold, np.float32),
                "child_true": _c(flat.child_true, np.int32),
                "child_false": _c(flat.child_false, np.int32),
                "default_true": _c(flat.default_true, np.uint8),
                "value": _c(flat.value, np.float32),
                "roots": _c(flat.roots, np.int32),
                "group": None if flat.tree_group is None else _c(flat.tree_group, np.int64),
                "cat_offset": _c(flat.cat_offset, np.int64) if has_cat else None,
                "cat_count": _c(flat.cat_count, np.int32) if has_cat else None,
                "cat_bits": _c(flat.cat_bits, np.uint32) if has_cat else None,
            },
            n_trees=flat.n_trees,
            n_groups=flat.n_groups,
        )
    return flat.binding


def _rows(X: np.ndarray, width: int) -> np.ndarray:
    """C-contiguous float32 rows; narrower rows would be read out of
    bounds, so they are refused here too."""
    X = np.ascontiguousarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[1] < width:
        raise ValueError(f"rows of shape {X.shape} are narrower than the forest's {width}")
    return X


def traverse(flat, X: np.ndarray) -> np.ndarray:
    """Per-sample float64 leaf sums, ``(n, n_groups)``."""
    X = _rows(X, flat.n_attributes)
    n = X.shape[0]
    out = np.empty((n, flat.n_groups), dtype=np.float64)
    library().repro_traverse(
        bind_forest(flat).ref, X.ctypes.data, n, X.shape[1], out.ctypes.data
    )
    return out


def _scatter_order(ps) -> tuple[np.ndarray, np.ndarray]:
    """Slots in the order the numpy kernel's ``np.add.at`` applies them —
    unique-depth group ascending, then slot position ``j``, then path —
    and the attribution column each one lands in."""
    starts = ps.path_slot_start
    depths = np.diff(starts)
    order = []
    for d in np.unique(depths):
        if d == 0:
            continue
        first = starts[:-1][depths == d]
        order.extend(first + j for j in range(int(d)))
    slots = np.concatenate(order).astype(np.int64) if order else np.zeros(0, np.int64)
    path_of_slot = np.repeat(np.arange(ps.n_paths, dtype=np.int64), depths)
    cols = (
        ps.slot_feature.astype(np.int64) * ps.n_classes
        + ps.path_group.astype(np.int64)[path_of_slot]
    )
    return slots, cols[slots]


def bind_paths(ps) -> _Binding:
    """Bind (once) a :class:`~repro.explain.paths.PathSet`."""
    if ps.binding is None:
        depth = ps.max_unique_depth
        dim = depth + 2
        # ratio[a, b] = a / b: the recurrence's constants, each the same
        # IEEE division the numpy kernel performs.
        ratio = np.zeros((dim, dim), dtype=np.float64)
        ratio[:, 1:] = np.arange(dim, dtype=np.float64)[:, None] / np.arange(1, dim)
        slots, cols = _scatter_order(ps)
        ps.binding = _Binding(
            _Paths,
            {
                "edge_feature": _c(ps.edge_feature, np.int32),
                "edge_threshold": _c(ps.edge_threshold, np.float32),
                "edge_flip": _c(ps.edge_flip, np.uint8),
                "edge_default_left": _c(ps.edge_default_left, np.uint8),
                "edge_expect_left": _c(ps.edge_expect_left, np.uint8),
                "edge_cat_offset": _c(ps.edge_cat_offset, np.int64),
                "edge_cat_count": _c(ps.edge_cat_count, np.int32),
                "cat_bits": _c(ps.cat_bits, np.uint32),
                "slot_edge_start": _c(ps.slot_edge_start, np.int64),
                "slot_zero": _c(ps.slot_zero, np.float64),
                "path_slot_start": _c(ps.path_slot_start, np.int64),
                "path_value": _c(ps.path_value, np.float64),
                "scatter_slot": slots,
                "scatter_col": cols,
                "ratio": ratio,
            },
            ratio_dim=dim,
            n_slots=ps.n_slots,
            n_paths=ps.n_paths,
            n_cols=ps.n_features * ps.n_classes,
            max_depth=depth,
        )
    return ps.binding


def shap(ps, X: np.ndarray) -> np.ndarray:
    """Attributions ``(n, n_features * n_classes)`` of every sample."""
    X = _rows(X, ps.n_features)
    n = X.shape[0]
    phi = np.zeros((n, ps.n_features * ps.n_classes), dtype=np.float64)
    if library().repro_shap(bind_paths(ps).ref, X.ctypes.data, n, X.shape[1], phi.ctypes.data):
        raise MemoryError("C SHAP kernel could not allocate its workspace")
    return phi
