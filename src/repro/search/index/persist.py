"""Versioned on-disk persistence for :class:`VectorIndex`.

A saved index is a directory of two files:

* ``vectors.npy`` — the live (compacted) vector matrix, ``(count, dim)``
  float32 in standard NumPy format, loadable with ``np.memmap`` so a
  restarting server pages vectors in lazily instead of re-embedding or
  re-parsing the registry;
* ``manifest.json`` — format name/version, shape, dtype, the item ids in
  row order, and a sha256 checksum over the vector bytes.

Loads are *loud*: an unreadable manifest, unsupported version, shape or
dtype mismatch, truncated vector file, or checksum failure raises
:class:`IndexPersistenceError` with a structured ``reason`` — callers
(the registry service) fall back to rebuilding from their source of
truth rather than silently serving an empty or corrupt index.  This is
the same failure philosophy as the transport's frame decoding.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.search.index.vector import NO_TAG, VectorIndex

__all__ = [
    "IndexPersistenceError",
    "save_index",
    "load_index",
    "manifest_info",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]

FORMAT_NAME = "repro-vector-index"
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_VECTORS = "vectors.npy"


class IndexPersistenceError(Exception):
    """A persisted index could not be written or read back.

    ``reason`` is a stable machine-readable slug (``missing``,
    ``bad-manifest``, ``version``, ``shape``, ``checksum``, ...);
    ``detail`` is the human explanation.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def _checksum(matrix: np.ndarray) -> str:
    return "sha256:" + hashlib.sha256(
        np.ascontiguousarray(matrix, dtype=np.float32).tobytes()
    ).hexdigest()


def save_index(index: VectorIndex, path: str | Path) -> dict:
    """Write ``index`` under directory ``path``; returns the manifest.

    The index is compacted first so the file holds only live rows; ids
    must be JSON-serializable (ints and strings are — registry ids are
    ints).  Existing files at ``path`` are overwritten atomically
    (write-then-rename), so a crashed save never corrupts a good index.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    index.compact()
    count = len(index)
    matrix = np.ascontiguousarray(
        index._matrix[:count], dtype=np.float32
    )
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "count": count,
        "dim": index.dim,
        "dtype": "float32",
        "ids": index.ids,
        "checksum": _checksum(matrix),
    }
    try:
        json.dumps(manifest["ids"])
    except (TypeError, ValueError) as exc:
        raise IndexPersistenceError(
            "unserializable-ids", f"item ids are not JSON-safe: {exc}"
        ) from exc
    tmp_vec = path / (_VECTORS + ".tmp")
    tmp_man = path / (_MANIFEST + ".tmp")
    with open(tmp_vec, "wb") as fh:  # file object: np.save won't add .npy
        np.save(fh, matrix)
    tmp_man.write_text(json.dumps(manifest, indent=1))
    tmp_vec.replace(path / _VECTORS)
    tmp_man.replace(path / _MANIFEST)
    return manifest


def manifest_info(path: str | Path) -> dict:
    """Parse and structurally validate the manifest under ``path``."""
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise IndexPersistenceError(
            "missing", f"no index manifest at {manifest_path}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexPersistenceError(
            "bad-manifest", f"cannot parse {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise IndexPersistenceError(
            "bad-manifest", f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise IndexPersistenceError(
            "version",
            f"index version {manifest.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})",
        )
    for key in ("count", "dim", "ids", "checksum", "dtype"):
        if key not in manifest:
            raise IndexPersistenceError(
                "bad-manifest", f"manifest missing key {key!r}"
            )
    if len(manifest["ids"]) != manifest["count"]:
        raise IndexPersistenceError(
            "bad-manifest",
            f"manifest lists {len(manifest['ids'])} ids "
            f"but count={manifest['count']}",
        )
    return manifest


def load_index(path: str | Path, mmap: bool = True, verify: bool = True) -> VectorIndex:
    """Load the persisted :class:`VectorIndex` under directory ``path``.

    ``mmap=True`` maps the vector file read-only — queries page in only
    the rows they touch, and the first mutation copies the matrix into
    writable memory.  ``verify=True`` checks the sha256 checksum (one
    sequential pass; disable only for benchmarks that measure pure map
    time).
    """
    path = Path(path)
    manifest = manifest_info(path)
    vectors_path = path / _VECTORS
    if not vectors_path.exists():
        raise IndexPersistenceError("missing", f"no vector file at {vectors_path}")
    try:
        matrix = np.load(vectors_path, mmap_mode="r" if mmap else None)
    except (OSError, ValueError) as exc:
        raise IndexPersistenceError(
            "bad-vectors", f"cannot load {vectors_path}: {exc}"
        ) from exc
    if matrix.ndim != 2 or matrix.shape != (manifest["count"], manifest["dim"]):
        raise IndexPersistenceError(
            "shape",
            f"vector file is {matrix.shape}, manifest says "
            f"({manifest['count']}, {manifest['dim']})",
        )
    if str(matrix.dtype) != manifest["dtype"]:
        raise IndexPersistenceError(
            "dtype",
            f"vector file dtype {matrix.dtype}, manifest says "
            f"{manifest['dtype']}",
        )
    if verify and _checksum(matrix) != manifest["checksum"]:
        raise IndexPersistenceError(
            "checksum", f"vector bytes do not match manifest checksum at {path}"
        )
    return _attach(manifest, matrix, readonly=mmap)


def _attach(manifest: dict, matrix: np.ndarray, readonly: bool) -> VectorIndex:
    """Build a VectorIndex around an already-validated matrix."""
    ids: list[Any] = list(manifest["ids"])
    if len(set(map(_id_key, ids))) != len(ids):
        raise IndexPersistenceError("bad-manifest", "duplicate ids in manifest")
    index = VectorIndex(int(manifest["dim"]))
    count = int(manifest["count"])
    if count == 0:
        return index
    index._matrix = matrix if readonly else np.array(matrix, dtype=np.float32)
    index._valid = np.ones(count, dtype=bool)
    index._tags = np.full(count, NO_TAG, dtype=np.int64)  # tags are not persisted
    index._ids = ids
    index._row_of = {item: row for row, item in enumerate(ids)}
    index._used = count
    index._readonly = bool(readonly)
    return index


def _id_key(item: Any) -> Any:
    # Lists/dicts are not hashable; ids that survive json round-trips are.
    return json.dumps(item, sort_keys=True) if isinstance(item, (list, dict)) else item
