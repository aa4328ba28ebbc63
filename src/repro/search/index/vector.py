"""Flat vector index with amortized growth and tombstone removal.

The retrieval substrate behind semantic text-to-code search (§V-B) at
registry scale.  Four properties distinguish it from the naive
matrix-per-add approach it replaces:

* **Amortized O(1) add** — vectors live in a pre-allocated float32
  matrix that doubles capacity when full, so building an index of *n*
  items costs O(n) total instead of the O(n²) of per-add ``np.vstack``.
* **O(1) remove** — removed rows are tombstoned (masked out of search)
  rather than deleted, so no O(n) row renumbering; the matrix is
  compacted in one pass when tombstones outnumber live rows.
* **Partial top-k** — queries use ``np.argpartition`` (O(n) selection)
  instead of a full O(n log n) sort.
* **Owner-scoped top-k** — every row carries an int tag (the registry
  stores its owner's user id); ``search_vector(..., owner=t)`` scores
  and selects among the rows tagged ``t`` only, so a tenant's query
  costs O(its rows) and returns its true top-k without over-fetching.

Vectors are L2-normalized float32 rows, so every score is a cosine.
Single-query scores are computed row by row (``einsum``, not BLAS, whose
kernels round differently depending on a row's position in the block),
so a row scores the same whether it is ranked in the whole matrix, in
its owner's subset, or in a rebuilt, compacted or warm-started index.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = ["VectorIndex"]

#: Initial row capacity of a fresh index.
_MIN_CAPACITY = 64

#: Tag of a row added without one.
NO_TAG = -1


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows in place-friendly float32 (zero rows stay zero)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    return matrix / norms


class VectorIndex:
    """Incremental cosine index over dense vectors.

    Parameters
    ----------
    dim:
        Vector dimensionality; every added vector must match.
    capacity:
        Initial row capacity (grows by doubling as needed).
    """

    def __init__(self, dim: int, capacity: int = _MIN_CAPACITY) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._matrix = np.zeros((capacity, self.dim), dtype=np.float32)
        self._valid = np.zeros(capacity, dtype=bool)
        self._tags = np.full(capacity, NO_TAG, dtype=np.int64)  # aligned with _valid
        self._ids: list[Any] = []  # row -> item id (tombstones keep theirs)
        self._row_of: dict[Any, int] = {}  # live item id -> row
        self._used = 0  # high-water mark of allocated rows
        self._reallocations = 0
        self._compactions = 0
        #: True while the matrix is a read-only memmap (warm start); the
        #: first mutation materializes it into writable memory.
        self._readonly = False

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, item_id: Any) -> bool:
        return item_id in self._row_of

    @property
    def ids(self) -> list[Any]:
        """Live item ids in insertion order."""
        return [i for i in self._ids if i in self._row_of]

    def stats(self) -> dict:
        """Size/occupancy counters for observability and tests."""
        return {
            "items": len(self._row_of),
            "dim": self.dim,
            "capacity": int(self._matrix.shape[0]),
            "used_rows": self._used,
            "tombstones": self._used - len(self._row_of),
            "reallocations": self._reallocations,
            "compactions": self._compactions,
            "memory_bytes": int(self._matrix.nbytes),
            "readonly": self._readonly,
        }

    # -- mutation ------------------------------------------------------------

    def _ensure_writable(self) -> None:
        if self._readonly:
            self._matrix = np.array(self._matrix, dtype=np.float32)
            self._readonly = False

    def _grow_to(self, rows_needed: int) -> None:
        capacity = self._matrix.shape[0]
        if rows_needed <= capacity:
            return
        capacity = max(capacity, _MIN_CAPACITY)
        while capacity < rows_needed:
            capacity *= 2
        matrix = np.zeros((capacity, self.dim), dtype=np.float32)
        matrix[: self._used] = self._matrix[: self._used]
        valid = np.zeros(capacity, dtype=bool)
        valid[: self._used] = self._valid[: self._used]
        tags = np.full(capacity, NO_TAG, dtype=np.int64)
        tags[: self._used] = self._tags[: self._used]
        self._matrix, self._valid, self._tags = matrix, valid, tags
        self._reallocations += 1
        self._readonly = False

    def add(
        self, item_id: Any, vector: Sequence[float] | np.ndarray, tag: int = NO_TAG
    ) -> None:
        """Insert (or update in place) one item's vector and tag."""
        arr = np.asarray(vector, dtype=np.float32).reshape(-1)
        if arr.shape[0] != self.dim:
            raise ValueError(
                f"vector has dim {arr.shape[0]}, index has dim {self.dim}"
            )
        arr = _normalize_rows(arr[None, :])[0]  # exactly as add_batch stores it
        self._ensure_writable()
        row = self._row_of.get(item_id)
        if row is None:
            self._grow_to(self._used + 1)
            row = self._used
            self._valid[row] = True
            self._ids.append(item_id)
            self._row_of[item_id] = row
            self._used += 1
        self._matrix[row] = arr
        self._tags[row] = tag

    def add_batch(
        self,
        item_ids: Sequence[Any],
        vectors: np.ndarray,
        tags: Sequence[int] | None = None,
    ) -> None:
        """Insert many items at once (one allocation, one normalize pass).

        Ids already present are updated in place; new ids are appended in
        order.  Duplicate ids *within* the batch keep the last vector.
        ``tags`` (one per id) default to :data:`NO_TAG`.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(item_ids) != vectors.shape[0]:
            raise ValueError(
                f"{len(item_ids)} ids but {vectors.shape[0]} vectors"
            )
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors have dim {vectors.shape[1]}, index has dim {self.dim}"
            )
        if tags is not None and len(tags) != len(item_ids):
            raise ValueError(f"{len(item_ids)} ids but {len(tags)} tags")
        vectors = _normalize_rows(vectors)
        self._ensure_writable()
        fresh = [i for i, item in enumerate(item_ids) if item not in self._row_of]
        self._grow_to(self._used + len(fresh))
        for i, item_id in enumerate(item_ids):
            row = self._row_of.get(item_id)
            if row is None:
                row = self._used
                self._valid[row] = True
                self._ids.append(item_id)
                self._row_of[item_id] = row
                self._used += 1
            self._matrix[row] = vectors[i]
            self._tags[row] = NO_TAG if tags is None else tags[i]

    def set_tags(self, tags: dict[Any, int]) -> None:
        """Re-tag live items (``{item_id: tag}``; unknown ids are ignored).

        A loaded index carries no tags on disk; its owner takes them from
        the rows it already holds.
        """
        for item_id, tag in tags.items():
            row = self._row_of.get(item_id)
            if row is not None:
                self._tags[row] = tag

    def remove(self, item_id: Any) -> bool:
        """Tombstone one item; returns False when absent.

        O(1): the row is masked out of search and compacted away later,
        instead of the O(n) delete-and-renumber of the flat index.
        """
        row = self._row_of.pop(item_id, None)
        if row is None:
            return False
        self._ensure_writable()
        self._valid[row] = False
        self._matrix[row] = 0.0
        live = len(self._row_of)
        if self._used >= 2 * _MIN_CAPACITY and live < self._used // 2:
            self.compact()
        return True

    def compact(self) -> None:
        """Rewrite storage with tombstones dropped (insertion order kept)."""
        self._ensure_writable()
        live_ids = [i for i in self._ids if i in self._row_of]
        rows = [self._row_of[i] for i in live_ids]
        matrix = np.zeros_like(self._matrix)
        matrix[: len(rows)] = self._matrix[rows]
        self._matrix = matrix
        tags = np.full_like(self._tags, NO_TAG)
        tags[: len(rows)] = self._tags[rows]
        self._tags = tags
        self._valid[:] = False
        self._valid[: len(rows)] = True
        self._ids = live_ids
        self._row_of = {item: r for r, item in enumerate(live_ids)}
        self._used = len(live_ids)
        self._compactions += 1

    # -- search --------------------------------------------------------------

    def search_vector(
        self,
        vector: Sequence[float] | np.ndarray,
        top_k: int = 5,
        owner: int | None = None,
    ) -> list[tuple[Any, float]]:
        """Top-``top_k`` ``(item_id, cosine)`` pairs for one query vector,
        among the rows tagged ``owner`` when one is given.

        Only those rows are scored.  ``argpartition`` gives O(n)
        selection; only the k winners are then sorted, with ties broken by
        row (= insertion) order so results are deterministic.
        """
        live = self._valid[: self._used]
        if owner is not None:
            live = live & (self._tags[: self._used] == owner)
        rows = np.flatnonzero(live)
        k = min(top_k, rows.shape[0])
        if k <= 0:
            return []
        q = np.asarray(vector, dtype=np.float32).reshape(-1)
        norm = float(np.linalg.norm(q))
        if norm > 0:
            q = q / norm
        if rows.shape[0] == self._used:  # every row: score in place, no gather
            block = self._matrix[: self._used]
        else:
            block = self._matrix[rows]
        sims = np.einsum("ij,j->i", block, q)
        if k < sims.shape[0]:
            top = np.argpartition(-sims, k - 1)[:k]
        else:
            top = np.arange(sims.shape[0])
        order = top[np.lexsort((top, -sims[top]))]
        return [(self._ids[rows[i]], float(sims[i])) for i in order]
