"""Semantic text-to-code search over description embeddings (paper §V-B).

A query scores the caller's rows in one vectorised pass, and
storage/ranking delegate to
:class:`repro.search.index.VectorIndex`: adds are amortized O(1)
(capacity-doubling instead of the old per-add ``np.vstack``, which made
building an n-item index O(n²)), removes are O(1) tombstones, and top-k
uses ``np.argpartition`` instead of a full sort.  Mirrors Laminar's flow
exactly: descriptions are embedded once at registration, queries at
search time, ranking by cosine.

Pass a loaded :class:`~repro.search.index.VectorIndex` as ``index`` to
serve a persisted index (the registry's warm start; see ``docs/guide.md``
§"Search at scale").

Items may carry an int owner tag; ``search(..., owner=t)`` ranks only the
items tagged ``t``.  ``lock`` is held around the selection step (never
around query embedding): a server that mutates the index from other
threads sets it to the lock guarding those mutations.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

import numpy as np

from repro.models.embedder import UniXcoderEmbedder
from repro.search.index.vector import NO_TAG, VectorIndex

__all__ = ["SemanticSearch"]


class SemanticSearch:
    """Incremental cosine search index over text descriptions."""

    #: Held around each query's selection step (see the module docstring).
    lock = nullcontext()

    def __init__(
        self,
        embedder: UniXcoderEmbedder | None = None,
        index: VectorIndex | None = None,
    ) -> None:
        self.embedder = embedder or UniXcoderEmbedder()
        self.index = index if index is not None else VectorIndex(self.embedder.dim)
        if self.index.dim != self.embedder.dim:
            raise ValueError(
                f"index dim {self.index.dim} != embedder dim {self.embedder.dim}"
            )

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, item_id: Any) -> bool:
        return item_id in self.index

    def add(self, item_id: Any, description: str) -> None:
        """Index (or re-index) one item's description."""
        self.index.add(item_id, self.embedder.encode(description)[0])

    def add_precomputed(
        self, item_id: Any, vector: list[float], tag: int = NO_TAG
    ) -> None:
        """Index an item whose embedding was computed earlier (registry)."""
        self.index.add(item_id, np.asarray(vector, dtype=np.float32), tag=tag)

    def add_precomputed_batch(
        self, item_ids: list[Any], vectors: np.ndarray, tags: list[int] | None = None
    ) -> None:
        """Bulk-index precomputed embeddings (one allocation for the batch)."""
        self.index.add_batch(item_ids, vectors, tags=tags)

    def remove(self, item_id: Any) -> bool:
        """Drop one item; returns False when absent."""
        return self.index.remove(item_id)

    def search(
        self, query: str, top_k: int = 5, owner: int | None = None
    ) -> list[tuple[Any, float]]:
        """Top ``top_k`` ``(item_id, cosine)`` pairs for a text query, among
        the items tagged ``owner`` when one is given."""
        if not len(self.index):
            return []
        vector = self.embedder.encode(query)[0]
        with self.lock:
            return self.index.search_vector(vector, top_k=top_k, owner=owner)
