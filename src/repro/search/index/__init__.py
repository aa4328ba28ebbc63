"""``repro.search.index`` — the exact vector index and its persistence.

The retrieval substrate behind semantic text-to-code search:

* :class:`VectorIndex` — flat exact cosine index: amortized-growth
  float32 storage, tombstone O(1) remove, owner-tagged rows and
  ``argpartition`` top-k over the caller's rows.
* :func:`save_index` / :func:`load_index` — versioned ``.npy`` +
  JSON-manifest persistence with ``np.memmap`` warm starts, sha256
  checksums and loud :class:`IndexPersistenceError` failures.
"""

from repro.search.index.persist import (
    IndexPersistenceError,
    load_index,
    manifest_info,
    save_index,
)
from repro.search.index.vector import VectorIndex

__all__ = [
    "VectorIndex",
    "IndexPersistenceError",
    "save_index",
    "load_index",
    "manifest_info",
]
