"""Code-to-code search front-end (paper §VI-A).

Wraps the two retrieval back-ends behind one interface:

* ``spt`` (default) — SPT feature overlap against stored feature sets,
  Laminar's simplified Aroma with top-5 / threshold-6.0 defaults;
* ``llm`` — the ReACC dense retriever fallback
  (``--embedding_type llm`` in the paper's CLI).

The index is incremental (add/remove per registration event) and keeps
feature sets rather than a frozen matrix, trading a little per-query
speed for zero rebuild cost — the right trade at registry scale, and the
server's live registry index relies on it: registrations apply one
``add``/``remove`` and a recommendation never rebuilds.  Feature sets are
partitioned by owner, so ``search_spt(..., owner=t)`` and
``search_llm(..., owner=t)`` score only that owner's snippets.  ``lock``
is held around the scoring step only (never around featurising the
query); a server that mutates the index from other threads sets it to the
lock guarding those mutations.  It is the one structural engine: the
server's recommendations, the paper's Fig 12 evaluation
(:mod:`repro.eval.harness`), the full-Aroma recommender
(:mod:`repro.aroma.recommend`) and the A3/A4 ablations all rank through
:meth:`CodeSearch.search_spt`.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from typing import Any

import numpy as np

from repro.aroma.features import extract_features
from repro.aroma.spt import ParseFailure, python_to_spt
from repro.models.reacc import ReACCRetriever

__all__ = ["CodeSearch"]

DEFAULT_TOP_K = 5
DEFAULT_THRESHOLD = 6.0


class CodeSearch:
    """Incremental structural + dense code search index."""

    #: Held around each query's scoring step (see the module docstring).
    lock = nullcontext()

    def __init__(self, reacc: ReACCRetriever | None = None) -> None:
        self.reacc = reacc or ReACCRetriever()
        self._code: dict[Any, str] = {}  # every snippet, in insertion order
        self._owner: dict[Any, Any] = {}
        #: owner → {item_id: feature set}, each in insertion order.
        self._features: dict[Any, dict[Any, frozenset[str]]] = {}

    def __len__(self) -> int:
        return len(self._code)

    def add(
        self, item_id: Any, code: str, features: dict | None = None, owner: Any = None
    ) -> None:
        """Index one snippet under ``owner``; ``features`` may come
        precomputed (registry ``sptEmbedding``) to skip re-parsing."""
        if features is None:
            try:
                features = dict(extract_features(python_to_spt(code)))
            except ParseFailure:
                features = {}
        if self._owner.get(item_id, owner) != owner:
            self.remove(item_id)
        self._features.setdefault(owner, {})[item_id] = frozenset(features)
        self._code[item_id] = code
        self._owner[item_id] = owner

    def remove(self, item_id: Any) -> bool:
        """Drop one snippet; returns whether it was indexed."""
        if item_id not in self._code:
            return False
        del self._code[item_id]
        del self._features[self._owner.pop(item_id)][item_id]
        return True

    def search_spt(
        self,
        snippet: str,
        top_k: int | None = DEFAULT_TOP_K,
        threshold: float = DEFAULT_THRESHOLD,
        owner: Any = None,
    ) -> list[tuple[Any, float]]:
        """Structural overlap search, best first; ``top_k=None`` keeps every
        hit over the threshold.  Raises ``ParseFailure`` on garbage.

        Ties rank by id, so the ids of one index must be mutually
        orderable: the server's integer row ids rank in registration
        order, and a caller keying rows by position gets insertion order.
        """
        query = frozenset(extract_features(python_to_spt(snippet)))
        with self.lock:
            if owner is None:
                rows = chain.from_iterable(p.items() for p in self._features.values())
            else:
                rows = self._features.get(owner, {}).items()
            scored = [
                (item_id, score)
                for item_id, fs in rows
                if (score := float(len(query & fs))) >= threshold
            ]
        scored.sort(key=lambda t: (-t[1], t[0]))
        return scored[:top_k]

    def search_llm(
        self,
        snippet: str,
        top_k: int | None = DEFAULT_TOP_K,
        threshold: float = 0.1,
        owner: Any = None,
    ) -> list[tuple[Any, float]]:
        """Dense (ReACC) search over the indexed code bodies (ties by
        insertion order)."""
        with self.lock:
            ids = list(self._code if owner is None else self._features.get(owner, ()))
            codes = [self._code[i] for i in ids]
        if not ids:
            return []
        sims = self.reacc.similarity(snippet, codes)
        order = np.argsort(-sims, kind="stable")
        return [
            (ids[i], float(sims[i]))
            for i in order[:top_k]
            if sims[i] >= threshold
        ]

    def search(
        self, snippet: str, embedding_type: str = "spt", **kwargs: Any
    ) -> list[tuple[Any, float]]:
        """Dispatch on ``embedding_type`` ('spt' default, 'llm' fallback)."""
        if embedding_type == "spt":
            return self.search_spt(snippet, **kwargs)
        if embedding_type == "llm":
            return self.search_llm(snippet, **kwargs)
        raise ValueError(f"unknown embedding_type {embedding_type!r}")
