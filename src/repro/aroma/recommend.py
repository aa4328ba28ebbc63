"""End-to-end code recommendation: the full Aroma pipeline.

:class:`AromaRecommender` runs the complete pipeline of the original paper
(search → prune → rerank → cluster → recommend).  Its first stage is the
served structural search, :class:`~repro.search.code.CodeSearch`, which is
also what Laminar 2.0 ships on its own (§VI-A): SPT featurisation plus a
plain overlap ranking — "for efficiency, simplicity, and scalability,
without the need for complex clustering or reranking steps" — returning up
to five results whose score clears 6.0, the value in the paper's Fig 9.
The ablation bench ``bench_ablate_aroma_variants`` quantifies what the
simplification trades away.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.aroma.cluster import Cluster, cluster_candidates
from repro.aroma.features import extract_features
from repro.aroma.prune import prune_spt, rerank_score
from repro.aroma.spt import ParseFailure, SPTNode, python_to_spt
from repro.search.code import CodeSearch

__all__ = ["AromaRecommender", "Recommendation"]


@dataclass
class _Snippet:
    """One indexed snippet with its parsed and featurised forms."""

    snippet_id: Any
    source: str
    spt: SPTNode
    features: Counter
    metadata: dict


@dataclass
class Recommendation:
    """One recommended coding pattern."""

    snippet_id: Any
    score: float
    source: str
    pruned_code: str
    metadata: dict
    cluster_size: int = 1
    cluster_member_ids: list = field(default_factory=list)


class AromaRecommender:
    """The full Aroma pipeline over a :class:`CodeSearch`.

    Snippets are keyed in the search index by their position, so overlap
    ties rank in insertion order.

    Parameters
    ----------
    search_width:
        Candidates taken from the fast overlap search before pruning
        (Aroma retrieves a generous list, then reranks).
    gamma:
        Pruning penalty for unmatched features.
    tau:
        Clustering Jaccard threshold.
    """

    def __init__(
        self,
        search_width: int = 50,
        gamma: float = 0.25,
        tau: float = 0.4,
    ) -> None:
        self.index = CodeSearch()
        self._snippets: list[_Snippet] = []
        self.search_width = search_width
        self.gamma = gamma
        self.tau = tau

    def add(self, snippet_id: Any, source: str, metadata: dict | None = None) -> None:
        """Parse, featurise and index one snippet."""
        spt = python_to_spt(source)
        snippet = _Snippet(snippet_id, source, spt, extract_features(spt), dict(metadata or {}))
        self.index.add(len(self._snippets), source, features=snippet.features)
        self._snippets.append(snippet)

    def fit(self, corpus: list[tuple[Any, str]] | list[tuple[Any, str, dict]]) -> "AromaRecommender":
        """Index a corpus of ``(id, source)`` or ``(id, source, metadata)``."""
        for entry in corpus:
            self.add(*entry)
        return self

    def recommend(self, query_source: str, top_n: int = 5) -> list[Recommendation]:
        """Recommend up to ``top_n`` coding patterns for a (partial) query."""
        try:
            query_spt = python_to_spt(query_source)
        except ParseFailure:
            return []
        query_features = extract_features(query_spt)

        # 1. Fast overlap search.
        hits = [
            self._snippets[i]
            for i, _ in self.index.search_spt(
                query_source, top_k=self.search_width, threshold=1.0
            )
        ]
        if not hits:
            return []

        # 2–3. Prune each candidate against the query, rerank by the
        # similarity of the pruned snippet.
        pruned_hits: list[tuple[_Snippet, SPTNode, float]] = []
        for hit in hits:
            pruned = prune_spt(hit.spt, query_features, gamma=self.gamma)
            pruned_hits.append((hit, pruned, rerank_score(pruned, query_features)))
        pruned_hits.sort(key=lambda t: -t[2])

        # 4. Iterative clustering of the reranked list.
        clusters: list[Cluster] = cluster_candidates(
            pruned_hits,
            features_of=lambda t: frozenset(t[0].features),
            tau=self.tau,
        )

        # 5. One recommendation per cluster: the representative, rendered
        # after pruning against the query-shared pattern.
        recs = []
        for cluster in clusters[:top_n]:
            hit, pruned, score = cluster.representative
            recs.append(
                Recommendation(
                    snippet_id=hit.snippet_id,
                    score=score,
                    source=hit.source,
                    pruned_code=pruned.render(),
                    metadata=hit.metadata,
                    cluster_size=len(cluster),
                    cluster_member_ids=[m[0].snippet_id for m in cluster.members],
                )
            )
        return recs

