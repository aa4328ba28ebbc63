"""Aroma structural code search, adapted to Python for Laminar 2.0.

Aroma (Luan et al., OOPSLA 2019) recommends code by *structural*
similarity: snippets are parsed into **simplified parse trees (SPTs)**,
featurised into feature sets capturing local structure with variable
names abstracted away, and ranked by feature overlap with the query.
The original uses ANTLR-generated Java parse trees; offline we derive SPTs
from the stdlib ``ast`` module instead (see DESIGN.md substitution S13) —
the SPT shape (keyword-token labels, abstracted variables) is preserved.

Pipeline stages (paper Fig 3):

* :mod:`repro.aroma.spt` — SPT generation, including a best-effort repair
  loop so *partial* snippets still parse (essential for Figs 12/13).
* :mod:`repro.aroma.features` — token / parent / sibling / variable-usage
  feature extraction.
* :class:`repro.search.code.CodeSearch` — the searchable index (overlap
  scores); the server and the paper's figures share it.
* :mod:`repro.aroma.prune` — prune-and-rerank against the query.
* :mod:`repro.aroma.cluster` — iterative clustering of reranked results.
* :mod:`repro.aroma.recommend` — the full recommender, layered over
  ``CodeSearch`` (so it is not re-exported here).  Laminar 2.0 ships only
  its first stage, the overlap search (§VI-A, threshold 6.0).
* :mod:`repro.aroma.lsh` — MinHash-LSH acceleration (the paper's stated
  future work, after Senatus).
"""

from repro.aroma.spt import SPTLeaf, SPTNode, python_to_spt
from repro.aroma.features import extract_features
from repro.aroma.lsh import MinHashLSHIndex

__all__ = [
    "SPTNode",
    "SPTLeaf",
    "python_to_spt",
    "extract_features",
    "MinHashLSHIndex",
]
