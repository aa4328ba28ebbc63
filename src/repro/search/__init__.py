"""Search front-ends: semantic (text-to-code) and code-to-code.

Two of the paper's three search families (§II-D/§V), as engines over any
collection of named, described, code-bearing items; the Laminar server's
registry indexes are built from them.  The third, literal search (§V-A),
is a SQL substring match served by
:meth:`repro.laminar.server.dataaccess.RegistryRepository.literal_search`.

* :class:`repro.search.semantic.SemanticSearch` — embedding cosine over
  descriptions (§V-B), with incremental add/remove.
* :class:`repro.search.code.CodeSearch` — structural SPT-overlap search
  with Laminar's top-5/threshold-6.0 defaults, plus the ReACC 'llm'
  fallback (§VI-A).

Underneath them, :mod:`repro.search.index` holds the exact
:class:`~repro.search.index.VectorIndex` and its persisted/memmap
warm-start format.
"""

from repro.search.semantic import SemanticSearch
from repro.search.code import CodeSearch
from repro.search.index import VectorIndex

__all__ = [
    "SemanticSearch",
    "CodeSearch",
    "VectorIndex",
]
