"""End-to-end experiment drivers for the paper's evaluation section.

Each driver builds the synthetic CodeSearchNet-PE corpus, runs one search
model over every query, and returns the averaged PR curve(s) — the same
series the paper plots:

* :func:`run_text_to_code_eval` — Fig 11 (CodeT5 descriptions +
  UniXcoder embeddings + cosine ranking; best F1 ≈ 0.61 in the paper).
* :func:`run_code_to_code_eval` — Figs 12/13 (Aroma vs ReACC at 0/50/75/
  90 % of the query code dropped; paper: Aroma max F1 ≈ 0.63 vs ReACC
  ≈ 0.24).
* :func:`run_description_eval` — Fig 10 (full-class vs ``_process``-only
  description contexts, scored by token F1 against references).

Ranking follows the paper's protocol: the query item itself is excluded
from the candidate ranking (retrieving yourself is not a recommendation),
and the relevant set is the query's semantic family.  Code-to-code
queries are the PE's *inner function logic* (what a developer has typed
while authoring a new PE), truncated to the requested drop level; the
candidates are full registered PE classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aroma.spt import ParseFailure
from repro.datasets.codesearchnet import CorpusItem, generate_corpus
from repro.eval.dropper import DROP_LEVELS, drop_suffix
from repro.eval.metrics import PRCurve, average_pr_curve, token_f1
from repro.models.describer import CodeT5Describer, DescriptionContext
from repro.models.embedder import UniXcoderEmbedder
from repro.models.reacc import ReACCRetriever
from repro.search.code import CodeSearch

__all__ = [
    "TextToCodeResult",
    "CodeSearchResult",
    "run_text_to_code_eval",
    "run_code_to_code_eval",
    "run_description_eval",
]


@dataclass
class TextToCodeResult:
    """Fig 11 output: one PR curve plus its best F1."""

    curve: PRCurve
    best_f1: float
    n_queries: int
    n_corpus: int


@dataclass
class CodeSearchResult:
    """Figs 12/13 output: one PR curve per drop level."""

    model: str
    curves: dict[float, PRCurve] = field(default_factory=dict)

    def best_f1(self) -> float:
        """Maximum F1 over every drop level (the paper's headline)."""
        return max((c.best_f1() for c in self.curves.values()), default=0.0)


def _relevant_sets(corpus: list[CorpusItem]) -> dict[str, set[str]]:
    by_family: dict[str, set[str]] = {}
    for item in corpus:
        by_family.setdefault(item.family, set()).add(item.uid)
    return by_family


def run_text_to_code_eval(
    corpus_size: int = 160,
    max_k: int = 20,
    corpus: list[CorpusItem] | None = None,
    context: DescriptionContext = DescriptionContext.FULL_CLASS,
) -> TextToCodeResult:
    """Reproduce Fig 11: text-to-code search over generated descriptions.

    For every PE the describer generates a description under ``context``
    (full-class by default — the Laminar 2.0 improvement; pass
    ``PROCESS_ONLY`` for the 1.0 behaviour, which the A8 ablation uses to
    show description quality propagating into search accuracy);
    descriptions are embedded with the UniXcoder substitute.  Each
    family's natural-language query is run once; relevant = that family's
    members.
    """
    corpus = corpus if corpus is not None else generate_corpus(corpus_size)
    describer = CodeT5Describer()
    descriptions = [describer.describe(item.pe_source, context) for item in corpus]
    embedder = UniXcoderEmbedder().fit(descriptions)
    doc_vectors = embedder.encode(descriptions)
    uids = [item.uid for item in corpus]
    relevant = _relevant_sets(corpus)

    queries = sorted({(item.query, item.family) for item in corpus})

    def rankings():
        for query, family in queries:
            sims = (embedder.encode(query) @ doc_vectors.T)[0]
            order = np.argsort(-sims, kind="stable")
            yield [uids[i] for i in order], relevant[family]

    curve = average_pr_curve(rankings(), max_k=max_k)
    return TextToCodeResult(
        curve=curve,
        best_f1=curve.best_f1(),
        n_queries=len(queries),
        n_corpus=len(corpus),
    )


def _aroma_rankings(
    corpus: list[CorpusItem], drop: float, max_k: int, max_queries: int | None = None
):
    # The served structural engine, keyed by corpus position so overlap
    # ties rank in corpus order.
    index = CodeSearch()
    for i, item in enumerate(corpus):
        index.add(i, item.pe_source)
    relevant = _relevant_sets(corpus)
    for item in corpus[: max_queries or len(corpus)]:
        query = drop_suffix(item.function_source, drop)
        try:
            order = [i for i, _ in index.search_spt(query, top_k=None, threshold=0.0)]
        except ParseFailure:  # nothing to match: every row scores zero
            order = range(len(corpus))
        ranked = [corpus[i].uid for i in order if corpus[i].uid != item.uid]
        yield ranked, relevant[item.family] - {item.uid}


def _reacc_rankings(
    corpus: list[CorpusItem], drop: float, max_k: int, max_queries: int | None = None
):
    retriever = ReACCRetriever()
    doc_vectors = retriever.encode([item.pe_source for item in corpus])
    relevant = _relevant_sets(corpus)
    for item in corpus[: max_queries or len(corpus)]:
        query = drop_suffix(item.function_source, drop)
        sims = (retriever.encode(query) @ doc_vectors.T)[0]
        order = np.argsort(-sims, kind="stable")
        ranked = [corpus[i].uid for i in order if corpus[i].uid != item.uid]
        yield ranked, relevant[item.family] - {item.uid}


def run_code_to_code_eval(
    model: str = "aroma",
    corpus_size: int = 720,
    drops: tuple[float, ...] = DROP_LEVELS,
    max_k: int = 20,
    corpus: list[CorpusItem] | None = None,
    max_queries: int | None = 160,
) -> CodeSearchResult:
    """Reproduce Fig 12 (``model='aroma'``) or Fig 13 (``model='reacc'``).

    PEs serve as queries at each drop level (capped at ``max_queries``
    for tractable runtimes; the corpus ordering interleaves families so
    any prefix is a stratified sample).  The query item is excluded from
    its own candidate ranking.
    """
    if model not in ("aroma", "reacc"):
        raise ValueError(f"unknown model {model!r}; expected 'aroma' or 'reacc'")
    corpus = corpus if corpus is not None else generate_corpus(corpus_size)
    ranking_fn = _aroma_rankings if model == "aroma" else _reacc_rankings

    result = CodeSearchResult(model=model)
    for drop in drops:
        result.curves[drop] = average_pr_curve(
            ranking_fn(corpus, drop, max_k, max_queries), max_k=max_k
        )
    return result


def run_description_eval(
    corpus_size: int = 120,
    corpus: list[CorpusItem] | None = None,
) -> dict[str, float]:
    """Reproduce Fig 10: description quality by generation context.

    Returns the mean token-F1 of generated descriptions against the
    reference descriptions, for both contexts.  The paper's claim is the
    *ordering*: full-class > ``_process``-only.
    """
    corpus = corpus if corpus is not None else generate_corpus(corpus_size)
    describer = CodeT5Describer()
    scores = {"full_class": [], "process_only": []}
    for item in corpus:
        for key, context in (
            ("full_class", DescriptionContext.FULL_CLASS),
            ("process_only", DescriptionContext.PROCESS_ONLY),
        ):
            generated = describer.describe(item.pe_source, context)
            scores[key].append(token_f1(generated, item.description))
    return {key: float(np.mean(vals)) for key, vals in scores.items()}
