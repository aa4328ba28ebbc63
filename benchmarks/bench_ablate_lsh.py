"""A4 — §IX future work: MinHash-LSH acceleration of structural search.

The paper's conclusion plans LSH (after Senatus) to scale structural
code search.  This ablation compares the exact overlap search (the
served ``CodeSearch``) against the LSH index on recall@5 (vs the exact
top-5 as ground truth) and on candidate-set size — the quantity LSH
shrinks from |corpus| to a bucket collision set.
"""

import time

import numpy as np
import pytest

from repro.aroma import MinHashLSHIndex
from repro.aroma.features import feature_set
from repro.aroma.spt import python_to_spt
from repro.search.code import CodeSearch

N_QUERIES = 40


@pytest.fixture(scope="module")
def indexes(corpus_eval):
    corpus = corpus_eval[:480]
    exact = CodeSearch()  # keyed by position: ties rank in corpus order
    lsh = MinHashLSHIndex(num_perm=64, bands=16, rows=4)
    features = {}
    for i, item in enumerate(corpus):
        exact.add(i, item.pe_source)
        fs = feature_set(python_to_spt(item.pe_source))
        features[item.uid] = fs
        lsh.add(item.uid, fs)
    return corpus, exact, lsh, features


def test_lsh_vs_exact(report, indexes, benchmark):
    corpus, exact, lsh, features = indexes
    recalls, candidate_sizes, t_exact, t_lsh = [], [], [], []

    for item in corpus[:N_QUERIES]:
        start = time.perf_counter()
        exact_hits = [
            corpus[i].uid for i, _ in exact.search_spt(item.pe_source, top_k=5, threshold=0.0)
        ]
        t_exact.append(time.perf_counter() - start)

        start = time.perf_counter()
        lsh_hits = [i for i, _ in lsh.query(features[item.uid], top_n=5)]
        t_lsh.append(time.perf_counter() - start)

        candidate_sizes.append(len(lsh.candidates(features[item.uid])))
        overlap = len(set(exact_hits) & set(lsh_hits))
        recalls.append(overlap / len(exact_hits) if exact_hits else 1.0)

    recall = float(np.mean(recalls))
    mean_candidates = float(np.mean(candidate_sizes))
    report(
        "A4 — LSH-accelerated structural search (paper future work)",
        [
            f"corpus {len(corpus)} PEs, {N_QUERIES} queries, 64 permutations "
            f"(16 bands x 4 rows)",
            f"recall@5 vs exact top-5: {recall:.3f}",
            f"candidates touched: {mean_candidates:.0f} of {len(corpus)} "
            f"({mean_candidates / len(corpus):.0%})",
            f"latency: exact {np.mean(t_exact) * 1e3:6.2f} ms "
            f"vs lsh {np.mean(t_lsh) * 1e3:6.2f} ms per query",
        ],
    )
    assert recall >= 0.5  # LSH must retain most of the exact top-5
    assert mean_candidates < len(corpus)  # and prune the candidate space

    query_fs = features[corpus[0].uid]
    benchmark(lambda: lsh.query(query_fs, top_n=5))
