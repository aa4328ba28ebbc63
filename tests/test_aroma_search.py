"""Tests for structural search over an Aroma corpus, pruning, clustering,
the recommender and LSH."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aroma import MinHashLSHIndex, extract_features, python_to_spt
from repro.aroma.cluster import cluster_candidates, jaccard
from repro.aroma.features import feature_set
from repro.aroma.prune import prune_spt, rerank_score
from repro.aroma.recommend import AromaRecommender
from repro.search.code import CodeSearch

CORPUS = {
    "producer": """
class NumberProducer(ProducerPE):
    def _process(self, inputs):
        return random.randint(1, 1000)
""",
    "isprime": """
class IsPrime(IterativePE):
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num
""",
    "printer": """
class PrintPrime(ConsumerPE):
    def _process(self, num):
        print(f"the num {num} is prime")
""",
    "anomaly": """
class AnomalyDetector(IterativePE):
    def _process(self, record):
        if abs(record["temp"] - self.mean) > self.threshold:
            return record
""",
    "wordsplit": """
class WordSplit(IterativePE):
    def _process(self, line):
        for word in line.split():
            self.write("output", (word, 1))
""",
}


@pytest.fixture(scope="module")
def index():
    idx = CodeSearch()
    for sid, src in CORPUS.items():
        idx.add(sid, src)
    return idx


def test_index_len(index):
    assert len(index) == len(CORPUS)


def test_overlap_search_finds_fig9_query(index):
    """The paper's Fig 9: 'random.randint(1, 1000)' -> NumberProducer."""
    hits = index.search_spt("random.randint(1, 1000)", top_k=1)
    assert hits[0][0] == "producer"
    assert hits[0][1] >= 6.0  # clears Laminar's default threshold


def test_exact_snippet_is_top_hit(index):
    for sid, src in CORPUS.items():
        hits = index.search_spt(src, top_k=1)
        assert hits[0][0] == sid, f"self-retrieval failed for {sid}"


def test_partial_snippet_still_retrieves(index):
    partial = "\n".join(CORPUS["isprime"].strip().splitlines()[:3])
    hits = index.search_spt(partial, top_k=2, threshold=0.0)
    assert hits[0][0] == "isprime"


def test_min_score_filters(index):
    hits = index.search_spt("nonexistent_identifier_xyz", top_k=5, threshold=1.0)
    assert all(score >= 1.0 for _, score in hits)


def test_laminar_search_threshold(index):
    """Laminar's shipped defaults (top 5, threshold 6.0) keep only the
    Fig 9 match."""
    hits = index.search_spt("random.randint(1, 1000)")
    assert [sid for sid, _ in hits] == ["producer"]
    assert all(score >= 6.0 for _, score in hits)


def test_laminar_search_override_threshold(index):
    hits = index.search_spt("random.randint(1, 1000)", threshold=1.0, top_k=5)
    assert len(hits) > 1


# -- pruning ---------------------------------------------------------------


def test_prune_drops_unrelated_subtrees():
    src = """
def f(x):
    y = x + 1
    send_email(admin, report)
    return y
"""
    spt = python_to_spt(src)
    query = extract_features(python_to_spt("def f(x):\n    y = x + 1\n    return y"))
    pruned = prune_spt(spt, query)
    rendered = pruned.render()
    assert "email" not in rendered
    assert "return" in rendered


def test_prune_keeps_matching_structure():
    spt = python_to_spt(CORPUS["isprime"])
    query = extract_features(spt)
    pruned = prune_spt(spt, query)
    assert rerank_score(pruned, query) == pytest.approx(1.0, abs=0.05)


def test_rerank_score_zero_for_disjoint():
    spt = python_to_spt("foo()")
    query = extract_features(python_to_spt("bar()"))
    pruned = prune_spt(spt, query)
    assert rerank_score(pruned, query) < 0.5


# -- clustering ----------------------------------------------------------------


def test_jaccard_basics():
    assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0
    assert jaccard(frozenset("a"), frozenset("b")) == 0.0
    assert jaccard(frozenset(), frozenset()) == 0.0


def test_cluster_groups_near_duplicates():
    items = ["aaa", "aab", "zzz"]
    fsets = {"aaa": frozenset("ab"), "aab": frozenset("ab"), "zzz": frozenset("z")}
    clusters = cluster_candidates(items, features_of=lambda x: fsets[x], tau=0.5)
    assert len(clusters) == 2
    assert clusters[0].members == ["aaa", "aab"]


def test_cluster_common_is_intersection():
    fsets = {"a": frozenset({"x", "y"}), "b": frozenset({"x", "z", "y"})}
    clusters = cluster_candidates(["a", "b"], features_of=lambda k: fsets[k], tau=0.5)
    assert clusters[0].common == frozenset({"x", "y"})


# -- recommender ------------------------------------------------------------------


@pytest.fixture(scope="module")
def recommender():
    return AromaRecommender().fit(
        [(sid, src, {"name": sid}) for sid, src in CORPUS.items()]
    )


def test_recommend_returns_relevant_first(recommender):
    recs = recommender.recommend("random.randint(1, 1000)")
    assert recs[0].snippet_id == "producer"
    assert recs[0].pruned_code


def test_recommend_clusters_duplicates():
    dup_corpus = [("a", CORPUS["isprime"]), ("b", CORPUS["isprime"]), ("c", CORPUS["anomaly"])]
    rec = AromaRecommender().fit(dup_corpus)
    recs = rec.recommend(CORPUS["isprime"], top_n=5)
    top = recs[0]
    assert top.cluster_size == 2
    assert set(top.cluster_member_ids) == {"a", "b"}


def test_recommend_empty_for_garbage(recommender):
    assert recommender.recommend("£$%^&*") == []


def test_recommend_respects_top_n(recommender):
    assert len(recommender.recommend("def f(x):\n    return x", top_n=2)) <= 2


# -- LSH ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lsh():
    idx = MinHashLSHIndex()
    for sid, src in CORPUS.items():
        idx.add(sid, feature_set(python_to_spt(src)))
    return idx


def test_lsh_self_query_returns_self(lsh):
    for sid, src in CORPUS.items():
        results = lsh.query(feature_set(python_to_spt(src)), top_n=1)
        assert results and results[0][0] == sid


def test_lsh_candidates_subset_of_corpus(lsh):
    cands = lsh.candidates(feature_set(python_to_spt(CORPUS["isprime"])))
    assert cands <= set(CORPUS)


def test_lsh_estimated_jaccard_close_to_exact(lsh):
    a = feature_set(python_to_spt(CORPUS["isprime"]))
    b = feature_set(python_to_spt(CORPUS["anomaly"]))
    exact = len(a & b) / len(a | b)
    est = lsh.estimated_jaccard("isprime", "anomaly")
    assert abs(est - exact) < 0.35  # 64 permutations -> coarse but sane


def test_lsh_band_row_validation():
    with pytest.raises(ValueError, match="bands"):
        MinHashLSHIndex(num_perm=64, bands=10, rows=4)


def test_lsh_empty_feature_set():
    idx = MinHashLSHIndex()
    idx.add("empty", frozenset())
    assert idx.query(frozenset({"x"}), top_n=1) in ([], [("empty", 0.0)])


@settings(max_examples=20, deadline=None)
@given(
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1, max_size=20)
)
def test_lsh_identical_sets_always_collide(features):
    idx = MinHashLSHIndex()
    idx.add("one", features)
    assert "one" in idx.candidates(features)


# -- rerank score properties -----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.sampled_from(sorted(CORPUS)))
def test_rerank_score_bounded(a, b):
    query = extract_features(python_to_spt(CORPUS[a]))
    pruned = prune_spt(python_to_spt(CORPUS[b]), query)
    score = rerank_score(pruned, query)
    assert 0.0 <= score <= 1.0


def test_prune_gamma_monotone():
    """Lower gamma (cheaper unmatched features) keeps at least as much of
    the candidate as higher gamma — the pruning knob is monotone."""
    # the query binds x (def param) so it abstracts to #VAR like the
    # candidate's locals — unbound names stay concrete by design.
    query = extract_features(
        python_to_spt("def f(x):\n    if x:\n        return x")
    )

    def kept(gamma):
        pruned = prune_spt(python_to_spt(CORPUS["isprime"]), query, gamma=gamma)
        return sum(1 for leaf in pruned.leaves() if leaf.token != "...")

    counts = [kept(g) for g in (0.0, 0.25, 1.0, 10.0)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


def test_prune_high_gamma_aggressive():
    spt = python_to_spt(CORPUS["isprime"])
    query = extract_features(python_to_spt("unrelated_name()"))
    pruned = prune_spt(spt, query, gamma=10.0)
    kept = [leaf for leaf in pruned.leaves() if leaf.token != "..."]
    assert len(kept) < sum(1 for _ in spt.leaves())
