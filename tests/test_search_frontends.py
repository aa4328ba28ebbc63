"""Tests for the standalone search front-ends (repro.search)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aroma.spt import ParseFailure
from repro.search import CodeSearch, SemanticSearch

ITEMS = [
    {"id": 1, "name": "IsPrime", "description": "Checks whether a number is prime."},
    {"id": 2, "name": "WordCount", "description": "Counts words in text."},
    {"id": 3, "name": "AnomalyDetector", "description": "Detects anomalies in streams."},
]


# -- semantic --------------------------------------------------------------------


@pytest.fixture()
def semantic():
    s = SemanticSearch()
    for item in ITEMS:
        s.add(item["id"], item["description"])
    return s


def test_semantic_ranks_relevant_first(semantic):
    results = semantic.search("find anomalies in a sensor stream")
    assert results[0][0] == 3


def test_semantic_len_contains(semantic):
    assert len(semantic) == 3
    assert 1 in semantic
    assert 99 not in semantic


def test_semantic_add_updates_in_place(semantic):
    semantic.add(1, "totally different topic about databases")
    assert len(semantic) == 3
    results = semantic.search("database topics")
    assert results[0][0] == 1


def test_semantic_remove(semantic):
    assert semantic.remove(2) is True
    assert semantic.remove(2) is False
    assert len(semantic) == 2
    ids = [i for i, _ in semantic.search("anything", top_k=10)]
    assert 2 not in ids


def test_semantic_remove_keeps_row_mapping(semantic):
    semantic.remove(1)
    results = semantic.search("anomalies in streams")
    assert results[0][0] == 3


def test_semantic_empty():
    assert SemanticSearch().search("query") == []


def test_semantic_precomputed_vectors():
    s = SemanticSearch()
    vec = s.embedder.encode("counts words")[0].tolist()
    s.add_precomputed("w", vec)
    results = s.search("word counting")
    assert results[0][0] == "w"


def test_semantic_top_k(semantic):
    assert len(semantic.search("anything", top_k=2)) == 2


# -- code ---------------------------------------------------------------------------


CODES = {
    "prod": "class NumberProducer(ProducerPE):\n    def _process(self, i):\n        return random.randint(1, 1000)\n",
    "prime": "class IsPrime(IterativePE):\n    def _process(self, n):\n        return n if all(n % i for i in range(2, n)) else None\n",
}


@pytest.fixture()
def code_index():
    cs = CodeSearch()
    for k, v in CODES.items():
        cs.add(k, v)
    return cs


def test_code_spt_search(code_index):
    hits = code_index.search("random.randint(1, 1000)")
    assert hits and hits[0][0] == "prod"
    assert hits[0][1] >= 6.0


def test_code_spt_threshold_filters(code_index):
    assert code_index.search_spt("unrelated_identifier", threshold=6.0) == []


def test_code_llm_search(code_index):
    hits = code_index.search(CODES["prime"], embedding_type="llm")
    assert hits[0][0] == "prime"
    assert hits[0][1] == pytest.approx(1.0)


def test_code_unknown_type(code_index):
    with pytest.raises(ValueError):
        code_index.search("x", embedding_type="bert")


def test_code_remove(code_index):
    assert code_index.remove("prod") is True
    assert code_index.remove("prod") is False
    assert code_index.search_spt("random.randint(1, 1000)", threshold=1.0) != [
        ("prod", pytest.approx(12.0))
    ]


def test_code_spt_ties_rank_by_id_not_its_string():
    """Equal scores rank by id: integer row ids in registration order,
    so 9 comes before 10."""
    cs = CodeSearch()
    cs.add(9, CODES["prime"])
    cs.add(10, CODES["prime"])
    assert [i for i, _ in cs.search_spt(CODES["prime"], threshold=1.0)] == [9, 10]


def test_code_unparseable_snippet_raises(code_index):
    with pytest.raises(ParseFailure):
        code_index.search_spt("£$%^&*")


def test_code_precomputed_features():
    cs = CodeSearch()
    cs.add("x", "ignored source", features={"foo": 2, "bar": 1})
    hits = cs.search_spt("foo\nbar", threshold=1.0)
    assert hits and hits[0][0] == "x"


def test_code_empty_llm():
    assert CodeSearch().search_llm("x") == []


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(list(CODES)))
def test_code_self_retrieval(key):
    cs = CodeSearch()
    for k, v in CODES.items():
        cs.add(k, v)
    hits = cs.search_spt(CODES[key], threshold=1.0)
    assert hits[0][0] == key


def test_code_owner_partitions():
    """Each owner's query scores only its snippets; unscoped sees all."""
    cs = CodeSearch()
    cs.add("a1", CODES["prod"], owner=1)
    cs.add("b1", CODES["prod"], owner=2)
    cs.add("a2", CODES["prime"], owner=1)
    assert [i for i, _ in cs.search_spt(CODES["prod"], threshold=1.0, owner=2)] == ["b1"]
    assert [i for i, _ in cs.search_spt(CODES["prod"], threshold=1.0, owner=1)] == ["a1", "a2"]
    assert [i for i, _ in cs.search_spt(CODES["prod"], threshold=1.0)] == ["a1", "b1", "a2"]
    assert [i for i, _ in cs.search_llm(CODES["prime"], top_k=1, owner=2)] == ["b1"]
    assert cs.search_spt(CODES["prod"], threshold=1.0, top_k=None, owner=3) == []
    cs.add("a1", CODES["prod"], owner=2)  # re-added under another owner: moves
    assert cs.remove("a2") and len(cs) == 2
    assert [i for i, _ in cs.search_spt(CODES["prod"], threshold=1.0, owner=1)] == []
    assert [i for i, _ in cs.search_spt(CODES["prod"], threshold=1.0, owner=2)] == ["a1", "b1"]
