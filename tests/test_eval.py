"""Tests for evaluation metrics, the dropper and the experiment harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (
    PRCurve,
    drop_suffix,
    f1_score,
    precision_recall_at_k,
    run_code_to_code_eval,
    run_description_eval,
    run_text_to_code_eval,
    token_f1,
)
from repro.eval.dropper import DROP_LEVELS
from repro.eval.metrics import average_pr_curve


# -- precision / recall -----------------------------------------------------


def test_precision_recall_basics():
    ranked = ["a", "b", "c", "d"]
    relevant = {"a", "c"}
    assert precision_recall_at_k(ranked, relevant, 1) == (1.0, 0.5)
    assert precision_recall_at_k(ranked, relevant, 2) == (0.5, 0.5)
    assert precision_recall_at_k(ranked, relevant, 4) == (0.5, 1.0)


def test_precision_recall_empty_relevant():
    assert precision_recall_at_k(["a"], set(), 1) == (0.0, 0.0)


def test_precision_recall_invalid_k():
    with pytest.raises(ValueError):
        precision_recall_at_k(["a"], {"a"}, 0)


def test_f1_score():
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)


@given(p=st.floats(0, 1), r=st.floats(0, 1))
def test_f1_bounded_by_min_and_max(p, r):
    f1 = f1_score(p, r)
    assert 0.0 <= f1 <= 1.0
    assert f1 <= max(p, r) + 1e-12
    if p > 0 and r > 0:
        assert f1 >= min(p, r) * 0.999 or f1 <= max(p, r)


def test_average_pr_curve():
    rankings = [
        (["a", "b"], {"a"}),
        (["x", "y"], {"y"}),
    ]
    curve = average_pr_curve(rankings, max_k=2)
    assert curve.ks == [1, 2]
    assert curve.precision[0] == 0.5  # one hit@1 of two queries
    assert curve.recall[1] == 1.0


def test_average_pr_curve_skips_empty_relevant():
    curve = average_pr_curve([(["a"], set()), (["a"], {"a"})], max_k=1)
    assert curve.precision[0] == 1.0


def test_average_pr_curve_no_queries():
    curve = average_pr_curve([], max_k=3)
    assert curve.precision == [0.0, 0.0, 0.0]


def test_prcurve_best_f1_and_rows():
    curve = PRCurve(ks=[1, 2], precision=[1.0, 0.5], recall=[0.5, 1.0])
    assert curve.best_f1() == pytest.approx(2 / 3)
    assert curve.best_k() in (1, 2)
    rows = curve.rows()
    assert rows[0][0] == 1 and len(rows[0]) == 4


def test_prcurve_empty():
    assert PRCurve().best_f1() == 0.0
    assert PRCurve().best_k() == 0


# -- token F1 ------------------------------------------------------------------


def test_token_f1_identical():
    assert token_f1("checks prime numbers", "checks prime numbers") == 1.0


def test_token_f1_disjoint():
    assert token_f1("completely different words", "prime numbers") == 0.0


def test_token_f1_handles_inflection():
    assert token_f1("detects anomalies", "anomaly detection") > 0.4


def test_token_f1_empty():
    assert token_f1("", "reference") == 0.0


# -- dropper --------------------------------------------------------------------


def test_drop_zero_is_identity():
    src = "a\nb\nc"
    assert drop_suffix(src, 0.0) == src


def test_drop_half():
    src = "\n".join(f"line{i}" for i in range(10))
    kept = drop_suffix(src, 0.5).splitlines()
    assert len(kept) == 5
    assert kept[0] == "line0"


def test_drop_always_keeps_one_line():
    assert drop_suffix("only_line", 0.9) == "only_line"


def test_drop_ignores_blank_lines():
    src = "a\n\n\nb\nc"
    assert drop_suffix(src, 0.5).splitlines() == ["a", "b"]


def test_drop_validates_fraction():
    with pytest.raises(ValueError):
        drop_suffix("x", 1.0)
    with pytest.raises(ValueError):
        drop_suffix("x", -0.1)


@given(frac=st.floats(0.01, 0.99), n=st.integers(1, 50))
def test_drop_monotone(frac, n):
    src = "\n".join(f"l{i}" for i in range(n))
    kept = drop_suffix(src, frac).splitlines()
    assert 1 <= len(kept) <= n


def test_paper_drop_levels():
    assert DROP_LEVELS == (0.0, 0.5, 0.75, 0.9)


# -- experiment harness (small corpora for speed) ----------------------------------


def test_text_to_code_eval_runs():
    res = run_text_to_code_eval(corpus_size=40)
    assert res.n_corpus == 40
    assert 0.0 < res.best_f1 <= 1.0
    assert len(res.curve.ks) == 20


def test_text_to_code_is_effective():
    """Sanity floor: semantic search must beat random by a wide margin."""
    res = run_text_to_code_eval(corpus_size=60)
    assert res.best_f1 > 0.4


def test_code_to_code_eval_aroma_beats_reacc():
    """The paper's central claim (Figs 12 vs 13).

    Needs ≥5 members per family for a stable margin — at ~2 members the
    relevant sets are too small to separate the models reliably.
    """
    from repro.datasets import generate_corpus

    corpus = generate_corpus(240)
    aroma = run_code_to_code_eval("aroma", corpus=corpus, drops=(0.0, 0.5), max_queries=60)
    reacc = run_code_to_code_eval("reacc", corpus=corpus, drops=(0.0, 0.5), max_queries=60)
    assert aroma.best_f1() > reacc.best_f1()
    # robustness on partial snippets: Aroma's 50%-drop F1 beats ReACC's
    assert aroma.curves[0.5].best_f1() > reacc.curves[0.5].best_f1()


def test_code_to_code_eval_degrades_with_drop():
    res = run_code_to_code_eval(
        "aroma", corpus_size=80, drops=(0.0, 0.9), max_queries=40
    )
    assert res.curves[0.0].best_f1() >= res.curves[0.9].best_f1()


def test_aroma_ranking_of_unparseable_query_is_corpus_order():
    """A query that does not parse scores every row zero, so the served
    engine's ranking falls back to corpus order (minus the query)."""
    from dataclasses import replace

    from repro.datasets import generate_corpus
    from repro.eval.harness import _aroma_rankings

    corpus = generate_corpus(12)
    corpus[0] = replace(corpus[0], function_source="£$%^&*")
    ranked, _ = next(_aroma_rankings(corpus, 0.0, max_k=20, max_queries=1))
    assert ranked == [item.uid for item in corpus[1:]]


def test_code_to_code_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        run_code_to_code_eval("gpt")


def test_description_eval_full_class_wins():
    """The paper's Fig 10 claim."""
    scores = run_description_eval(corpus_size=40)
    assert scores["full_class"] > scores["process_only"]
