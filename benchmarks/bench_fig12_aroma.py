"""E2 — Fig 12: Aroma precision–recall at 0/50/75/90 % code dropped.

Paper: Aroma keeps high precision with full snippets, still performs
well at 50 % and 75 % dropped, max F1 ≈ 0.63.  The printed block is the
figure's four curves, ranked by the served structural engine
(``CodeSearch``); the timed body is one structural search against it.
"""

import pytest

from repro.eval import run_code_to_code_eval
from repro.eval.dropper import DROP_LEVELS, drop_suffix
from repro.search.code import CodeSearch


@pytest.fixture(scope="module")
def aroma_result(corpus_eval):
    return run_code_to_code_eval("aroma", corpus=corpus_eval, max_queries=160)


def test_fig12_aroma_pr_curves(report, aroma_result, benchmark, corpus_eval):
    rows = []
    for drop in DROP_LEVELS:
        curve = aroma_result.curves[drop]
        rows.append(
            f"drop {int(drop * 100):>2}%:  "
            + "  ".join(
                f"k={k}:P{p:.2f}/R{r:.2f}"
                for k, p, r, _ in curve.rows()
                if k in (1, 3, 5, 10, 20)
            )
            + f"   best F1 {curve.best_f1():.3f}"
        )
    rows.append(f"max F1 over all levels = {aroma_result.best_f1():.3f} (paper: 0.63)")
    report("Fig 12 — Aroma structural search PR vs code dropped", rows)

    # Shape gates from the paper's discussion.
    assert aroma_result.best_f1() > 0.45
    assert aroma_result.curves[0.5].best_f1() > 0.3, "Aroma must survive 50% drop"
    assert (
        aroma_result.curves[0.0].best_f1() >= aroma_result.curves[0.9].best_f1()
    )

    index = CodeSearch()
    for item in corpus_eval[:240]:
        index.add(item.uid, item.pe_source)
    query = drop_suffix(corpus_eval[0].function_source, 0.5)
    hits = benchmark(lambda: index.search_spt(query, top_k=5, threshold=0.0))
    assert hits
