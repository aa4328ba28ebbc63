"""Tests for the synthetic CodeSearchNet-PE corpus generator."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    FAMILIES,
    function_to_pe,
    generate_corpus,
    render_variant,
)
from repro.datasets.codesearchnet import family_of
from repro.datasets.peconvert import pe_class_name


def test_every_template_variant_parses():
    for family in FAMILIES:
        for v in range(len(family.variants)):
            for seed in range(3):
                _, src = render_variant(family, v, seed)
                ast.parse(src)  # raises on failure


def test_render_is_deterministic():
    fam = FAMILIES[0]
    assert render_variant(fam, 0, 5) == render_variant(fam, 0, 5)


def test_corpus_does_not_depend_on_the_hash_seed():
    """Two interpreters with different ``PYTHONHASHSEED`` render the same
    corpus: identifier choice is seeded from a stable digest, not
    ``hash()``, which is salted per process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "from repro.datasets import generate_corpus\n"
        "for item in generate_corpus(120):\n"
        "    print(repr(item.function_source))\n"
    )

    def render(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        return proc.stdout

    first = render(1)
    assert first.count("\n") == 120
    assert render(68) == first


def test_render_seeds_change_identifiers():
    fam = FAMILIES[0]
    _, a = render_variant(fam, 0, 0)
    _, b = render_variant(fam, 0, 1)
    assert a != b


def test_render_same_variant_same_structure():
    """Renamed renders of one variant have identical SPT feature sets."""
    from repro.aroma import extract_features, python_to_spt

    fam = FAMILIES[0]
    _, a = render_variant(fam, 0, 0)
    _, b = render_variant(fam, 0, 2)

    def structural(src):
        # keep only variable-abstracted structural features (ignore the
        # concrete function-name token features, which legitimately differ)
        names = set()
        for f in (a, b):
            tree = ast.parse(f)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
        return {
            feat
            for feat in extract_features(python_to_spt(src))
            if not any(n in feat for n in names)
        }

    assert structural(a) == structural(b)


def test_families_have_multiple_variants():
    assert all(len(f.variants) >= 2 for f in FAMILIES)
    assert len(FAMILIES) >= 30


def test_pe_class_name():
    assert pe_class_name("moving_average") == "MovingAveragePE"
    assert pe_class_name("gcd", "0003") == "GcdPE_0003"


def test_function_to_pe_single_arg():
    name, src = function_to_pe("def double(x):\n    return x * 2\n")
    assert name == "DoublePE"
    ast.parse(src)
    assert "def _process(self, data):" in src
    assert "return double(data)" in src


def test_function_to_pe_multi_arg_uses_tuple():
    _, src = function_to_pe("def add(a, b):\n    return a + b\n")
    assert "return add(*data)" in src


def test_function_to_pe_defaulted_args_not_unpacked():
    _, src = function_to_pe("def clip(x, lo=0):\n    return max(x, lo)\n")
    assert "return clip(data)" in src


def test_function_to_pe_keeps_description():
    _, src = function_to_pe("def f(x):\n    return x\n", description="My PE.")
    assert '"""My PE."""' in src


def test_function_to_pe_rejects_non_function():
    with pytest.raises(ValueError, match="function"):
        function_to_pe("x = 1\n")


def test_function_to_pe_logic_before_init():
    """The function logic must precede __init__ so prefix truncation
    keeps the distinguishing code (Figs 12/13 protocol)."""
    _, src = function_to_pe("def f(x):\n    return x\n")
    assert src.index("_process") < src.index("__init__")


def test_generated_pe_is_runnable():
    """The PE class actually executes under the d4py engine."""
    from repro.d4py import IterativePE, run_graph
    from repro.d4py.core import pes_from_iterable
    from tests.helpers import pipeline

    _, src = function_to_pe("def double(x):\n    return x * 2\n")
    namespace = {"IterativePE": IterativePE}
    exec(src, namespace)
    pe = namespace["DoublePE"]()
    graph = pipeline(pes_from_iterable([1, 2, 3], name="src"), pe)
    result = run_graph(graph, input=3)
    assert result.output_for(pe.name) == [2, 4, 6]


def test_corpus_size_and_uniqueness():
    corpus = generate_corpus(100)
    assert len(corpus) == 100
    assert len({c.uid for c in corpus}) == 100
    assert len({c.pe_name for c in corpus}) == 100


def test_corpus_all_pe_sources_parse():
    for item in generate_corpus(80):
        ast.parse(item.pe_source)


def test_corpus_min_per_family():
    corpus = generate_corpus(60, min_per_family=2)
    groups = family_of(corpus)
    assert all(len(members) >= 2 for members in groups.values())


def test_corpus_small_n_limits_families():
    corpus = generate_corpus(4)
    assert len(family_of(corpus)) <= 2


def test_corpus_rejects_zero():
    with pytest.raises(ValueError):
        generate_corpus(0)


def test_corpus_deterministic():
    a = generate_corpus(30)
    b = generate_corpus(30)
    assert a == b


def test_corpus_prefix_property():
    """A prefix of a bigger corpus equals the smaller one (same family
    count — below 2x families the generator narrows the family set)."""
    n = 2 * len(FAMILIES)
    small, big = generate_corpus(n), generate_corpus(2 * n)
    assert big[:n] == small


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 60))
def test_corpus_any_size(n):
    corpus = generate_corpus(n)
    assert len(corpus) == n


# -- corpus JSONL serialisation -------------------------------------------------


def test_corpus_jsonl_roundtrip(tmp_path):
    from repro.datasets.io import dump_jsonl, load_jsonl

    corpus = generate_corpus(30)
    path = tmp_path / "corpus.jsonl"
    assert dump_jsonl(corpus, path) == 30
    loaded = load_jsonl(path)
    assert loaded == corpus


def test_corpus_jsonl_rejects_bad_json(tmp_path):
    from repro.datasets.io import load_jsonl

    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_jsonl(path)


def test_corpus_jsonl_rejects_missing_fields(tmp_path):
    from repro.datasets.io import load_jsonl

    path = tmp_path / "short.jsonl"
    path.write_text('{"uid": "x"}\n')
    with pytest.raises(ValueError, match="missing fields"):
        load_jsonl(path)


def test_corpus_jsonl_rejects_unknown_fields(tmp_path):
    import dataclasses
    import json as _json

    from repro.datasets.io import dump_jsonl, load_jsonl

    corpus = generate_corpus(1)
    payload = dataclasses.asdict(corpus[0])
    payload["surprise"] = True
    path = tmp_path / "extra.jsonl"
    path.write_text(_json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match="unknown fields"):
        load_jsonl(path)


def test_corpus_jsonl_skips_blank_lines(tmp_path):
    import dataclasses
    import json as _json

    from repro.datasets.io import load_jsonl

    corpus = generate_corpus(2)
    path = tmp_path / "gaps.jsonl"
    path.write_text(
        _json.dumps(dataclasses.asdict(corpus[0]))
        + "\n\n"
        + _json.dumps(dataclasses.asdict(corpus[1]))
        + "\n"
    )
    assert load_jsonl(path) == corpus
