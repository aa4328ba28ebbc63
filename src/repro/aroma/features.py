"""Feature extraction from simplified parse trees (Aroma §3.2).

Four feature families are extracted for every non-keyword leaf token, with
local variable names abstracted to ``#VAR`` so that structure, not naming,
drives similarity:

* **Token features** — the token itself.
* **Parent features** — ``(token, child-index, ancestor-label)`` for the
  three nearest ancestors, encoding *where* in a construct the token sits
  (e.g. "`i` is the condition of an `if`").
* **Sibling features** — ``(token, next-token)`` for adjacent non-keyword
  leaves, encoding local ordering.
* **Variable-usage features** — for consecutive uses of the same local
  variable, the pair of enclosing labels, encoding dataflow context (e.g.
  "assigned under `=`, then used inside a `call`").

Features are returned as a multiset (collections.Counter) of strings;
:class:`repro.search.code.CodeSearch` ranks by the overlap of their key
sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.aroma.spt import SPTLeaf, SPTNode

__all__ = ["extract_features", "feature_set", "FeatureConfig"]

#: Abstract stand-in for local variable names.
VAR = "#VAR"

#: How many ancestors contribute parent features (Aroma uses 3).
N_ANCESTORS = 3


@dataclass(frozen=True)
class FeatureConfig:
    """Which Aroma feature families to extract (all on by default).

    Exists so the feature families can be ablated individually — the
    original Aroma paper studies exactly this, and
    ``benchmarks/bench_ablate_aroma_features.py`` reproduces the study on
    the synthetic corpus.
    """

    token: bool = True
    parent: bool = True
    sibling: bool = True
    variable_usage: bool = True
    n_ancestors: int = N_ANCESTORS
    abstract_variables: bool = True


DEFAULT_CONFIG = FeatureConfig()


def _walk(
    node: SPTNode,
    ancestors: list[tuple[str, int]],
    leaves: list[tuple[SPTLeaf, list[tuple[str, int]]]],
) -> None:
    for idx, child in enumerate(node.children):
        if isinstance(child, SPTLeaf):
            leaves.append((child, ancestors + [(node.label, idx)]))
        else:
            _walk(child, ancestors + [(node.label, idx)], leaves)


def extract_features(
    spt: SPTNode, config: FeatureConfig = DEFAULT_CONFIG
) -> Counter:
    """Extract Aroma's four feature families from one SPT.

    ``config`` selects which families contribute (default: all four, the
    behaviour of the original system).
    """
    leaves: list[tuple[SPTLeaf, list[tuple[str, int]]]] = []
    _walk(spt, [], leaves)

    features: Counter = Counter()
    last_context_for_var: dict[str, str] = {}

    tokens_abstract: list[str] = []
    for leaf, chain in leaves:
        token = (
            VAR if (leaf.is_variable and config.abstract_variables) else leaf.token
        )
        tokens_abstract.append(token)

        if config.token:
            features[token] += 1

        if config.parent:
            # Parent features: nearest n_ancestors ancestors, nearest first.
            for depth, (label, idx) in enumerate(
                reversed(chain[-config.n_ancestors :])
            ):
                features[f"{token}>{depth}>{idx}>{label}"] += 1

        if config.variable_usage and leaf.is_variable:
            enclosing = chain[-1][0] if chain else ""
            prev = last_context_for_var.get(leaf.token)
            if prev is not None:
                features[f"{prev}-->{enclosing}"] += 1
            last_context_for_var[leaf.token] = enclosing

    if config.sibling:
        # Sibling features: adjacent non-keyword leaves in DFS order.
        for a, b in zip(tokens_abstract, tokens_abstract[1:]):
            features[f"{a}~{b}"] += 1

    return features


def feature_set(
    spt: SPTNode, config: FeatureConfig = DEFAULT_CONFIG
) -> frozenset[str]:
    """The feature *set* (ignoring multiplicity) — used by LSH and overlap
    scoring, where Aroma treats features as a set."""
    return frozenset(extract_features(spt, config))
