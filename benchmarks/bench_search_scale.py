#!/usr/bin/env python
"""Search-at-scale benchmark: the exact index, warm start vs rebuild.

Builds synthetic snippet corpora at 10k / 100k (and 1M with ``--full``)
vectors derived from the :mod:`repro.datasets.templates` families: the 48
family descriptions are embedded once with :class:`UniXcoderEmbedder`,
then scaled to corpus size by seeded Gaussian perturbation — the SlsReuse
function-reuse workload, where near-duplicate snippets cluster around a
shared intent.  Queries are held-out perturbations of the same bases.
Every row is tagged with one of 100 owners, so each tenant owns 1 % of
the corpus.

Per scale it measures:

* ``build_s`` — bulk :class:`VectorIndex` build from raw vectors.
* ``rebuild_s`` — rebuild-from-registry simulation: parse each stored
  JSON embedding (exactly what ``RegistryService`` does on a cold start)
  and bulk-add.  The warm-start acceptance bar compares against this.
* ``warm_start_s`` — ``save_index`` + checksum-verified ``load_index``
  (memmap), the persisted-index path.
* ``qps_exact_single`` — unscoped single-query QPS over every row (only
  library callers reach it: the server scopes every query).
* ``qps_exact_scoped`` — single-query QPS with ``owner=`` one tenant, as
  the server queries.

Every run checks that the warm-started index ranks identically and that
the scoped top-10 equals brute force over the tenant's rows.  Acceptance
bar: at 100k, warm start >= 5x faster than rebuild.  The full run commits
``BENCH_search_scale.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_search_scale.py          # 10k+100k
    PYTHONPATH=src python benchmarks/bench_search_scale.py --full   # +1M
    PYTHONPATH=src python benchmarks/bench_search_scale.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from datetime import date
from pathlib import Path

import numpy as np

try:
    from repro.search.index import VectorIndex, load_index, save_index
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.search.index import VectorIndex, load_index, save_index

from repro.datasets.templates import FAMILIES
from repro.models.embedder import UniXcoderEmbedder

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_search_scale.json"
WARM_BAR = 5.0
TENANTS = 100  # row i belongs to owner i % TENANTS: 1 % of rows each
_CHUNK = 50_000


_INTENT_BASES = 1024
_INTENT_SPREAD = 0.8  # intra-topic intent separation (relative norm)


def _base_vectors(embedder: UniXcoderEmbedder) -> np.ndarray:
    """Two-level intent space: 1024 snippet intents in 48 template topics.

    Each of the 48 :data:`FAMILIES` descriptions is a topic centroid;
    1024 intent bases are spread around them so the corpus has the shape
    of a real registry — thousands of distinct intents, each with many
    near-duplicate reuse copies — rather than 48 giant clusters.
    """
    texts = [
        f"{family.description} Processing element for streaming data."
        for family in sorted(FAMILIES, key=lambda f: f.key)
    ]
    topics = embedder.encode(texts).astype(np.float32)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal((_INTENT_BASES, topics.shape[1]), dtype=np.float32)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    base = topics[np.arange(_INTENT_BASES) % len(texts)] + _INTENT_SPREAD * noise
    return base / np.linalg.norm(base, axis=1, keepdims=True)


def _corpus(base: np.ndarray, n: int, spread: float, seed: int) -> np.ndarray:
    """n seeded perturbations of the base embeddings, L2-normalized.

    ``spread`` is the perturbation norm relative to the (unit) base
    vector — 0.2 puts near-duplicates ~11 degrees apart — so the knob is
    dimension-independent (per-dim sigma is ``spread / sqrt(dim)``).
    """
    rng = np.random.default_rng(seed)
    sigma = spread / np.sqrt(base.shape[1])
    reps = -(-n // base.shape[0])
    vecs = np.repeat(base, reps, axis=0)[:n]
    out = np.empty_like(vecs)
    for lo in range(0, n, _CHUNK):  # chunked: 1M x 256 floats at once is 1GB
        hi = min(lo + _CHUNK, n)
        chunk = vecs[lo:hi] + sigma * rng.standard_normal(
            (hi - lo, vecs.shape[1]), dtype=np.float32
        )
        out[lo:hi] = chunk / np.linalg.norm(chunk, axis=1, keepdims=True)
    return out


def _rebuild_from_json(vectors: np.ndarray) -> float:
    """Seconds to rebuild a VectorIndex from JSON-stored embeddings.

    Mirrors the registry cold path: every record's ``descEmbedding`` is a
    JSON array string that must be parsed before the bulk add.  Chunked so
    the 1M tier never holds all the strings at once.
    """
    n, dim = vectors.shape
    index = VectorIndex(dim)
    total = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        stored = [
            json.dumps(np.round(row, 8).tolist()) for row in vectors[lo:hi]
        ]
        ids = list(range(lo, hi))
        started = time.perf_counter()
        parsed = np.asarray(
            [json.loads(text) for text in stored], dtype=np.float32
        )
        index.add_batch(ids, parsed)
        total += time.perf_counter() - started
    assert len(index) == n
    return total


def _rebuild_from_json(vectors: np.ndarray) -> float:
    """Seconds to rebuild a VectorIndex from JSON-stored embeddings.

    Mirrors the registry cold path: every record's ``descEmbedding`` is a
    JSON array string that must be parsed before the bulk add.  Chunked so
    the 1M tier never holds all the strings at once.
    """
    n, dim = vectors.shape
    index = VectorIndex(dim)
    total = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        stored = [
            json.dumps(np.round(row, 8).tolist()) for row in vectors[lo:hi]
        ]
        ids = list(range(lo, hi))
        started = time.perf_counter()
        parsed = np.asarray(
            [json.loads(text) for text in stored], dtype=np.float32
        )
        index.add_batch(ids, parsed)
        total += time.perf_counter() - started
    assert len(index) == n
    return total


def _scoped_brute_force(vectors: np.ndarray, query: np.ndarray, owner: int) -> list:
    """Top-10 ids among ``owner``'s rows by a full sort (the reference)."""
    rows = np.arange(owner, vectors.shape[0], TENANTS)
    sims = vectors[rows] @ (query / np.linalg.norm(query))
    return [int(rows[i]) for i in np.argsort(-sims, kind="stable")[:10]]


def run_scale(
    base: np.ndarray, n: int, num_queries: int, spread: float
) -> dict:
    dim = base.shape[1]
    vectors = _corpus(base, n, spread=spread, seed=100 + n % 97)
    rng = np.random.default_rng(2024)
    picks = rng.choice(n, size=num_queries, replace=False)
    queries = vectors[picks] + (spread / np.sqrt(dim)) * rng.standard_normal(
        (num_queries, dim), dtype=np.float32
    )
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    owners = np.arange(n) % TENANTS

    started = time.perf_counter()
    exact = VectorIndex(dim)
    exact.add_batch(list(range(n)), vectors, tags=owners.tolist())
    build_s = time.perf_counter() - started

    rebuild_s = _rebuild_from_json(vectors)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index"
        save_index(exact, path)
        started = time.perf_counter()
        warm = load_index(path, mmap=True, verify=True)
        warm_start_s = time.perf_counter() - started
        warm_top = warm.search_vector(queries[0], top_k=10)
        if warm_top != exact.search_vector(queries[0], top_k=10):
            raise AssertionError("warm-started index must rank identically")

    started = time.perf_counter()
    for q in queries:
        exact.search_vector(q, top_k=10)
    exact_single_s = time.perf_counter() - started

    started = time.perf_counter()
    scoped = [exact.search_vector(q, top_k=10, owner=0) for q in queries]
    exact_scoped_s = time.perf_counter() - started
    for q, hits in zip(queries, scoped):
        if [i for i, _ in hits] != _scoped_brute_force(vectors, q, owner=0):
            raise AssertionError("scoped top-10 must equal brute force over the owner's rows")

    return {
        "n": n,
        "dim": dim,
        "queries": num_queries,
        "build_s": round(build_s, 3),
        "rebuild_from_json_s": round(rebuild_s, 3),
        "warm_start_s": round(warm_start_s, 4),
        "warm_vs_rebuild": round(rebuild_s / warm_start_s, 1),
        "qps_exact_single": round(num_queries / exact_single_s, 1),
        "qps_exact_scoped": round(num_queries / exact_scoped_s, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2k corpus, correctness checks only; no JSON committed",
    )
    parser.add_argument(
        "--full", action="store_true", help="add the 1M-vector tier"
    )
    parser.add_argument(
        "--spread", type=float, default=0.2, help="relative perturbation norm"
    )
    parser.add_argument(
        "--out", type=Path, default=RESULT_PATH, help="result JSON path"
    )
    args = parser.parse_args(argv)

    embedder = UniXcoderEmbedder()
    base = _base_vectors(embedder)

    if args.smoke:
        tier = run_scale(base, 2_000, num_queries=20, spread=args.spread)
        print(json.dumps(tier, indent=2))
        print("smoke OK")
        return 0

    scales = [(10_000, 200), (100_000, 100)]
    if args.full:
        scales.append((1_000_000, 50))

    tiers = []
    for n, num_queries in scales:
        print(f"--- n={n:,} ---", flush=True)
        tier = run_scale(base, n, num_queries=num_queries, spread=args.spread)
        tiers.append(tier)
        print(
            f"build {tier['build_s']}s | rebuild(json) {tier['rebuild_from_json_s']}s"
            f" | warm {tier['warm_start_s']}s ({tier['warm_vs_rebuild']}x)\n"
            f"QPS exact-single {tier['qps_exact_single']}, exact-scoped "
            f"{tier['qps_exact_scoped']} (1 tenant of {TENANTS})",
            flush=True,
        )

    at_100k = next(t for t in tiers if t["n"] == 100_000)
    payload = {
        "benchmark": "search_scale",
        "date": date.today().isoformat(),
        "host": f"{platform.machine()} {platform.system()}, {os.cpu_count()} cores",
        "corpus": f"{_INTENT_BASES} intents in {len(FAMILIES)} "
        "datasets.templates topics + seeded Gaussian reuse copies "
        f"(relative spread {args.spread}); {TENANTS} owners, 1 % of rows each",
        "embedder": f"UniXcoderEmbedder(dim={embedder.dim})",
        "tiers": tiers,
        "warm_vs_rebuild_100k": at_100k["warm_vs_rebuild"],
        "threshold_warm": WARM_BAR,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"result written to {args.out}")

    if at_100k["warm_vs_rebuild"] < WARM_BAR:
        print(f"FAIL: warm start below the {WARM_BAR}x bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
