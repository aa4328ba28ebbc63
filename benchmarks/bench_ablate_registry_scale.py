"""A7 — §IV-D: registry scalability under growing content.

The paper motivates the schema rework with "stability and scalability
... efficiently store larger datasets" (String → CLOB columns, added
indexes).  This bench loads the registry at increasing sizes and
measures the operations a user feels: PE registration (with metadata
generation), literal search (a SQL substring scan), semantic search and
code recommendation — confirming search stays interactive as the
registry grows and registration cost is flat (no O(n) rebuild per
insert).
"""

import time

import pytest

from repro.laminar.server.app import LaminarServer

SIZES = (50, 200, 400)


@pytest.fixture(scope="module")
def loaded_servers(corpus_eval):
    servers = {}
    for size in SIZES:
        server = LaminarServer()
        guest = server.auth.resolve(None)
        t0 = time.perf_counter()
        for item in corpus_eval[:size]:
            server.registry.register_pe(
                guest, item.pe_source, name=item.pe_name, description=item.description
            )
        load_seconds = time.perf_counter() - t0
        servers[size] = (server, load_seconds)
    return servers


def test_registry_scalability(report, loaded_servers, benchmark):
    rows = [
        f"{'PEs':>5}  {'load/PE ms':>10}  {'literal ms':>10}  "
        f"{'semantic ms':>11}  {'recommend ms':>12}"
    ]
    measured = {}
    for size, (server, load_seconds) in loaded_servers.items():
        def timed(fn, repeats=5):
            t0 = time.perf_counter()
            for _ in range(repeats):
                fn()
            return (time.perf_counter() - t0) / repeats * 1e3

        literal = timed(lambda: server.registry.literal_search("average"))
        semantic = timed(
            lambda: server.registry.semantic_search("compute a moving average")
        )
        recommend = timed(
            lambda: server.registry.code_recommendation(
                "def f(values):\n    total = 0\n    for v in values:\n        total += v",
                threshold=1.0,
            )
        )
        measured[size] = (load_seconds / size * 1e3, literal, semantic, recommend)
        rows.append(
            f"{size:>5}  {measured[size][0]:>10.2f}  {literal:>10.2f}  "
            f"{semantic:>11.2f}  {recommend:>12.2f}"
        )
    report("A7 — registry scalability (§IV-D)", rows)

    # Registration cost must be ~flat (no per-insert O(n) rebuild): the
    # largest registry's per-PE load must stay within 3x of the smallest's.
    per_pe = [measured[size][0] for size in SIZES]
    assert per_pe[-1] < per_pe[0] * 3
    # Search stays interactive (sub-second) even at the largest size.
    assert measured[SIZES[-1]][2] < 1000.0
    assert measured[SIZES[-1]][3] < 1000.0

    server, _ = loaded_servers[SIZES[-1]]
    benchmark(lambda: server.registry.semantic_search("split text into chunks"))
