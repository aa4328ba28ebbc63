"""Tests for the scalable vector-index subsystem (repro.search.index).

Covers the exact :class:`VectorIndex` (amortized growth, tombstones,
argpartition top-k, owner scoping), the persistence layer (round-trips,
memmap warm loads, loud corruption failures), the MinHash LSH re-add and
remove fixes, and the registry-service integration (incremental deltas,
warm restart identical to fresh rebuild, corrupt-index fallback, legacy
index directories).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.aroma.lsh import MinHashLSHIndex
from repro.laminar.client.client import ClientError, LaminarClient
from repro.laminar.server.app import LaminarServer
from repro.search.index import (
    IndexPersistenceError,
    VectorIndex,
    load_index,
    manifest_info,
    save_index,
)


def _corpus(n, dim=32, clusters=20, seed=0, spread=0.15):
    """Seeded clustered corpus: ``clusters`` bases, noise-perturbed copies."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((clusters, dim))
    reps = -(-n // clusters)
    vecs = np.repeat(base, reps, axis=0)[:n]
    vecs = vecs + spread * rng.standard_normal((n, dim))
    return vecs.astype(np.float32)


def _brute_force_top_k(vectors, query, k):
    vn = vectors / np.maximum(
        np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12
    )
    qn = np.asarray(query, dtype=np.float32)
    qn = qn / max(np.linalg.norm(qn), 1e-12)
    sims = vn.astype(np.float32) @ qn
    return list(np.argsort(-sims, kind="stable")[:k])


# -- VectorIndex -----------------------------------------------------------


def test_vector_index_matches_brute_force():
    vecs = _corpus(200)
    vi = VectorIndex(32)
    vi.add_batch(list(range(200)), vecs)
    q = vecs[5] + 0.01
    assert [i for i, _ in vi.search_vector(q, top_k=10)] == _brute_force_top_k(
        vecs, q, 10
    )


def test_vector_index_incremental_equals_bulk():
    vecs = _corpus(100)
    one, bulk = VectorIndex(32), VectorIndex(32)
    for i in range(100):
        one.add(i, vecs[i])
    bulk.add_batch(list(range(100)), vecs)
    q = vecs[17]
    assert [i for i, _ in one.search_vector(q, top_k=10)] == [
        i for i, _ in bulk.search_vector(q, top_k=10)
    ]


def test_vector_index_update_in_place():
    vi = VectorIndex(4)
    vi.add("a", [1, 0, 0, 0])
    vi.add("b", [0, 1, 0, 0])
    vi.add("a", [0, 0, 1, 0])  # re-add updates, no new row
    assert len(vi) == 2
    assert vi.search_vector([0, 0, 1, 0], top_k=1)[0][0] == "a"


def test_vector_index_remove_is_tombstone():
    vecs = _corpus(50)
    vi = VectorIndex(32)
    vi.add_batch(list(range(50)), vecs)
    assert vi.remove(3) is True
    assert vi.remove(3) is False
    assert 3 not in vi
    assert len(vi) == 49
    stats = vi.stats()
    assert stats["tombstones"] == 1  # masked, not renumbered
    ids = [i for i, _ in vi.search_vector(vecs[3], top_k=50)]
    assert 3 not in ids and len(ids) == 49


def test_vector_index_compacts_when_mostly_tombstones():
    vecs = _corpus(300)
    vi = VectorIndex(32)
    vi.add_batch(list(range(300)), vecs)
    for i in range(200):
        vi.remove(i)
    stats = vi.stats()
    assert stats["compactions"] >= 1
    assert stats["tombstones"] < 150
    survivors = [i for i, _ in vi.search_vector(vecs[250], top_k=300)]
    assert sorted(survivors) == list(range(200, 300))


def test_vector_index_top_k_larger_than_corpus():
    vi = VectorIndex(8)
    vi.add("x", np.ones(8))
    assert len(vi.search_vector(np.ones(8), top_k=10)) == 1
    assert VectorIndex(8).search_vector(np.ones(8), top_k=3) == []


def test_vector_index_dim_mismatch():
    vi = VectorIndex(8)
    with pytest.raises(ValueError):
        vi.add("x", np.ones(9))
    with pytest.raises(ValueError):
        vi.add_batch(["x"], np.ones((1, 9)))


def test_vector_index_deterministic_tie_break():
    vi = VectorIndex(4)
    for name in ("first", "second", "third"):
        vi.add(name, [1, 0, 0, 0])  # identical vectors: exact ties
    result = [i for i, _ in vi.search_vector([1, 0, 0, 0], top_k=2)]
    assert result == ["first", "second"]  # insertion order wins


def test_owner_scoped_search_is_brute_force_over_owner_rows():
    """Tags follow their rows through growth, updates and compaction; a
    scoped query is the unscoped ranking restricted to the owner's rows,
    with identical scores."""
    vecs = _corpus(400)
    vi = VectorIndex(32)
    owner = {i: i % 3 for i in range(400)}
    for i in range(300):
        vi.add(i, vecs[i], tag=owner[i])  # grows 64 → 512 rows
    vi.add_batch(list(range(300, 400)), vecs[300:], tags=[owner[i] for i in range(300, 400)])
    vi.add(7, vecs[8], tag=owner[7])  # update in place keeps the tag
    for i in range(400):
        if i % 5:
            vi.remove(i)  # 80 rows survive: compaction ran
    assert vi.stats()["reallocations"] >= 1 and vi.stats()["compactions"] >= 1
    q = vecs[123] + 0.05
    every = vi.search_vector(q, top_k=400)
    for tag in range(3):
        mine = vi.search_vector(q, top_k=15, owner=tag)
        assert mine == [(i, s) for i, s in every if owner[i] == tag][:15]
    assert vi.search_vector(q, top_k=5, owner=99) == []


def test_scores_do_not_depend_on_row_position():
    """A rebuilt index (other rows, other positions) scores every row the
    same: scoped and unscoped rankings agree to the bit."""
    vecs = _corpus(130, seed=4)
    live = VectorIndex(32)
    live.add_batch(list(range(130)), vecs, tags=[i % 2 for i in range(130)])
    for i in range(0, 130, 3):
        live.remove(i)
    fresh = VectorIndex(32)
    kept = [i for i in range(130) if i % 3 and i % 2]
    fresh.add_batch(kept, vecs[kept])
    q = vecs[50]
    assert live.search_vector(q, top_k=len(kept), owner=1) == fresh.search_vector(q, top_k=200)


def test_loaded_index_is_untagged_until_set_tags(tmp_path):
    vecs = _corpus(20)
    vi = VectorIndex(32)
    vi.add_batch(list(range(20)), vecs, tags=[i % 2 for i in range(20)])
    save_index(vi, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.search_vector(vecs[0], top_k=5, owner=0) == []
    loaded.set_tags({i: i % 2 for i in range(20)})
    assert loaded.search_vector(vecs[0], top_k=5, owner=0) == vi.search_vector(
        vecs[0], top_k=5, owner=0
    )


# -- amortized add (satellite: the old per-add vstack was O(n²)) -----------


def test_add_is_amortized_geometric_growth():
    vi = VectorIndex(16)
    for i in range(10_000):
        vi.add(i, np.ones(16))
    # Capacity doubling: ~log2(10000/64) ≈ 8 reallocations, not one per
    # add as vstack effectively did.
    assert vi.stats()["reallocations"] <= 10


def test_add_total_time_within_constant_factor_of_bulk():
    vecs = _corpus(10_000, dim=16)
    started = time.perf_counter()
    one = VectorIndex(16)
    for i in range(10_000):
        one.add(i, vecs[i])
    incremental = time.perf_counter() - started
    started = time.perf_counter()
    bulk = VectorIndex(16)
    bulk.add_batch(list(range(10_000)), vecs)
    bulk_time = time.perf_counter() - started
    # The old vstack build was ~n/2 copies ≈ thousands of times slower
    # than bulk at n=10k; amortized growth stays within a small constant
    # factor (Python-call overhead only).  Generous bound for slow CI.
    assert incremental < max(100 * bulk_time, 2.0)
    assert len(one) == len(bulk) == 10_000


# -- persistence -----------------------------------------------------------


@pytest.fixture()
def saved_index(tmp_path):
    vecs = _corpus(120)
    vi = VectorIndex(32)
    vi.add_batch(list(range(120)), vecs)
    vi.remove(7)  # tombstones must not survive the save
    save_index(vi, tmp_path / "idx")
    return vi, vecs, tmp_path / "idx"


def test_persistence_round_trip_identical_results(saved_index):
    vi, vecs, path = saved_index
    loaded = load_index(path)
    q = vecs[42] + 0.01
    a = vi.search_vector(q, top_k=10)
    b = loaded.search_vector(q, top_k=10)
    assert [i for i, _ in a] == [i for i, _ in b]
    assert np.allclose([s for _, s in a], [s for _, s in b], atol=1e-6)
    assert 7 not in loaded and len(loaded) == 119


def test_persistence_memmap_load_is_mutable_after_copy(saved_index):
    _, vecs, path = saved_index
    loaded = load_index(path, mmap=True)
    assert loaded.stats()["readonly"] is True
    loaded.add("new", np.ones(32))  # first write materializes the memmap
    assert "new" in loaded and loaded.stats()["readonly"] is False


def test_persistence_truncated_vectors_fail_loud(saved_index):
    _, _, path = saved_index
    raw = (path / "vectors.npy").read_bytes()
    (path / "vectors.npy").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(IndexPersistenceError) as err:
        load_index(path)
    assert err.value.reason in ("bad-vectors", "shape")


def test_persistence_corrupted_bytes_fail_checksum(saved_index):
    _, _, path = saved_index
    raw = bytearray((path / "vectors.npy").read_bytes())
    raw[-100] ^= 0xFF  # flip data bits, keep shape valid
    (path / "vectors.npy").write_bytes(bytes(raw))
    with pytest.raises(IndexPersistenceError) as err:
        load_index(path)
    assert err.value.reason == "checksum"


def test_persistence_version_and_missing(saved_index, tmp_path):
    _, _, path = saved_index
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["version"] = 99
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexPersistenceError) as err:
        load_index(path)
    assert err.value.reason == "version"
    with pytest.raises(IndexPersistenceError) as err:
        load_index(tmp_path / "nowhere")
    assert err.value.reason == "missing"


def test_persistence_manifest_info(saved_index):
    _, _, path = saved_index
    info = manifest_info(path)
    assert info["count"] == 119 and info["dim"] == 32


# -- MinHash LSH fixes (satellite) -----------------------------------------


def test_minhash_duplicate_re_add_no_duplicates():
    idx = MinHashLSHIndex(num_perm=16, bands=4, rows=4)
    idx.add("a", {"f1", "f2", "f3"})
    idx.add("a", {"f1", "f2", "f3"})  # same features, added twice
    assert len(idx) == 1
    candidates = idx.candidates({"f1", "f2", "f3"})
    assert candidates == {"a"}
    # the underlying buckets must hold 'a' once per band, not twice
    for band_buckets in idx._buckets:
        for bucket in band_buckets.values():
            assert bucket.count("a") <= 1


def test_minhash_re_add_with_new_features_drops_stale_buckets():
    idx = MinHashLSHIndex(num_perm=16, bands=4, rows=4)
    idx.add("a", {"old1", "old2", "old3"})
    idx.add("a", {"new1", "new2", "new3"})
    assert idx.candidates({"old1", "old2", "old3"}) == set()
    assert "a" in idx.candidates({"new1", "new2", "new3"})
    hits = idx.query({"new1", "new2", "new3"})
    assert hits and hits[0][0] == "a" and hits[0][1] == pytest.approx(1.0)


def test_minhash_remove_then_query():
    idx = MinHashLSHIndex(num_perm=16, bands=4, rows=4)
    idx.add("a", {"x", "y"})
    idx.add("b", {"x", "z"})
    assert idx.remove("a") is True
    assert idx.remove("a") is False
    assert len(idx) == 1
    assert "a" not in idx.candidates({"x", "y"})
    assert [h[0] for h in idx.query({"x", "z"})] == ["b"]


# -- registry-service integration ------------------------------------------


_PE_TEMPLATE = (
    "class {name}(IterativePE):\n"
    "    def _process(self, item):\n"
    "        return item  # {tag}\n"
)

_DESCRIPTIONS = [
    "Counts the words in each line of text.",
    "Filters the stream keeping only prime numbers.",
    "Detects anomalies in a sensor stream.",
    "Sorts incoming records by their timestamp.",
    "Splits text into lowercase tokens.",
    "Computes a running average of values.",
    "Joins two keyed streams on their key.",
    "Deduplicates repeated events in a window.",
    "Converts temperatures from celsius to fahrenheit.",
    "Aggregates counts per user session.",
    "Compresses payloads before sending downstream.",
    "Validates records against a schema.",
]


def _populate(client):
    for i, desc in enumerate(_DESCRIPTIONS):
        client.register_PE(
            _PE_TEMPLATE.format(name=f"Pe{i}", tag=i), name=f"Pe{i}", description=desc
        )


def test_service_incremental_no_rebuild_per_mutation(tmp_path):
    server = LaminarServer()
    try:
        client = LaminarClient(server=server)
        _populate(client)
        client.search_Registry_Semantic("count words")
        first = server.registry.index_stats()["kinds"]["pe"]["rebuilds"]
        client.register_PE(
            _PE_TEMPLATE.format(name="Extra", tag="x"),
            name="Extra",
            description="Extracts named entities from text.",
        )
        hits = client.search_Registry_Semantic("extract named entities")
        assert hits[0]["peName"] == "Extra"
        client.remove_PE("Extra")
        ids = [h["peName"] for h in client.search_Registry_Semantic("entities", top_k=20)]
        assert "Extra" not in ids
        # register + search + remove + search: all deltas, zero rebuilds
        stats = server.registry.index_stats()
        assert stats["kinds"]["pe"]["rebuilds"] == first
        # a PE mutation must not stale the untouched workflow index either
        assert stats["kinds"]["workflow"]["synced"] is True
        wf_rebuilds = stats["kinds"]["workflow"]["rebuilds"]
        client.register_PE(
            _PE_TEMPLATE.format(name="Another", tag="y"),
            name="Another",
            description="Normalizes unicode text fields.",
        )
        stats = server.registry.index_stats()
        assert stats["kinds"]["workflow"]["rebuilds"] == wf_rebuilds
    finally:
        server.close()


def test_service_import_triggers_rebuild(tmp_path):
    source = LaminarServer()
    target = LaminarServer()
    try:
        src_client = LaminarClient(server=source)
        _populate(src_client)
        dump = src_client.export_Registry()
        dst_client = LaminarClient(server=target)
        dst_client.search_Registry_Semantic("anything")  # build the cold index
        before = target.registry.index_stats()["kinds"]["pe"]["rebuilds"]
        dst_client.import_Registry(dump)
        hits = dst_client.search_Registry_Semantic("count words")
        assert hits and hits[0]["peName"] == "Pe0"
        assert target.registry.index_stats()["kinds"]["pe"]["rebuilds"] > before
    finally:
        source.close()
        target.close()


def test_service_restart_warm_start_identical_top10(tmp_path):
    db = str(tmp_path / "reg.sqlite")
    index_dir = str(tmp_path / "index")
    server = LaminarServer(db_path=db, index_dir=index_dir)
    try:
        client = LaminarClient(server=server)
        _populate(client)
        expected = client.search_Registry_Semantic("text processing", top_k=10)
        client.index_Save()
    finally:
        server.close()

    warm = LaminarServer(db_path=db, index_dir=index_dir)
    cold = LaminarServer(db_path=db)  # no index_dir: fresh rebuild
    try:
        warm_hits = LaminarClient(server=warm).search_Registry_Semantic(
            "text processing", top_k=10
        )
        cold_hits = LaminarClient(server=cold).search_Registry_Semantic(
            "text processing", top_k=10
        )
        assert warm_hits == cold_hits == expected
        events = warm.registry.index_stats()["events"]
        assert any("index_warm_start" in e for e in events)
        assert warm.registry.index_stats()["kinds"]["pe"]["rebuilds"] == 0
    finally:
        warm.close()
        cold.close()


def test_service_corrupt_index_rebuilds_from_registry(tmp_path):
    db = str(tmp_path / "reg.sqlite")
    index_dir = tmp_path / "index"
    server = LaminarServer(db_path=db, index_dir=str(index_dir))
    try:
        client = LaminarClient(server=server)
        _populate(client)
        expected = client.search_Registry_Semantic("prime numbers", top_k=5)
        client.index_Save()
    finally:
        server.close()

    vectors = index_dir / "pe" / "vectors.npy"
    raw = bytearray(vectors.read_bytes())
    raw[-50] ^= 0xFF
    vectors.write_bytes(bytes(raw))

    server = LaminarServer(db_path=db, index_dir=str(index_dir))
    try:
        client = LaminarClient(server=server)
        hits = client.search_Registry_Semantic("prime numbers", top_k=5)
        assert hits == expected  # correct results despite the corrupt file
        stats = server.registry.index_stats()
        assert any("index_corrupt" in e for e in stats["events"])
        assert stats["kinds"]["pe"]["rebuilds"] == 1
    finally:
        server.close()


def test_service_stale_persisted_index_rebuilds(tmp_path):
    db = str(tmp_path / "reg.sqlite")
    index_dir = str(tmp_path / "index")
    server = LaminarServer(db_path=db, index_dir=index_dir)
    try:
        client = LaminarClient(server=server)
        _populate(client)
        client.index_Save()
        # Mutate the registry *after* the save: the persisted index no
        # longer matches the truth and must not be served.
        client.register_PE(
            _PE_TEMPLATE.format(name="Late", tag="l"),
            name="Late",
            description="Translates text between languages.",
        )
    finally:
        server.close()

    server = LaminarServer(db_path=db, index_dir=index_dir)
    try:
        client = LaminarClient(server=server)
        hits = client.search_Registry_Semantic("translate languages", top_k=3)
        assert hits[0]["peName"] == "Late"
        assert any(
            "index_stale" in e for e in server.registry.index_stats()["events"]
        )
    finally:
        server.close()


def test_service_index_save_without_dir_is_400():
    server = LaminarServer()
    try:
        client = LaminarClient(server=server)
        with pytest.raises(ClientError) as err:
            client.index_Save()
        assert err.value.status == 400
    finally:
        server.close()


def test_index_save_ignores_a_client_supplied_path(tmp_path):
    """Saves go only to the server's index_dir: a payload naming another
    directory (even from the tokenless guest) writes nothing there."""
    index_dir = tmp_path / "index"
    elsewhere = tmp_path / "elsewhere"
    server = LaminarServer(index_dir=str(index_dir))
    try:
        response = server.handle({"action": "index_save", "path": str(elsewhere)})
        assert response["status"] == 200
        saved = response["body"]["saved"]
        assert all(Path(info["path"]).parent == index_dir for info in saved.values())
        assert not elsewhere.exists()
    finally:
        server.close()


def test_service_index_metrics_exposed():
    server = LaminarServer()
    try:
        client = LaminarClient(server=server)
        _populate(client)
        client.search_Registry_Semantic("words")
        text = client.get_Metrics()["text"]
        assert 'laminar_search_queries_total{mode="semantic",kind="pe"}' in text
        assert "laminar_search_query_seconds" in text
        assert "laminar_search_index_size" in text
    finally:
        server.close()


def test_legacy_two_stage_index_dir_warm_starts_as_exact(tmp_path):
    """An ``index_dir`` saved by the retired two-stage (LSH) tier — a
    manifest with an ``lsh`` key beside an LSH bucket sidecar file — still
    warm-starts: the vectors load as the exact index and every tenant's
    top-10 equals a cold rebuild's."""
    db = str(tmp_path / "reg.sqlite")
    index_dir = tmp_path / "index"
    server = LaminarServer(db_path=db, index_dir=str(index_dir))
    try:
        owners = [server.auth.resolve(None)]
        for name in ("alice", "bob"):
            server.auth.register(name, "pw")
            owners.append(server.users.by_name(name))
        for i, desc in enumerate(_DESCRIPTIONS):
            server.registry.register_pe(
                owners[i % 3], _PE_TEMPLATE.format(name=f"Pe{i}", tag=i),
                name=f"Pe{i}", description=desc,
            )
        server.registry.index_save()
    finally:
        server.close()

    pe_dir = index_dir / "pe"
    manifest = json.loads((pe_dir / "manifest.json").read_text())
    manifest["lsh"] = {"bands": 12, "rows": 10, "seed": 2024}
    (pe_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    (pe_dir / "lsh.json").write_text(json.dumps({
        "format": "repro-lsh-buckets",
        "version": 1,
        "bands": 12,
        "rows": 10,
        "seed": 2024,
        "candidate_multiplier": 4,
        "keys": [[item, ["%04x" % (item + band) for band in range(12)]]
                 for item in manifest["ids"]],
    }))

    warm = LaminarServer(db_path=db, index_dir=str(index_dir))
    cold = LaminarServer(db_path=db)
    try:
        for owner in owners:
            for query in ("text processing", "numbers in a stream"):
                warm_hits = warm.registry.semantic_search(query, top_k=10, user=owner)
                cold_hits = cold.registry.semantic_search(query, top_k=10, user=owner)
                assert warm_hits and warm_hits == cold_hits
        stats = warm.registry.index_stats()
        assert any("index_warm_start" in e and "kind=pe" in e for e in stats["events"])
        assert not any("index_corrupt" in e for e in stats["events"])
        assert stats["kinds"]["pe"]["rebuilds"] == 0
    finally:
        warm.close()
        cold.close()
