"""Cluster mode: hash ring, routing, failover.

Covers the consistent-hash ring's core guarantees (balance,
determinism, minimal movement), the action→key→shard routing
convention, the server-side 421
misdirection gate, and — through a real 3-shard TCP cluster — the
sharded client's keyed routing, scatter-gather merges, job execution
and shard-kill failover.
"""

from __future__ import annotations

import pytest

from repro.laminar.actions import ACTIONS, CLUSTER_POLICIES
from repro.laminar.client.client import ClientError, LaminarClient
from repro.laminar.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    HashRing,
    ShardedClient,
    ShardInfo,
    ShardRouter,
    qualify_job_id,
    routing_key,
    split_job_id,
)
from repro.laminar.cluster.client import MERGES
from repro.laminar.transport.tcp import RetryPolicy

# -- workflow sources ---------------------------------------------------------

QUICK_WF = """
class Producer(ProducerPE):
    def _process(self, inputs):
        return 10
class AddOne(IterativePE):
    def _process(self, value):
        return value + 1
graph = WorkflowGraph()
graph.connect(Producer("P"), "output", AddOne("A"), "input")
"""

TRIPLER_PE = """
class Tripler(IterativePE):
    '''Multiplies each incoming value by three.'''
    def _process(self, value):
        return value * 3
"""


# -- hash ring ----------------------------------------------------------------


class TestHashRing:
    def test_deterministic_ownership(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # construction order is irrelevant
        keys = [f"workflow:wf-{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
        # and stable across repeated queries
        assert a.owner("workflow:wf-7") == a.owner("workflow:wf-7")

    def test_distribution_balance(self):
        ring = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
        keys = [f"key-{i}" for i in range(4000)]
        counts = ring.distribution(keys)
        assert set(counts) == {"s0", "s1", "s2", "s3"}
        # With 64 vnodes each shard should hold 25% ± 12 points.
        for count in counts.values():
            assert 0.13 * len(keys) <= count <= 0.37 * len(keys)

    def test_minimal_movement_on_join(self):
        keys = [f"key-{i}" for i in range(3000)]
        before = HashRing(["s0", "s1", "s2"])
        owners_before = {k: before.owner(k) for k in keys}
        after = HashRing(["s0", "s1", "s2", "s3"])
        moved = sum(1 for k in keys if after.owner(k) != owners_before[k])
        # Consistent hashing moves ~1/(n+1) = 25% of keys; a modulo hash
        # would move ~75%. Allow generous slack around the expectation.
        assert moved / len(keys) < 0.40
        # every moved key went *to* the new shard, never between old ones
        for k in keys:
            if after.owner(k) != owners_before[k]:
                assert after.owner(k) == "s3"

    def test_minimal_movement_on_leave(self):
        keys = [f"key-{i}" for i in range(3000)]
        before = HashRing(["s0", "s1", "s2", "s3"])
        owners_before = {k: before.owner(k) for k in keys}
        after = HashRing(["s0", "s1", "s2", "s3"])
        after.remove("s3")
        for k in keys:
            if owners_before[k] != "s3":
                # keys not owned by the departed shard never move
                assert after.owner(k) == owners_before[k]

    def test_owners_distinct_and_ordered(self):
        ring = HashRing(["s0", "s1", "s2"])
        owners = ring.owners("workflow:wf-1", 2)
        assert len(owners) == 2
        assert len(set(owners)) == 2
        assert owners[0] == ring.owner("workflow:wf-1")
        # asking for more replicas than nodes returns every node once
        assert sorted(ring.owners("k", 9)) == ["s0", "s1", "s2"]

    def test_add_remove_idempotent(self):
        ring = HashRing(["s0"])
        ring.add("s1")
        ring.add("s1")
        ring.remove("s2")  # absent: no-op
        assert sorted(ring.nodes) == ["s0", "s1"]

    def test_empty_ring_raises(self):
        ring = HashRing([])
        with pytest.raises(LookupError):
            ring.owner("key")


# -- routing ------------------------------------------------------------------


class TestRouting:
    def test_name_keys_route(self):
        assert routing_key("register_workflow", {"name": "wf-1"}) == "workflow:wf-1"
        assert routing_key("get_pe", {"id": "Tripler"}) == "pe:Tripler"
        assert (
            routing_key("describe", {"id": "wf-1", "kind": "workflow"})
            == "workflow:wf-1"
        )
        assert routing_key("describe", {"id": "Tripler"}) == "pe:Tripler"
        assert routing_key("register_pe", {"name": "Tripler"}) == "pe:Tripler"
        for action in ("update_pe_description", "remove_pe"):
            assert routing_key(action, {"id": "Tripler"}) == "pe:Tripler"
        for action in (
            "get_workflow", "get_pes_by_workflow", "update_workflow_description",
            "remove_workflow", "visualize", "run", "submit_job",
        ):
            assert routing_key(action, {"id": "wf-1"}) == "workflow:wf-1"

    def test_numeric_and_unkeyed_do_not_route(self):
        # per-shard autoincrement ids are not globally routable
        assert routing_key("get_workflow", {"id": 7}) is None
        assert routing_key("get_workflow", {"id": "7"}) is None
        assert routing_key("get_registry", {}) is None
        assert routing_key("search_semantic", {"query": "primes"}) is None

    def test_router_replication_capped_by_shards(self):
        config = ClusterConfig(
            shards=[ShardInfo("s0", port=1)], replication=3
        )
        router = ShardRouter(config)
        assert router.replication == 1
        assert router.owners("workflow:x") == ["s0"]

    def test_misdirected_hint(self):
        config = ClusterConfig(
            shards=[ShardInfo(f"s{i}", port=i + 1) for i in range(3)],
            replication=1,
        )
        router = ShardRouter(config)
        owner = router.owner("workflow:wf-1")
        other = next(s for s in config.shard_ids if s != owner)
        hint = router.misdirected(other, "get_workflow", {"id": "wf-1"})
        assert hint is not None and hint["owner"] == owner
        assert router.misdirected(owner, "get_workflow", {"id": "wf-1"}) is None
        # unkeyed actions are never misdirected
        assert router.misdirected(other, "get_registry", {}) is None

    def test_catalogue_cluster_policies_resolve(self):
        # Every row the sharded client can receive names a known policy;
        # scatter rows name a merge, and key rules read a declared param.
        for spec in ACTIONS.values():
            assert spec.cluster in CLUSTER_POLICIES, spec.name
            assert (spec.cluster == "scatter") == (spec.merge is not None), spec.name
            if spec.merge is not None:
                assert spec.merge in MERGES, spec.name
            if spec.key is not None:
                assert spec.key[1] in spec.param_names, spec.name

    def test_job_id_qualification(self):
        assert qualify_job_id("s1", 42) == "s1:42"
        assert split_job_id("s1:42") == ("s1", 42)
        assert split_job_id(7) == (None, 7)
        assert split_job_id("7") == (None, 7)


# -- cluster config -----------------------------------------------------------


class TestClusterConfig:
    def test_round_trip(self, tmp_path):
        config = ClusterConfig(
            shards=[ShardInfo(f"s{i}", port=9000 + i) for i in range(3)],
            vnodes=32,
            replication=2,
        )
        path = tmp_path / "cluster.json"
        config.save(path)
        loaded = ClusterConfig.load(path)
        assert loaded.shard_ids == config.shard_ids
        assert loaded.vnodes == 32 and loaded.replication == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=[ShardInfo("s0", port=1), ShardInfo("s0", port=2)])

    def test_bad_file_is_loud(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text("not json")
        with pytest.raises(ValueError):
            ClusterConfig.load(path)


# -- live cluster -------------------------------------------------------------


@pytest.fixture(scope="class")
def cluster():
    sup = ClusterSupervisor(
        shards=3, replication=2, health_interval=0.0, job_workers=2
    )
    config = sup.start()
    client = ShardedClient(
        config, retry_policy=RetryPolicy(max_retries=1, backoff=0.02)
    )
    yield sup, client
    client.close()
    sup.stop()


class TestClusterEndToEnd:
    def test_round_robin_registration_spreads_shards(self, cluster):
        sup, client = cluster
        body = client.register_PE(TRIPLER_PE)
        assert body["peName"] == "Tripler"
        assert len(body["shards"]) == 2  # primary + one replica
        for i in range(8):
            client.register_Workflow(QUICK_WF, name=f"wf-{i}")
        listing = client.get_Registry()
        names = [wf["workflowName"] for wf in listing["workflows"]]
        assert {f"wf-{i}" for i in range(8)} <= set(names)
        # replicas are deduped: each name appears once despite living
        # on two shards (the per-shard counts still show the raw copies)
        assert len(names) == len(set(names))
        # with 8 workflows replicated twice over 3 shards, every shard
        # must hold something
        assert all(
            counts["workflows"] > 0 for counts in listing["shards"].values()
        )
        assert sum(
            counts["workflows"] for counts in listing["shards"].values()
        ) > len(names)

    def test_keyed_read_routes_to_owner(self, cluster):
        sup, client = cluster
        wf = client.get_Workflow("wf-1")
        assert wf["workflowName"] == "wf-1"
        pes = client.get_PEs_By_Workflow("wf-1")
        assert {pe["peName"] for pe in pes} == {"Producer", "AddOne"}

    def test_misdirected_request_answered_421(self, cluster):
        sup, client = cluster
        owners = client.router.owners("workflow:wf-1")
        wrong = next(s for s in sup.config.shard_ids if s not in owners)
        info = sup.config.shard(wrong)
        direct = LaminarClient.connect(info.host, info.port)
        try:
            with pytest.raises(ClientError) as excinfo:
                direct.get_Workflow("wf-1")
            assert excinfo.value.status == 421
            assert owners[0] in str(excinfo.value)
        finally:
            direct.close()

    def test_scatter_search_merges_all_shards(self, cluster):
        sup, client = cluster
        hits = client.search_Registry_Literal("wf-", kind="workflow")
        names = [wf["workflowName"] for wf in hits["workflows"]]
        assert {f"wf-{i}" for i in range(8)} <= set(names)
        assert len(names) == len(set(names))  # replicas deduped
        semantic = client.search_Registry_Semantic("add one", kind="pe", top_k=3)
        assert 0 < len(semantic) <= 3
        assert all("shard" in hit for hit in semantic)
        sem_names = [hit["peName"] for hit in semantic]
        assert len(sem_names) == len(set(sem_names))  # replicas deduped

    def test_job_end_to_end(self, cluster):
        sup, client = cluster
        job = client.submit_Job("wf-2")
        shard, local = split_job_id(job["jobId"])
        assert shard in sup.config.shard_ids
        result = client.wait_For_Job(job["jobId"], timeout=30)
        assert result["state"] == "SUCCEEDED"
        assert result["result"]["outputs"] == {"A.output": [11]}
        listed = client.list_Jobs()
        assert job["jobId"] in {j["jobId"] for j in listed}

    def test_cluster_status_reports_all_healthy(self, cluster):
        sup, client = cluster
        status = client.cluster_Status()
        assert status["healthy"] == status["total"] == 3
        assert status["replication"] == 2

    def test_metrics_labelled_per_shard(self, cluster):
        sup, client = cluster
        text = client.get_Metrics()["text"]
        for shard_id in sup.config.shard_ids:
            assert f'laminar_cluster_shard_up{{shard="{shard_id}"}}' in text

    def test_stats_scatter_per_shard(self, cluster):
        sup, client = cluster
        merged = client.stats()
        assert set(merged["shards"]) == set(sup.config.shard_ids)
        assert all(
            "total_requests" in body for body in merged["shards"].values()
        )

    def test_export_import_round_trip(self, cluster):
        sup, client = cluster
        dump = client.export_Registry()
        names = {wf["workflowName"] for wf in dump["workflows"]}
        assert {f"wf-{i}" for i in range(8)} <= names
        # replicas deduped and ids reassigned globally unique
        pe_ids = [pe["peId"] for pe in dump["pes"]]
        assert len(pe_ids) == len(set(pe_ids))
        # every workflow's links resolve inside the merged dump
        for wf in dump["workflows"]:
            assert set(wf["peIds"]) <= set(pe_ids)

        with ClusterSupervisor(shards=2, health_interval=0.0) as other:
            target = ShardedClient(other.config)
            try:
                counts = target.import_Registry(dump)
                assert counts["workflows"] == len(dump["workflows"])
                imported = target.get_Registry()
                assert {
                    wf["workflowName"] for wf in imported["workflows"]
                } >= names
                # keyed reads route by name in the new topology
                wf = target.get_Workflow("wf-3")
                assert wf["workflowName"] == "wf-3"
            finally:
                target.close()


class TestClusterFailover:
    """Kill a shard: idempotent keyed verbs fail over without errors."""

    def test_kill_and_failover(self):
        sup = ClusterSupervisor(shards=3, replication=2, health_interval=0.0)
        config = sup.start()
        client = ShardedClient(
            config, retry_policy=RetryPolicy(max_retries=1, backoff=0.02)
        )
        try:
            for i in range(6):
                client.register_Workflow(QUICK_WF, name=f"fo-{i}")
            owners = client.router.owners("workflow:fo-3")
            primary, replica = owners[0], owners[1]

            sup.kill(primary)

            # idempotent keyed reads fail over to the replica silently
            wf = client.get_Workflow("fo-3")
            assert wf["workflowName"] == "fo-3"
            pes = client.get_PEs_By_Workflow("fo-3")
            assert len(pes) == 2

            # submits re-route to a surviving owner and still run
            job = client.submit_Job("fo-3")
            assert split_job_id(job["jobId"])[0] == replica
            result = client.wait_For_Job(job["jobId"], timeout=30)
            assert result["state"] == "SUCCEEDED"

            # scatter verbs degrade instead of failing
            listing = client.get_Registry()
            assert primary in listing["degraded"]

            status = client.cluster_Status()
            assert status["healthy"] == 2
            down = next(
                s for s in status["shards"] if s["shardId"] == primary
            )
            assert down["healthy"] is False

            # recovery: restart (possibly on a new port) and re-probe
            sup.restart(primary)
            assert sup.check_health()[primary] is True
            status = client.cluster_Status()
            assert status["healthy"] == 3

            # the restarted in-memory shard is empty; keyed reads still
            # answer from the replica (404 failover)
            wf = client.get_Workflow("fo-3")
            assert wf["workflowName"] == "fo-3"
        finally:
            client.close()
            sup.stop()

    def test_supervisor_health_gauges(self):
        sup = ClusterSupervisor(shards=2, replication=1, health_interval=0.0)
        sup.start()
        try:
            assert sup.check_health() == {"s0": True, "s1": True}
            sup.kill("s1")
            assert sup.check_health() == {"s0": True, "s1": False}
            text = sup.obs_registry.render_text()
            assert 'laminar_cluster_shard_up{shard="s1"} 0' in text
            assert "laminar_cluster_shards_healthy 1" in text
        finally:
            sup.stop()


class TestShardedDynamicMapping:
    def test_dynamic_jobs_run_on_their_shard(self):
        sup = ClusterSupervisor(shards=2, replication=1, health_interval=0.0)
        config = sup.start()
        client = ShardedClient(config)
        try:
            client.register_Workflow(QUICK_WF, name="dyn-wf")
            from repro.laminar.client.process import Process

            job = client.submit_Job("dyn-wf", process=Process.DYNAMIC)
            result = client.wait_For_Job(job["jobId"], timeout=30)
            assert result["state"] == "SUCCEEDED"
            assert result["result"]["outputs"] == {"A.output": [11]}
            # the shard that took the job ran it, and no pool outlived it
            shard = split_job_id(job["jobId"])[0]
            text = sup.handles[shard].server.obs_registry.render_text()
            assert 'laminar_runs_total{mapping="dynamic",status="success"} 1' in text
            assert "laminar_dynamic_workers 0" in text
        finally:
            client.close()
            sup.stop()
