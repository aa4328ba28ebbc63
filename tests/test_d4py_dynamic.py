"""Tests for the dynamic (work-queue, autoscaling) mapping."""

import gc
import itertools
import statistics
import threading
import time
import weakref

import pytest

from repro.d4py import WorkflowGraph, run_graph
from repro.d4py.mappings.dynamic import ElasticPool
from repro.obs import MetricsRegistry

from tests.helpers import (
    AddOne,
    Double,
    KeyedCount,
    RangeProducer,
    pipeline,
)


def test_dynamic_matches_simple_results():
    def build():
        return pipeline(RangeProducer("src"), Double("dbl"), AddOne("inc"))

    sequential = run_graph(build(), input=25, mapping="simple")
    dynamic = run_graph(build(), input=25, mapping="dynamic", max_workers=4)
    assert sorted(dynamic.output_for("inc")) == sorted(sequential.output_for("inc"))


def test_dynamic_single_worker_no_autoscale():
    graph = pipeline(RangeProducer("src"), Double("dbl"))
    result = run_graph(
        graph, input=10, mapping="dynamic", min_workers=1, autoscale=False
    )
    assert sorted(result.output_for("dbl")) == [i * 2 for i in range(10)]
    assert "peak workers 1" in result.logs[-1]


def test_dynamic_autoscales_under_load():
    graph = pipeline(RangeProducer("src"), Double("dbl"))
    result = run_graph(
        graph,
        input=300,
        mapping="dynamic",
        min_workers=1,
        max_workers=6,
        autoscale=True,
    )
    assert len(result.output_for("dbl")) == 300
    peak_line = result.logs[-1]
    peak = int(peak_line.split("peak workers ")[1].split()[0])
    assert peak >= 1


def test_dynamic_group_by_state_is_correct():
    g = WorkflowGraph()
    src = RangeProducer("src")

    class Tag(Double):
        def _process(self, value):
            return (value % 3, value)

    tag = Tag("tag")
    count = KeyedCount("count")
    g.connect(src, "output", tag, "input")
    g.connect(tag, "output", count, "input")
    result = run_graph(
        g, input=30, mapping="dynamic", max_workers=4, instances_per_pe=5
    )
    best = {}
    for key, n in result.output_for("count"):
        best[key] = max(best.get(key, 0), n)
    assert best == {0: 10, 1: 10, 2: 10}


def test_dynamic_task_error_propagates():
    class Boom(Double):
        def _process(self, value):
            raise ValueError("dynamite")

    graph = pipeline(RangeProducer("src"), Boom("boom"))
    with pytest.raises(RuntimeError, match="dynamic worker failures"):
        run_graph(graph, input=3, mapping="dynamic")


def test_dynamic_iterations_accounted():
    graph = pipeline(RangeProducer("src"), Double("dbl"))
    result = run_graph(graph, input=12, mapping="dynamic", instances_per_pe=3)
    src_total = sum(v for k, v in result.iterations.items() if k.startswith("src"))
    dbl_total = sum(v for k, v in result.iterations.items() if k.startswith("dbl"))
    assert src_total == 12
    assert dbl_total == 12


def test_dynamic_timings_reported():
    import time as _t

    class Slow(Double):
        def _process(self, value):
            _t.sleep(0.005)
            return value

    graph = pipeline(RangeProducer("src"), Slow("slow"))
    result = run_graph(graph, input=8, mapping="dynamic", max_workers=2)
    slow_time = sum(v for k, v in result.timings.items() if k.startswith("slow"))
    assert slow_time >= 0.03


def test_dynamic_autoscaler_retires_idle_workers():
    """After a burst drains, the pool shrinks back toward min_workers."""
    import time as _t

    class Slowish(Double):
        def _process(self, value):
            _t.sleep(0.002)
            return value

    graph = pipeline(RangeProducer("src"), Slowish("slow"))
    # Per-item dispatch: batching/fusion would collapse the burst into a
    # handful of frames and the queue would never get deep enough to
    # trigger the scale-up this test is about.
    engine = ElasticPool(
        graph,
        instances_per_pe=4,
        min_workers=1,
        max_workers=6,
        autoscale=True,
        batch_max_items=1,
        fuse=False,
    )
    result = engine.run(200)
    assert engine.peak_workers > 1, "burst should have scaled the pool up"
    # After the drain loop the pool target returns to the floor.
    assert engine.target_workers <= engine.peak_workers
    assert len(result.output_for("slow")) == 200


def test_dynamic_claims_tasks_in_fifo_order():
    """Regression for the queue-order bug: the engine used brpop (tail pop)
    against rpush (tail push), turning the work queue into a LIFO stack.

    One producer invocation emits 0..7 in order, queueing eight per-item
    frames for the sink.  With one worker and one instance per PE, FIFO
    claim order means the sink records exactly 0..7; under the pre-fix
    LIFO pairing the newest frame is always claimed first, so the order
    comes out reversed.  (The values are bound to the queued frames, not
    to producer state, so claim order is what the sink observes.)
    """
    from repro.d4py import IterativePE, ProducerPE

    class Burst(ProducerPE):
        def _process(self, inputs):
            for i in range(8):
                self.write("output", i)
            return None

    class Recorder(IterativePE):
        seen: list = []  # class attribute: shared across deepcopied instances

        def _process(self, value):
            Recorder.seen.append(value)
            return value

    Recorder.seen = []
    graph = pipeline(Burst("src"), Recorder("rec"))
    engine = ElasticPool(
        graph,
        instances_per_pe=1,
        min_workers=1,
        max_workers=1,
        autoscale=False,
        batch_max_items=1,
        fuse=False,
    )
    engine.run(1)
    assert Recorder.seen == list(range(8))


def test_dynamic_instance_creation_not_globally_serialised():
    """Two *distinct* instances must be able to warm up concurrently.

    The pre-fix engine held the global instances_lock across deepcopy +
    preprocess, so a slow preprocess serialised the whole pool.  Both
    preprocess calls meet at a barrier: if creation were still under one
    global lock, the first would hold it while parked on the barrier and
    the second could never arrive, so the barrier would break.
    """
    class Meet(Double):
        barrier = threading.Barrier(2)  # class attribute: survives deepcopy

        def preprocess(self):
            Meet.barrier.wait(timeout=5.0)

    Meet.barrier = threading.Barrier(2)
    graph = pipeline(RangeProducer("src"), Meet("meet"))
    engine = ElasticPool(
        graph,
        instances_per_pe=2,
        min_workers=1,
        max_workers=1,
        autoscale=False,
    )
    entries: list = []
    errors: list = []

    def create(idx):
        try:
            entries.append(engine.instance("meet", idx))
        except Exception as exc:  # BrokenBarrierError under the old locking
            errors.append(exc)

    threads = [threading.Thread(target=create, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not errors, f"concurrent instance creation deadlocked: {errors}"
    assert len(entries) == 2
    assert entries[0].pe is not entries[1].pe  # two distinct PE copies


def test_dynamic_leaked_worker_reported_in_logs(monkeypatch):
    """A worker that outlives the join budget is surfaced, not swallowed."""
    import time as _t

    from repro.d4py.mappings import dynamic as dyn
    from repro.obs.events import parse_event

    monkeypatch.setattr(dyn, "_JOIN_TIMEOUT", 0.05)
    graph = pipeline(RangeProducer("src"), Double("dbl"))
    engine = dyn.ElasticPool(
        graph,
        instances_per_pe=2,
        min_workers=1,
        max_workers=2,
        autoscale=False,
    )
    straggler = threading.Thread(target=_t.sleep, args=(1.0,), daemon=True)
    straggler.start()
    with engine.workers_lock:
        engine.workers.append(straggler)
    result = engine.run(5)
    assert len(result.output_for("dbl")) == 5  # the run itself still succeeds
    events = [parse_event(line) for line in result.logs]
    leaks = [e for e in events if e and e.get("event") == "worker_leak"]
    assert leaks, f"no worker_leak event in logs: {result.logs}"
    assert leaks[0]["leaked_threads"] == "1"
    assert leaks[0]["component"] == "dynamic"
    straggler.join(timeout=5.0)


def test_dynamic_stall_raises_structured_drain_timeout(monkeypatch):
    import time as _t

    from repro.d4py import IterativePE
    from repro.d4py.mappings import DrainTimeout, kernel

    class Stall(IterativePE):
        def _process(self, value):
            _t.sleep(2.0)  # far longer than the stall limit
            return value

    monkeypatch.setattr(kernel, "STALL_TIMEOUT", 0.2)
    graph = WorkflowGraph()
    graph.connect(RangeProducer("P"), "output", Stall("S"), "input")
    with pytest.raises(DrainTimeout) as excinfo:
        run_graph(graph, input=2, mapping="dynamic")
    err = excinfo.value
    assert err.timeout == 0.2
    assert err.pending >= 1
    assert err.queue_key.endswith("tasks")  # names the undrained queue
    assert "wedged" in str(err)


@pytest.mark.parametrize("mapping,options", [
    ("dynamic", {"max_workers": 2}),
    ("multi", {"num_processes": 2}),
], ids=["dynamic", "multi"])
def test_run_making_progress_outlives_the_stall_limit(monkeypatch, mapping, options):
    """The stall limit bounds time *without progress*, not run time: 30
    items of 50 ms take three times the limit and still succeed."""
    import time as _t

    from repro.d4py import IterativePE
    from repro.d4py.mappings import kernel

    class Slow(IterativePE):
        def _process(self, value):
            _t.sleep(0.05)
            return value

    monkeypatch.setattr(kernel, "STALL_TIMEOUT", 0.5)
    graph = WorkflowGraph()
    graph.connect(RangeProducer("P"), "output", Slow("S"), "input")
    result = run_graph(graph, input=30, mapping=mapping, **options)
    assert sorted(result.output_for("S")) == list(range(30))


def test_dynamic_postprocess_runs_only_once_the_stream_drained():
    """A drained pool sweeps every instance; a stopped one sweeps none (a
    worker may still be inside an invocation)."""
    from repro.d4py.mappings import Stopped

    class Holder(Double):
        released: list = []  # class attribute: shared by the pool's copies

        def postprocess(self):
            Holder.released.append(self.name)

    graph = pipeline(RangeProducer("src"), Holder("h"))
    run_graph(graph, input=5, mapping="dynamic", instances_per_pe=1)
    assert Holder.released == ["h"]

    Holder.released.clear()
    stop = threading.Event()
    stop.set()
    with pytest.raises(Stopped):
        run_graph(graph, input=5, mapping="dynamic", instances_per_pe=1, stop=stop)
    assert Holder.released == []


def test_simple_mapping_ignores_other_mappings_options():
    graph = WorkflowGraph()
    graph.connect(RangeProducer("P"), "output", Double("D"), "input")
    result = run_graph(
        graph, input=2, mapping="simple", num_processes=3, fuse=False, batch_max_items=4
    )
    assert result.outputs[("D", "output")] == [0, 2]


# -- prompt retire ------------------------------------------------------------------


def test_dynamic_run_ends_as_soon_as_its_queue_drains():
    """What a run costs beyond its PE invocations stays small: the pool
    retires the moment the queue drained, without waiting out an
    autoscaler interval."""
    idle = []
    for _ in range(20):
        graph = pipeline(RangeProducer("src"), Double("dbl"), AddOne("inc"))
        started = time.perf_counter()
        result = run_graph(graph, input=20, mapping="dynamic")
        idle.append(time.perf_counter() - started - sum(result.timings.values()))
        assert sorted(result.output_for("inc")) == [2 * i + 1 for i in range(20)]
    assert statistics.median(idle) < 0.005, sorted(idle)


def test_stream_session_stop_returns_once_drained():
    from repro.d4py.realtime import StreamSession

    took = []
    for _ in range(10):
        graph = WorkflowGraph()
        graph.connect(Double("dbl"), "output", AddOne("inc"), "input")
        session = StreamSession(graph).start()
        session.push_many(range(5))
        deadline = time.monotonic() + 5.0
        while session.pending():
            assert time.monotonic() < deadline, "the session never drained"
            time.sleep(0.001)
        started = time.perf_counter()
        result = session.stop()
        took.append(time.perf_counter() - started)
        assert sorted(result.output_for("inc")) == [2 * i + 1 for i in range(5)]
    assert statistics.median(took) < 0.005, sorted(took)


# -- the gauges count live pools only ------------------------------------------


def _gauges(registry):
    return (
        registry.gauge("laminar_dynamic_workers").value,
        registry.gauge("laminar_dynamic_queue_depth").value,
    )


def test_dynamic_gauges_count_live_pools_and_release_finished_ones():
    """The workers and queue-depth gauges sum over the live pools of their
    registry and read 0 once every run finished; the registry keeps no
    reference to a finished pool."""
    registry = MetricsRegistry()

    def pool():
        graph = pipeline(RangeProducer("src"), Double("dbl"))
        return ElasticPool(graph, min_workers=1, autoscale=False, registry=registry)

    first, second = pool().start(), pool().start()
    assert _gauges(registry) == (2, 0)
    first.finish()
    assert _gauges(registry) == (1, 0)
    second.finish()
    assert _gauges(registry) == (0, 0)

    finished = pool()
    ref = weakref.ref(finished)
    result = finished.run(10)
    assert sorted(result.output_for("dbl")) == [2 * i for i in range(10)]
    assert _gauges(registry) == (0, 0)
    del first, second, finished
    gc.collect()
    assert ref() is None, "a finished pool is still reachable"


# -- concurrent runs, each on its own broker -----------------------------------


def _isolated_workflow(source, stage, constant, operation):
    return f"""
import time
class {source}(ProducerPE):
    def _process(self, inputs):
        return {constant}
class {stage}(IterativePE):
    def _process(self, value):
        time.sleep(0.002)
        return value {operation}
graph = WorkflowGraph()
graph.connect({source}("{source}"), "output", {stage}("{stage}"), "input")
"""


#: name -> (source PE, stage PE, input, the run's exact outputs)
_ISOLATED = {
    "twice": ("SrcA", "Twice", 5, {"Twice.output": [14] * 5}),
    "plus": ("SrcB", "Plus", 7, {"Plus.output": [1003] * 7}),
}
_ISOLATED_CODE = {
    "twice": _isolated_workflow("SrcA", "Twice", 7, "* 2"),
    "plus": _isolated_workflow("SrcB", "Plus", 3, "+ 1000"),
}


def _run_isolated_pair(clients, names):
    """Register both workflows (``names`` gives each its registered name),
    then ``run_dynamic`` each on its own thread, released together by a
    barrier; each run must get exactly its own outputs and iteration
    counts."""
    for client, name in zip(clients, _ISOLATED):
        client.register_Workflow(_ISOLATED_CODE[name], name=names[name])
    barrier = threading.Barrier(len(_ISOLATED))
    summaries, errors = {}, []

    def run(client, name):
        try:
            barrier.wait(timeout=10)
            summaries[name] = client.run_dynamic(names[name], input=_ISOLATED[name][2])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(clients, _ISOLATED)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    for name, (source, stage, count, outputs) in _ISOLATED.items():
        summary = summaries[name]
        assert summary.ok, summary.error
        assert summary.outputs == outputs
        totals: dict[str, int] = {}
        for instance, n in summary.iterations.items():
            pe = instance.rstrip("0123456789")
            totals[pe] = totals.get(pe, 0) + n
        assert totals == {source: count, stage: count}


def test_concurrent_dynamic_runs_are_isolated():
    """Two dynamic runs started together on one server — in process, and on
    one shard of a 2-shard cluster — each see only their own work."""
    from repro.laminar.client.client import LaminarClient
    from repro.laminar.cluster import ClusterSupervisor
    from repro.laminar.server.app import LaminarServer

    server = LaminarServer()
    try:
        clients = [LaminarClient(server=server) for _ in _ISOLATED]
        _run_isolated_pair(clients, {name: name for name in _ISOLATED})
    finally:
        server.close()

    sup = ClusterSupervisor(shards=2, replication=1, health_interval=0.0)
    config = sup.start()
    clients = []
    try:
        # A shard answers a name it does not own with a 421, so both
        # workflows get names owned by the first shard.
        info = config.shards[0]
        names = {
            name: next(
                f"{name}-{i}"
                for i in itertools.count()
                if sup.router.owner(f"workflow:{name}-{i}") == info.shard_id
            )
            for name in _ISOLATED
        }
        clients = [LaminarClient.connect(info.host, info.port) for _ in _ISOLATED]
        _run_isolated_pair(clients, names)
    finally:
        for client in clients:
            client.close()
        sup.stop()
