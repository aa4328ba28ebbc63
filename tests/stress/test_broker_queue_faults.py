"""Stress and regression tests for the broker and job-queue primitives.

Covers the wake-up and accounting bugs that only surface under
concurrency: a lost ``wait_for_zero`` wake-up, ``JobQueue.discard``
corrupting depth accounting for terminal jobs, the dynamic autoscaler
writing ``target_workers`` outside ``workers_lock``, plus interleaving
soaks driven by :class:`FaultyRedisSim`.
"""

import threading
import time

import pytest

from repro.d4py.core import ProducerPE
from repro.d4py.mappings import dynamic
from repro.d4py.mappings.dynamic import ElasticPool, run_dynamic
from repro.d4py.workflow import WorkflowGraph
from repro.laminar.jobs.model import Job, JobSpec, JobState
from repro.laminar.jobs.queue import JobQueue
from tests.stress.chaos import FaultyRedisSim


def _job(job_id: int, priority: int = 0) -> Job:
    return Job(job_id, JobSpec(workflow_code="pass", priority=priority))


# -- FaultyRedisSim: the harness itself ---------------------------------------


def test_dropped_notify_delays_wake_until_timeout_recheck():
    """With the wake-up swallowed, the waiter only notices the counter hit
    zero at its timeout re-check.  Documents why every mutation must
    notify."""
    sim = FaultyRedisSim()
    sim.incr("pending")
    sim.drop_next_notifies(1)
    started = time.monotonic()
    results: list[bool] = []
    waiter = threading.Thread(
        target=lambda: results.append(sim.wait_for_zero("pending", timeout=0.6)),
        daemon=True,
    )
    waiter.start()
    time.sleep(0.05)
    sim.decr("pending")  # this wake-up is dropped
    waiter.join(timeout=3.0)
    elapsed = time.monotonic() - started
    assert results == [True]
    assert sim.dropped_notifies == 1
    assert elapsed >= 0.5, "waiter woke early despite the dropped notify?"


def test_dynamic_run_completes_on_slow_faulty_broker(monkeypatch):
    """Injected broker latency slows the run but must not wedge it."""

    class Ticker(ProducerPE):
        def _process(self, inputs):
            self.write("output", 1)

    graph = WorkflowGraph()
    graph.add(Ticker("Ticker"))
    brokers: list[FaultyRedisSim] = []

    def slow_broker():
        brokers.append(FaultyRedisSim(op_delay=0.002))
        return brokers[-1]

    monkeypatch.setattr(dynamic, "RedisSim", slow_broker)
    result = run_dynamic(graph, input=5, max_workers=3)
    assert result.iterations["Ticker0"] == 5
    assert len(brokers) == 1  # the run went through the faulty broker


# -- JobQueue.discard() terminal-state accounting -----------------------------


def test_discard_rejects_terminal_job_and_keeps_depth_honest():
    """Regression: discarding a job that already reached a terminal state
    must fail; accepting it marked the heap entry cancelled and made
    ``depth`` under-count, silently widening admission past capacity."""
    q = JobQueue(capacity=4)
    job = _job(1)
    q.put(job)
    # The cancel-vs-finish race: the job's terminal transition lands
    # while its entry is still sitting in the heap.
    job.transition(JobState.RUNNING)
    job.transition(JobState.FAILED)
    assert q.discard(job.job_id) is False
    assert q.depth == 1, "terminal discard corrupted the depth accounting"


def test_discard_still_works_for_queued_jobs():
    q = JobQueue(capacity=4)
    job = _job(1)
    q.put(job)
    assert q.discard(job.job_id) is True
    assert q.depth == 0
    assert q.discard(job.job_id) is False  # already marked
    assert q.get(timeout=0.05) is None  # lazily dropped, not delivered


def test_discard_rejects_cancelled_terminal_job():
    """Cancellation must discard *before* the terminal transition — once
    CANCELLED has landed the queue no longer accepts the discard."""
    q = JobQueue(capacity=4)
    job = _job(1)
    q.put(job)
    job.transition(JobState.CANCELLED)
    assert q.discard(job.job_id) is False
    assert q.depth == 1


# -- JobQueue interleavings ---------------------------------------------------


def test_concurrent_put_get_discard_accounting():
    """Producers, consumers and a canceller race; every job must be
    delivered exactly once or discarded exactly once, and the final
    accounting must balance."""
    q = JobQueue(capacity=10_000)
    jobs = [_job(i, priority=i % 3) for i in range(300)]
    delivered: list[int] = []
    delivered_lock = threading.Lock()
    discarded: set[int] = set()
    discard_lock = threading.Lock()
    start = threading.Barrier(7)

    def producer(chunk):
        start.wait()
        for job in chunk:
            q.put(job)

    def consumer():
        start.wait()
        while True:
            job = q.get(timeout=0.2)
            if job is None:
                return
            with delivered_lock:
                delivered.append(job.job_id)

    def canceller(ids):
        start.wait()
        for job_id in ids:
            if q.discard(job_id):
                with discard_lock:
                    discarded.add(job_id)

    threads = (
        [threading.Thread(target=producer, args=(jobs[i::3],)) for i in range(3)]
        + [threading.Thread(target=consumer) for _ in range(3)]
        + [threading.Thread(target=canceller, args=([j.job_id for j in jobs[::2]],))]
    )
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive()

    assert len(delivered) == len(set(delivered)), "a job was delivered twice"
    assert not discarded & set(delivered), "a job was both discarded and delivered"
    assert len(delivered) + len(discarded) == len(jobs)
    assert q.depth == 0
    stats = q.stats()
    assert stats["depth"] == 0
    assert stats["submitted"] == len(jobs)


@pytest.mark.slow
def test_concurrent_queue_soak_many_rounds():
    """Repeat the interleaving many times to shake out rare schedules."""
    for round_no in range(10):
        q = JobQueue(capacity=1000)
        jobs = [_job(i) for i in range(60)]
        seen: list[int] = []
        lock = threading.Lock()

        def consumer():
            while True:
                job = q.get(timeout=0.1)
                if job is None:
                    return
                with lock:
                    seen.append(job.job_id)

        consumers = [threading.Thread(target=consumer) for _ in range(4)]
        for t in consumers:
            t.start()
        kept = [j for j in jobs if j.job_id % 3]
        for j in jobs:
            q.put(j)
        dropped = {j.job_id for j in jobs if not j.job_id % 3 and q.discard(j.job_id)}
        for t in consumers:
            t.join(timeout=15.0)
            assert not t.is_alive()
        assert len(seen) == len(set(seen))
        assert len(seen) + len(dropped) == len(jobs)
        assert set(seen) | dropped == {j.job_id for j in jobs}
        del kept


# -- dynamic autoscaler lock discipline ---------------------------------------


class TrackingLock:
    """Context-manager lock that records which thread currently holds it."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.owner: threading.Thread | None = None

    def __enter__(self) -> "TrackingLock":
        self._lock.acquire()
        self.owner = threading.current_thread()
        return self

    def __exit__(self, *exc) -> bool:
        self.owner = None
        self._lock.release()
        return False


def _tiny_graph() -> WorkflowGraph:
    class Tick(ProducerPE):
        def _process(self, inputs):
            self.write("output", 1)

    graph = WorkflowGraph()
    graph.add(Tick("Tick"))
    return graph


def test_autoscaler_writes_target_workers_under_workers_lock():
    """Regression for the autoscaler data race: every write to
    ``target_workers`` must happen while ``workers_lock`` is held, because
    ``_worker_loop`` reads it under that lock for scale-down decisions."""
    engine = ElasticPool(
        _tiny_graph(), instances_per_pe=1,
        min_workers=1, max_workers=4, autoscale=True,
    )
    tracking = TrackingLock()
    engine.workers_lock = tracking
    violations: list[int] = []

    class Probed(ElasticPool):
        @property
        def target_workers(self):
            return self.__dict__["_target_workers"]

        @target_workers.setter
        def target_workers(self, value):
            if tracking.owner is not threading.current_thread():
                violations.append(value)
            self.__dict__["_target_workers"] = value

    engine.__dict__["_target_workers"] = engine.__dict__.pop("target_workers")
    engine.__class__ = Probed

    def fake_spawn():
        with engine.workers_lock:
            engine.workers.append(threading.Thread(target=lambda: None))

    engine._spawn_worker = fake_spawn

    # Deep queue → exercises the scale-up write; then drained queue with a
    # grown pool → exercises the scale-down write.
    for i in range(12):
        engine.broker.rpush("tasks", i)
    scaler = threading.Thread(target=engine._autoscaler_loop, daemon=True)
    scaler.start()
    time.sleep(0.2)
    while engine.broker.blpop("tasks", timeout=0) is not None:
        pass
    time.sleep(0.2)
    engine.retire.set()
    scaler.join(timeout=2.0)
    assert not scaler.is_alive()
    assert len(engine.workers) > 1, "scale-up path never ran"
    assert engine.target_workers < len(engine.workers) or engine.target_workers == 1, (
        "scale-down path never ran"
    )
    assert violations == [], (
        f"target_workers written {len(violations)}x without holding workers_lock"
    )


def test_autoscaled_dynamic_run_converges():
    """Functional sanity on the fixed autoscaler: a bursty run scales up,
    drains, and joins every worker without deadlock."""
    graph = _tiny_graph()
    result = run_dynamic(
        graph, input=40, min_workers=1, max_workers=6, autoscale=True,
    )
    assert result.iterations["Tick0"] == 40
