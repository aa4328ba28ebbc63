"""The ``dynamic`` mapping: work-queue execution with autoscaling workers.

This reproduces dispel4py's Redis-based dynamic workload allocation
(Liang et al., 2022): instead of statically binding processes to PEs, data
items become *tasks* on a FIFO queue (the simulated Redis broker,
:class:`~repro.d4py.redisim.RedisSim`), and an elastic pool of workers pulls
tasks regardless of which PE they belong to.  An autoscaler grows the pool
while the queue is deep and shrinks it when the queue idles — the adaptive
resource allocation the paper's §II-A describes.  Each pool owns a private
broker for its lifetime, so concurrent runs never share a queue.

As a placement over :class:`~repro.d4py.mappings.kernel.Kernel`, the
instances are deep copies of the graph's PEs created on first use, each
guarded by its lock, and a routed item reaches one as part of a task frame
on the broker.  Two optimisations keep per-item dispatch off the hot path:

* **Micro-batching** — each worker buffers routed items per destination
  instance in a :class:`~repro.d4py.mappings.kernel.FrameBuffer` and
  enqueues them as one list-of-items frame, flushed at a size target
  (fixed, or adaptive from the queue-depth and queue-wait gauges), at
  :data:`BATCH_MAX_DELAY`, and unconditionally when the producing task
  finishes.
* **Operator fusion** — 1-in/1-out shuffle-connected segments (detected by
  :meth:`~repro.d4py.workflow.WorkflowGraph.linear_segments`) run inside
  the worker that claimed the head task, invoking downstream instances
  inline with no broker round-trip between stages.

Workers start in a copy of the caller's :mod:`contextvars` context, so a
run's stdout sink reaches every PE invocation.
"""

from __future__ import annotations

import contextvars
import copy
import itertools
import threading
import time
from typing import Any, Callable

from repro.d4py.core import ProducerPE
from repro.d4py.mappings.base import RunResult, normalize_inputs
from repro.d4py.mappings.kernel import STOP_POLL, FrameBuffer, Hop, Instance, Kernel, frame_size
from repro.d4py.redisim import RedisSim
from repro.d4py.workflow import WorkflowGraph

_TASKS = "tasks"
_PENDING = "pending"

#: Sentinel frame pushed once per worker at shutdown.  A worker parked in
#: ``blpop`` only re-checks the retire flag after its poll timeout expires;
#: feeding it a sentinel wakes it with an item so the pool retires
#: immediately instead of paying the poll interval as shutdown latency.
_STOP_FRAME = ("__STOP__",)

#: Queue depth above which the autoscaler adds a worker.
_SCALE_UP_DEPTH = 4
#: Seconds between autoscaler checks.
_SCALE_INTERVAL = 0.02
#: Per-thread join budget during shutdown (seconds); threads still alive
#: afterwards are counted as leaked and reported in the run's logs.
_JOIN_TIMEOUT = 5.0

#: Largest adaptive frame, in items.
ADAPTIVE_CAP = 64
#: Seconds an under-full frame may wait before it is flushed anyway.
BATCH_MAX_DELAY = 0.002
#: Minimum seconds between adaptive batch-target recomputations.
_ADAPTIVE_REFRESH = 0.005
#: EWMA smoothing factor for the observed queue wait.
_EWMA_ALPHA = 0.2
#: Queue-wait EWMA (seconds) above which the adaptive target is boosted:
#: tasks are waiting longer than a frame takes to flush, so dispatch
#: overhead — not compute — is the bottleneck.
_WAIT_SLOW = 0.002
#: Histogram buckets for the per-frame batch-size distribution.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Pools from :meth:`ElasticPool.start` until :meth:`ElasticPool.finish`
#: returns: the dynamic gauges sum over those of their registry, so a
#: finished pool is neither counted nor kept alive by a registry.
_live: set["ElasticPool"] = set()
_live_lock = threading.Lock()


def _live_sum(metrics, measure: Callable[["ElasticPool"], int]) -> int:
    with _live_lock:
        pools = [pool for pool in _live if pool.metrics is metrics]
    return sum(measure(pool) for pool in pools)


class _Worker:
    """One thread's frame-local state.

    Frame buffers and leaf collections are thread-confined, so the hot path
    touches no shared lock except each PE instance's own: buffered items
    are flushed and leaf outputs merged into the run once per task frame.
    """

    __slots__ = ("frames", "leaf", "seat")

    def __init__(self, frames: FrameBuffer, seat: int) -> None:
        self.frames = frames
        #: Leaf-port emissions of the current frame, merged at frame end.
        self.leaf: dict[tuple[str, str], list] = {}
        #: Fused invokes go to instance ``seat % n``, so each worker keeps
        #: hitting the same (usually uncontended) downstream instance locks.
        self.seat = seat


class ElasticPool:
    """The dynamic placement: broker, instances, worker pool, autoscaler.

    :meth:`run` enacts a batch input.  A live stream drives the public
    API instead: :meth:`start`, then :meth:`feed`'s ``push(item)`` from any
    thread, then :meth:`finish`.

    Parameters
    ----------
    graph:
        The abstract workflow.
    min_workers, max_workers:
        Bounds for the elastic worker pool.
    instances_per_pe:
        Logical instance count for non-root PEs (controls ``group_by``
        partitioning exactly as process counts do in the multi mapping).
    autoscale:
        Enable the queue-depth autoscaler; with ``False`` the pool stays at
        ``min_workers``.
    batch_max_items:
        Items per inter-PE task frame: an int fixes the frame size (1 =
        per-item dispatch), ``None``/``"adaptive"`` (the default) sizes
        frames from the live queue-depth/queue-wait gauges.
    fuse:
        Run 1-in/1-out shuffle-connected PE chains inline in one worker
        task (no broker round-trips between stages).  ``group_by`` /
        ``global`` / ``all`` edges always go through the queue.
    stop:
        The run's stop token (see :func:`~repro.d4py.mappings.run_graph`).
    trace:
        Capture a span tree on ``result.trace`` — per-instance spans are
        parented to the ``run:dynamic`` root explicitly, since worker
        threads do not inherit the enactment's span context.  Fused
        segments additionally appear as ``fused:a->b`` spans carrying the
        inline item count.
    tracer, registry:
        Optional :class:`repro.obs.Tracer` / metrics registry sinks (a
        fresh tracer / the process-default registry when omitted).

    A run in which no PE invocation finishes for
    :data:`~repro.d4py.mappings.kernel.STALL_TIMEOUT` seconds raises
    :class:`~repro.d4py.mappings.kernel.DrainTimeout`.
    """

    def __init__(
        self,
        graph: WorkflowGraph,
        min_workers: int = 1,
        max_workers: int = 8,
        instances_per_pe: int = 4,
        autoscale: bool = True,
        batch_max_items: int | str | None = None,
        fuse: bool = True,
        stop: threading.Event | None = None,
        trace: bool = False,
        tracer=None,
        registry=None,
    ) -> None:
        from repro.obs import runtime as obs_runtime

        flat = graph.flatten()
        roots = set(flat.roots())
        # Producers keep a single logical instance; everything else fans out.
        counts = {pe.name: 1 if pe in roots else instances_per_pe for pe in flat.pes}
        self.kernel = kernel = Kernel(
            flat, "dynamic", counts, stop, trace, tracer, registry, fuse=fuse
        )
        self.broker = RedisSim()
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.autoscale = autoscale
        self.frame_size = frame_size(batch_max_items)

        self.workers: list[threading.Thread] = []
        self.workers_lock = threading.Lock()
        self.target_workers = min_workers
        self.peak_workers = min_workers
        #: Set once the queue drained: workers and autoscaler retire.
        self.retire = threading.Event()
        self.scaler: threading.Thread | None = None
        self._tls = threading.local()
        self._seats = itertools.count()
        # Per-key creation gates: instances are created outside any shared
        # lock (see instance()).
        self._gates: dict[tuple[str, int], threading.Lock] = {}
        self._gates_lock = threading.Lock()
        self.queue_wait: dict[tuple[str, int], float] = {}
        # Adaptive frame sizing state: refreshed from the queue-depth gauge
        # at most every _ADAPTIVE_REFRESH seconds; races on these floats
        # are benign (a stale target, never a wrong result).
        self._adaptive_target = 1
        self._adaptive_stamp = 0.0
        self._wait_ewma = 0.0

        self._wait_histogram = self._batch_histogram = None
        self.metrics = metrics = obs_runtime.active_registry(registry)
        if metrics is not None:
            self._wait_histogram = metrics.histogram(
                "laminar_dynamic_queue_wait_seconds",
                "Time dynamic-mapping tasks spend queued before a worker "
                "claims them.",
                ("pe",),
            )
            self._batch_histogram = metrics.histogram(
                "laminar_dynamic_batch_size",
                "Items per task frame enqueued on the dynamic mapping's "
                "broker.",
                ("pe",),
                buckets=_BATCH_BUCKETS,
            )
            metrics.gauge(
                "laminar_dynamic_queue_depth",
                "Tasks queued across the live dynamic runs' brokers.",
            ).set_function(lambda: _live_sum(metrics, lambda pool: pool.broker.llen(_TASKS)))
            metrics.gauge(
                "laminar_dynamic_workers",
                "Worker threads of the live dynamic runs.",
            ).set_function(lambda: _live_sum(metrics, lambda pool: len(pool.workers)))

        #: ``(span, second stage)`` per fused segment, when traced: every
        #: item the second stage processed crossed the segment inline.
        self.segments: list[tuple[object, str]] = []
        if kernel.root is not None and fuse:
            for chain in flat.linear_segments():
                names = [pe.name for pe in chain]
                span = kernel.tracer.span(
                    "fused:" + "->".join(names), parent=kernel.root, stages=len(names)
                )
                self.segments.append((span, names[1]))

    # -- public API ----------------------------------------------------------------

    def start(self) -> "ElasticPool":
        """Spawn ``min_workers`` workers and the autoscaler, each in a copy
        of the caller's :mod:`contextvars` context."""
        with _live_lock:
            _live.add(self)
        with self.kernel.setup(
            min_workers=self.min_workers, max_workers=self.max_workers, autoscale=self.autoscale
        ):
            for _ in range(self.min_workers):
                self._spawn_worker()
            if self.autoscale:
                self.scaler = threading.Thread(
                    target=contextvars.copy_context().run,
                    args=(self._autoscaler_loop,),
                    daemon=True,
                )
                self.scaler.start()
        return self

    def push(self, name: str, idx: int, port: str | None, items: list) -> None:
        """Enqueue one task frame for instance ``idx`` of PE ``name``
        (``port`` ``None``: root invocations) and count it in flight.

        The enqueue timestamp travels with the frame so the consuming
        worker can measure queue wait.
        """
        if self._batch_histogram is not None:
            self._batch_histogram.labels(name).observe(len(items))
        self.broker.incr(_PENDING)
        self.broker.rpush(_TASKS, (name, idx, port, items, time.perf_counter()))

    def feed(self) -> Callable[[Any], None]:
        """A thread-safe ``push(item)`` delivering one item to every entry
        PE (a root with an input port) as a one-item frame; a root has one
        instance, so no routing is needed.  Raises ``ValueError`` when a
        root is a producer."""
        entries = []
        for pe in self.kernel.flat.roots():
            if isinstance(pe, ProducerPE) or not pe.inputconnections:
                raise ValueError(
                    f"root PE {pe.name!r} is a producer; a pushed stream needs "
                    "consumable entry PEs (roots with an input port)"
                )
            entries.append((pe.name, next(iter(pe.inputconnections))))

        def push(item: Any) -> None:
            for name, port in entries:
                self.push(name, 0, port, [item])

        return push

    def pending(self) -> int:
        """Task frames currently queued or executing."""
        return int(self.broker.get(_PENDING) or 0)

    def finish(self) -> RunResult:
        """Drain the queue, retire the pool, run the postprocess sweep and
        return the result.  Raises :class:`~repro.d4py.mappings.kernel.
        DrainTimeout` for a wedged run, ``Stopped`` once the stop token is
        set, and ``RuntimeError`` for worker failures."""
        kernel = self.kernel
        try:
            with kernel.enact():
                try:
                    kernel.wait(self._in_flight, _TASKS)
                finally:
                    self._retire()
                state = self._state()  # postprocess emissions land here
                kernel.sweep()
                self._merge(state)
                for key, inst in kernel.instances.items():
                    if inst.span is not None:
                        inst.span.set(queue_wait_seconds=round(self.queue_wait.get(key, 0.0), 6))
                for span, stage in self.segments:
                    items = sum(
                        int(i.cell[0]) for (name, _), i in kernel.instances.items() if name == stage
                    )
                    span.set(items=items).end()
                if kernel.root is not None:
                    kernel.root.set(peak_workers=self.peak_workers)
                kernel.result.logs.append(
                    f"dynamic: peak workers {self.peak_workers} "
                    f"(min {self.min_workers}, max {self.max_workers})"
                )
        finally:
            with _live_lock:
                _live.discard(self)
        return kernel.result

    def run(self, input_spec: Any) -> RunResult:
        """Enact a batch input: seed the root invocations, then :meth:`finish`."""
        roots = normalize_inputs(self.kernel.flat, input_spec)
        self.start()
        # Root invocations are seeded in full-size frames up front (adaptive
        # sizing has no queue-depth signal yet — the queue starts empty).
        size = self.frame_size or ADAPTIVE_CAP
        for root, invocations in roots.items():
            for lo in range(0, len(invocations), size):
                self.push(root.name, 0, None, invocations[lo : lo + size])
        return self.finish()

    # -- instances and frames ------------------------------------------------------

    def instance(self, name: str, idx: int) -> Instance:
        """Fetch instance ``idx`` of ``name``, creating it on first use.

        Creation — ``copy.deepcopy`` of the graph's PE plus the user's
        ``preprocess()`` — runs under a per-key gate, never a shared lock,
        so two distinct instances can always warm up concurrently.
        """
        key = (name, idx)
        inst = self.kernel.instances.get(key)
        if inst is not None:
            return inst
        with self._gates_lock:
            gate = self._gates.setdefault(key, threading.Lock())
        with gate:
            inst = self.kernel.instances.get(key)
            if inst is None:
                kernel = self.kernel
                outbox: list = []
                emit = kernel.emitter(
                    kernel.table[name], idx * 7919, self._deliver, self._collect, outbox
                )
                inst = kernel.open(
                    copy.deepcopy(kernel.pes[name]), idx, idx, emit, self._log, outbox
                )
        return inst

    def _state(self) -> _Worker:
        state = getattr(self._tls, "state", None)
        if state is None:
            frames = FrameBuffer(self._send, self._frame_target, BATCH_MAX_DELAY)
            state = self._tls.state = _Worker(frames, next(self._seats))
        return state

    def _deliver(self, hop: Hop, idx: int, data: Any) -> None:
        self._tls.state.frames.add((hop.dest, idx, hop.port), data)

    def _collect(self, leaf: tuple[str, str], data: Any) -> None:
        leaves = self._tls.state.leaf
        items = leaves.get(leaf)
        if items is None:
            items = leaves[leaf] = []
        items.append(data)

    def _log(self, message: str) -> None:
        with self.kernel.lock:
            self.kernel.result.logs.append(message)

    def _send(self, dest: tuple, items: list) -> None:
        self.push(*dest, items)

    def _frame_target(self) -> int:
        """Items per frame before a buffered destination is flushed.

        A fixed size is returned as is.  Adaptive sizing reads the same
        live signals the dashboards see — the queue depth and the queue-wait
        EWMA: a deep queue (or tasks visibly waiting on dispatch) grows
        frames to amortise broker round-trips; a shallow queue degrades to
        per-item dispatch so latency stays flat.
        """
        if self.frame_size is not None:
            return self.frame_size
        now = time.perf_counter()
        if now - self._adaptive_stamp >= _ADAPTIVE_REFRESH:
            depth = self.broker.llen(_TASKS)
            target = max(1, min(ADAPTIVE_CAP, depth // max(1, len(self.workers))))
            if self._wait_ewma > _WAIT_SLOW:
                target = min(ADAPTIVE_CAP, max(target * 2, 8))
            self._adaptive_target = target
            self._adaptive_stamp = now
        return self._adaptive_target

    def _merge(
        self, state: _Worker, key: tuple[str, int] | None = None, waited: float = 0.0
    ) -> None:
        """Fold a worker's frame-local leaf items and queue wait into the run."""
        kernel = self.kernel
        with kernel.lock:
            for leaf, items in state.leaf.items():
                kernel.result.outputs.setdefault(leaf, []).extend(items)
            if key is not None:
                self.queue_wait[key] = self.queue_wait.get(key, 0.0) + waited
        state.leaf.clear()

    # -- workers -------------------------------------------------------------------

    def _run_task(self, state: _Worker, task: tuple) -> None:
        name, idx, port, items, enqueued = task
        waited = time.perf_counter() - enqueued
        self._wait_ewma += _EWMA_ALPHA * (waited - self._wait_ewma)
        if self._wait_histogram is not None:
            self._wait_histogram.labels(name).observe(waited)
        kernel = self.kernel
        try:
            inst = self.instance(name, idx)
            while True:
                outbox = inst.outbox
                with inst.lock:
                    try:
                        kernel.invoke(inst, port, items)
                        items = outbox[:]
                    finally:
                        # A failed stage abandons its fused cascade (the
                        # run is going to raise).
                        outbox.clear()
                if not items:
                    break
                # What crossed a fused hop runs inline, one stage at a
                # time; workflows are DAGs, so the chain ends.
                hop = kernel.fused[inst.pe.name]
                inst = self.instance(hop.dest, state.seat % hop.n)
                port = hop.port
        finally:
            # Flushing must happen before the caller decrements the
            # in-flight counter, so the run can never observe "drained"
            # with items still buffered.
            state.frames.flush()
            self._merge(state, (name, idx), waited)

    def _worker_loop(self) -> None:
        state = self._state()
        while not self.retire.is_set():
            # Head pop paired with push's tail push: true FIFO, so the
            # oldest queued frame is always the next one claimed.
            task = self.broker.blpop(_TASKS, timeout=STOP_POLL)
            if task is None:
                with self.workers_lock:
                    me = threading.current_thread()
                    if len(self.workers) > self.target_workers and me in self.workers:
                        self.workers.remove(me)
                        return
                continue
            if task == _STOP_FRAME:
                return
            try:
                self._run_task(state, task)
            except Exception as exc:
                self.kernel.fail(f"task {task[0]}[{task[1]}]: {type(exc).__name__}: {exc}")
            finally:
                self.broker.decr(_PENDING)

    def _spawn_worker(self) -> None:
        thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._worker_loop,), daemon=True
        )
        with self.workers_lock:
            self.workers.append(thread)
            self.peak_workers = max(self.peak_workers, len(self.workers))
        thread.start()

    def _autoscaler_loop(self) -> None:
        while not self.retire.is_set():
            depth = self.broker.llen(_TASKS)
            spawn = False
            # target_workers is read by _worker_loop under workers_lock
            # for its scale-down decision, so every write happens under
            # the same lock — an unsynchronised write could shrink the
            # pool past the floor a concurrent reader just checked.
            with self.workers_lock:
                current = len(self.workers)
                if depth > _SCALE_UP_DEPTH and current < self.max_workers:
                    self.target_workers = min(self.max_workers, current + 1)
                    spawn = True
                elif depth == 0 and current > self.min_workers:
                    self.target_workers = max(self.min_workers, current - 1)
            if spawn:
                self._spawn_worker()
            # Waiting on the retire flag, not sleeping, lets _retire join
            # this thread the moment the queue drained.
            self.retire.wait(_SCALE_INTERVAL)

    def _in_flight(self, timeout: float) -> int:
        if self.broker.wait_for_zero(_PENDING, timeout=timeout):
            return 0
        return self.pending()

    def _retire(self) -> None:
        """Retire the autoscaler, then every worker (one stop sentinel each);
        threads outliving the join budget are reported as a ``worker_leak``
        event in the run's logs."""
        self.retire.set()
        stuck = []
        if self.scaler is not None:
            self.scaler.join(timeout=_JOIN_TIMEOUT)
            if self.scaler.is_alive():
                stuck.append(self.scaler)
        with self.workers_lock:
            workers = list(self.workers)
        if workers:
            # Sentinels are not counted in flight; any left undrained go
            # with the pool's broker.
            self.broker.rpush(_TASKS, *([_STOP_FRAME] * len(workers)))
        for thread in workers:
            thread.join(timeout=_JOIN_TIMEOUT)
        stuck += [thread for thread in workers if thread.is_alive()]
        if stuck:
            from repro.obs.events import format_event

            self._log(
                format_event(
                    "worker_leak",
                    component="dynamic",
                    leaked_threads=len(stuck),
                    join_timeout=_JOIN_TIMEOUT,
                    queue=_TASKS,
                )
            )


def run_dynamic(graph: WorkflowGraph, input: Any = 1, **options: Any) -> RunResult:
    """Execute ``graph`` with dynamic workload allocation over a work queue.

    ``input`` is the root input spec (see :func:`normalize_inputs`);
    ``options`` are :class:`ElasticPool`'s.
    """
    return ElasticPool(graph, **options).run(input)
