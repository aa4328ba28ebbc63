"""Real-time stream ingestion: push data into a *live* workflow.

One of Laminar 2.0's listed contributions is "support for dynamic process
allocation and real-time data streams within serverless environments".
The batch-style ``run_graph`` drives producers a fixed number of times;
:class:`StreamSession` instead keeps a workflow *running* on the dynamic
mapping's elastic pool and lets external code push items as they arrive —
a socket reader, a message-bus consumer, a simulation loop:

    session = StreamSession(graph).start()
    session.push({"sensor": "s1", "value": 21.5})   # any thread
    ...
    result = session.stop()                          # drain + RunResult

Pushed items are delivered to the workflow's *entry* PEs (roots with an
input port), honouring their groupings; the elastic worker pool and
per-instance state semantics are exactly those of the dynamic mapping.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.d4py.mappings.base import RunResult
from repro.d4py.mappings.dynamic import ElasticPool
from repro.d4py.workflow import WorkflowGraph

__all__ = ["StreamSession"]


class StreamSession:
    """A live workflow accepting pushed items until stopped."""

    def __init__(
        self,
        graph: WorkflowGraph,
        min_workers: int = 1,
        max_workers: int = 4,
        instances_per_pe: int = 4,
        autoscale: bool = True,
        batch_max_items: int | str | None = None,
        fuse: bool = True,
    ) -> None:
        """The parameters are :class:`~repro.d4py.mappings.dynamic.ElasticPool`'s
        pool, batching and fusion settings."""
        self._pool = ElasticPool(
            graph,
            min_workers=min_workers,
            max_workers=max_workers,
            instances_per_pe=instances_per_pe,
            autoscale=autoscale,
            batch_max_items=batch_max_items,
            fuse=fuse,
        )
        self._feed = self._pool.feed()
        self._started = False
        self._stopped = False
        self._pushed = 0
        self._lock = threading.Lock()

    def start(self) -> "StreamSession":
        """Spin up the worker pool (and autoscaler); idempotent."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._pool.start()
        return self

    def push(self, item: Any) -> None:
        """Deliver one item to every entry PE (thread-safe)."""
        if not self._started or self._stopped:
            raise RuntimeError("push() requires a started, unstopped session")
        with self._lock:
            self._pushed += 1
        self._feed(item)

    def push_many(self, items) -> int:
        """Push an iterable of items; returns how many were pushed."""
        count = 0
        for item in items:
            self.push(item)
            count += 1
        return count

    @property
    def pushed(self) -> int:
        """How many items have been pushed into the session."""
        return self._pushed

    def pending(self) -> int:
        """Tasks currently queued or executing."""
        return self._pool.pending()

    def results_so_far(self) -> dict[str, list]:
        """Snapshot of leaf outputs collected so far (copy)."""
        kernel = self._pool.kernel
        with kernel.lock:
            return {
                f"{pe}.{port}": list(values)
                for (pe, port), values in kernel.result.outputs.items()
            }

    def stop(self) -> RunResult:
        """Drain in-flight work, retire workers, return the final result."""
        with self._lock:
            if self._stopped:
                return self._pool.kernel.result
            self._stopped = True
        return self._pool.finish()

    def __enter__(self) -> "StreamSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        if not self._stopped:
            self.stop()
