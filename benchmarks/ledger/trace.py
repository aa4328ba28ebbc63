"""Outside-in tracer: spans around each layer's public callables.

Nothing under ``src/`` is edited.  :class:`Tracer.install` replaces the
public callables listed in :func:`trace_points` with recording wrappers
and :meth:`Tracer.uninstall` puts the originals back.  A span is
``(id, parent, name, op, thread, start, end, counts)``: ``op`` is the
request id (the index of the end-to-end op being replayed — the replay
drives one connection, so one op is in flight at a time), ``parent`` is
the enclosing span on the same thread.  Spans stay in memory until the
replay ends.

Self time is computed by a sweep over each op's interval
(:func:`self_times`): every instant is charged to the active span that
*started last*, on whatever thread.  Within one thread that is exactly
"span minus children"; across threads it charges a server-side span
rather than the client span blocked waiting on it, and — because the
replay shares one GIL — a short span that is active is the one running.
A waiting span (the client side of an exchange) yields to any computing
span on another thread.  Each op's charges sum to its client-observed
latency.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import defaultdict
from time import perf_counter

from repro.laminar.transport.frames import FrameType

__all__ = ["Tracer", "trace_points", "self_times", "ROOT_SPAN"]

#: Name of the span the runner opens around each end-to-end op.
ROOT_SPAN = "ledger.op"


class Tracer:
    """Records spans from wrapped callables while ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.current_op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        return _SpanContext(self, name)

    def _record(self, sid, parent, name, op, start, end, counts) -> None:
        self.spans.append(
            (sid, parent, name, op, threading.get_ident(), start, end, counts)
        )

    def _wrap(self, original, name, counts, is_generator):
        tracer = self

        def call(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            op = tracer.current_op
            span_name = name(args, kwargs) if callable(name) else name
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if counts else None
                tracer._record(sid, parent, span_name, op, start, end, extra)

        def generate(*args, **kwargs):
            # The span runs from the first ``next`` to exhaustion; it is not
            # pushed on the thread's stack because the consumer interleaves
            # its own calls between two ``next``s.
            if not tracer.enabled:
                yield from original(*args, **kwargs)
                return
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            op = tracer.current_op
            start = perf_counter()
            try:
                yield from original(*args, **kwargs)
            finally:
                tracer._record(sid, parent, name, op, start, perf_counter(), None)

        wrapper = generate if is_generator else call
        wrapper.__name__ = getattr(original, "__name__", "wrapped")
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self, points) -> None:
        """Wrap every ``(owner, attribute, name, counts, kind)`` point."""
        for owner, attr, name, counts, kind in points:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counts, False))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, counts, False))
            else:
                wrapped = self._wrap(raw, name, counts, kind == "generator")
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original callable."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        if not tracer.enabled:
            self.sid = 0
            return self
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1] if stack else 0
        self.op = tracer.current_op
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.sid:
            return
        end = perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(
            self.sid, self.parent, self.name, self.op, self.start, end, None
        )


# -- the layer boundaries ---------------------------------------------------------


def _frame_counts(args, kwargs, result):
    frame = args[0]
    payload = frame.payload
    is_request = isinstance(payload, dict) and "action" in payload
    counts = {"bytes_out" if is_request else "bytes_in": len(result or b"")}
    if frame.type is FrameType.DATA:
        counts["data"] = 1
    return counts


def _status_counts(args, kwargs, result):
    status = (result or {}).get("status", 500)
    counts = {}
    if status >= 500:
        counts["5xx"] = 1
    elif status >= 400:
        counts["4xx"] = 1
        if status in (421, 429):
            counts[str(status)] = 1
    return counts


def _semantic_fetch(args, kwargs, result):
    top_k = kwargs.get("top_k", args[2] if len(args) > 2 else 5)
    return {"fetched": len(result or ()), "asked": top_k}


def _returned(args, kwargs, result):
    return {"returned": len(result or ())}


def _mapping_name(args, kwargs):
    return "mapping." + str(kwargs.get("mapping", "simple"))


def _public_methods(cls) -> list[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (callable(value) or isinstance(value, (staticmethod, classmethod)))
        and not isinstance(value, (property, type))
    ]


#: Client verbs the workloads call (both clients expose the same names).
_VERBS = (
    "register_PE",
    "get_PE",
    "update_PE_Description",
    "remove_PE",
    "search_Registry_Literal",
    "search_Registry_Semantic",
    "code_Recommendation",
    "run",
    "run_dynamic",
    "submit_Job",
    "job_Status",
    "job_Result",
)


def trace_points() -> list[tuple]:
    """``(owner, attribute, span name, counts, kind)`` for every boundary.

    Span names are ``<layer>.<what>``; the layer prefix is what the
    ledger groups by.  Only public callables are wrapped.
    """
    import repro.laminar.execution.engine as engine_mod
    import repro.laminar.server.services as services_mod
    import repro.pyast as pyast_mod
    import repro.search.code as code_mod
    from repro.laminar.client.client import LaminarClient
    from repro.laminar.cluster.client import ShardedClient
    from repro.laminar.execution.streaming import StdoutRouter
    from repro.laminar.jobs.manager import JobManager
    from repro.laminar.jobs.store import DatabaseJobStore
    from repro.laminar.registry.database import RegistryDatabase
    from repro.laminar.server import dataaccess
    from repro.laminar.server.app import LaminarServer, ServerMetrics
    from repro.laminar.server.controllers import Router
    from repro.laminar.server.models import PERecord
    from repro.laminar.transport.frames import Frame
    from repro.laminar.transport.tcp import TcpClientTransport
    from repro.models.describer import CodeT5Describer
    from repro.models.embedder import UniXcoderEmbedder
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricFamily
    from repro.search.code import CodeSearch
    from repro.search.index.vector import VectorIndex
    from repro.search.semantic import SemanticSearch

    points: list[tuple] = []

    def add(owner, attr, name, counts=None, kind="call"):
        points.append((owner, attr, name, counts, kind))

    for verb in _VERBS:
        add(LaminarClient, verb, f"client.{verb}")
        if verb in vars(ShardedClient):  # the sharded client has no run_dynamic
            add(ShardedClient, verb, f"cluster.{verb}")
    add(TcpClientTransport, "request", "tcp.request")
    add(TcpClientTransport, "stream", "tcp.stream", kind="generator")
    add(TcpClientTransport, "ping", "tcp.ping")
    add(Frame, "encode", "frames.encode", _frame_counts)
    add(Frame, "decode", "frames.decode")

    add(LaminarServer, "handle", "server.handle", _status_counts)
    add(Router, "resolve_user", "server.auth")
    add(services_mod.AuthService, "resolve", "server.auth")
    add(Router, "dispatch", "server.dispatch")
    for cls in (
        services_mod.RegistryService,
        services_mod.ExecutionService,
        services_mod.JobService,
    ):
        for attr in _public_methods(cls):
            counts = _returned if attr == "semantic_search" else None
            add(cls, attr, f"services.{attr}", counts)

    for attr in ("execute", "executemany"):
        add(RegistryDatabase, attr, "sqlite.write", lambda a, k, r: {"calls": 1})
    add(RegistryDatabase, "query", "sqlite.read", lambda a, k, r: {"calls": 1, "rows": len(r or ())})
    for cls_name in (
        "UserRepository",
        "ApiKeyRepository",
        "PERepository",
        "WorkflowRepository",
        "ExecutionRepository",
        "ResponseRepository",
        "JobRepository",
    ):
        cls = getattr(dataaccess, cls_name)
        for attr in _public_methods(cls):
            add(cls, attr, "sqlite.repository")

    add(CodeT5Describer, "describe", "models.describe")
    add(UniXcoderEmbedder, "encode", "models.embed")
    for module in (services_mod, code_mod):
        add(module, "extract_features", "aroma.featurize")
        add(module, "python_to_spt", "aroma.featurize")

    add(SemanticSearch, "search", "index.search", _semantic_fetch)
    add(VectorIndex, "search_vector", "index.search")
    add(SemanticSearch, "add_precomputed", "index.add")
    add(SemanticSearch, "remove", "index.remove")
    add(SemanticSearch, "add_precomputed_batch", "index.rebuild")

    add(CodeSearch, "__init__", "aroma.rebuild", lambda a, k, r: {"rebuilds": 1})
    add(CodeSearch, "add", "aroma.rebuild")
    add(PERecord, "spt_features", "aroma.rebuild")
    add(CodeSearch, "search_spt", "aroma.search")

    add(engine_mod.ExecutionEngine, "execute_streaming", "engine.prepare")
    add(engine_mod, "auto_import", "engine.prepare")
    add(pyast_mod, "compile_source", "engine.prepare")
    add(StdoutRouter, "run_streaming", "engine.stream", kind="generator")
    add(engine_mod, "run_graph", _mapping_name)

    add(JobManager, "submit", "jobs.submit")
    for attr in ("get", "status", "result"):
        add(JobManager, attr, "jobs.lookup")
    for attr in ("create", "save"):
        add(DatabaseJobStore, attr, "jobs.store", lambda a, k, r: {"writes": 1})

    add(ServerMetrics, "record", "obs.record")
    add(ServerMetrics, "record_job", "obs.record")
    add(MetricFamily, "labels", "obs.record")
    add(Counter, "inc", "obs.record")
    add(Gauge, "set", "obs.record")
    add(Histogram, "observe", "obs.record")
    return points


# -- attribution ------------------------------------------------------------------


#: Spans that wait rather than compute: the client side of an exchange,
#: and the runner's sleep between job polls.
WAITING = frozenset({"tcp.request", "tcp.stream", "tcp.ping", "jobs.poll_wait"})


def self_times(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per op: seconds charged to each span name.

    Every instant goes to the active span that started last, except that
    a :data:`WAITING` span yields to a computing span on another thread —
    a poll that waits while job workers hold the GIL is their time, not
    the wire's.
    """
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_op[span[3]].append(span)
    charged: dict[int, dict[str, float]] = {}
    for op, op_spans in by_op.items():
        # Clip to the op's root span so a straggler on another thread (a
        # worker finishing its bookkeeping) cannot push the sum past the
        # latency the client saw.
        root = next((s for s in op_spans if s[2] == ROOT_SPAN), None)
        if root is not None:
            lo, hi = root[5], root[6]
            op_spans = [
                s[:5] + (max(s[5], lo), min(s[6], hi)) + s[7:]
                for s in op_spans
                if s[6] > lo and s[5] < hi
            ]
        op_spans.sort(key=lambda s: s[5])
        points = sorted({s[5] for s in op_spans} | {s[6] for s in op_spans})
        totals: dict[str, float] = defaultdict(float)
        heap: list[tuple[float, float, str, int]] = []  # (-start, end, name, thread)
        nxt = 0
        for left, right in zip(points, points[1:]):
            while nxt < len(op_spans) and op_spans[nxt][5] <= left:
                s = op_spans[nxt]
                heapq.heappush(heap, (-s[5], s[6], s[2], s[4]))
                nxt += 1
            while heap and heap[0][1] <= left:
                heapq.heappop(heap)
            if not heap:
                continue
            _, _, name, thread = heap[0]
            if name in WAITING:
                busy = [
                    entry for entry in heap
                    if entry[3] != thread and entry[1] > left and entry[2] not in WAITING
                ]
                if busy:
                    name = min(busy)[2]
            totals[name] += right - left
        charged[op] = dict(totals)
    return charged
