"""The execution engine: serverless enactment of registered workflows.

Given a workflow's registered source code, the engine

1. materialises any declared resources from the cache (§IV-F) into a
   run directory it removes once the run has ended,
2. applies dependency auto-import (§III) and compiles the module — once
   per source and provided-name set: the engine keeps the code object in
   a bounded least-recently-used cache,
3. executes it in a fresh namespace pre-populated with the dispel4py PE
   base classes and :class:`WorkflowGraph`, so no PE class or state is
   shared between runs,
4. locates the workflow graph (an explicit ``graph_name``, a
   ``create_workflow()`` factory, or the first ``WorkflowGraph`` bound at
   module scope), and
5. enacts it with the requested mapping on an
   :class:`~repro.laminar.execution.streaming.Enactment`, handing every
   printed line to the run's sink as it is produced (§IV-E true
   streaming) and the run's stop token to the mapping.

``stream_batches`` returns ``(batch_iterator, outcome)`` — each step the
list of lines printed since the last — where ``outcome`` fills in once
the iterator is exhausted: the shape the ``run`` action's DATA frames
want.  ``execute_streaming`` is the same stream one line at a time;
``enact`` takes the sink as a callable and returns the handle.
"""

from __future__ import annotations

import functools
import itertools
import shutil
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Callable, Iterator

from repro import pyast
from repro.d4py import (
    CompositePE,
    ConsumerPE,
    GenericPE,
    IterativePE,
    ProducerPE,
    WorkflowGraph,
)
from repro.d4py.mappings import run_graph
from repro.laminar.execution.autoimport import auto_import
from repro.laminar.execution.resources import (
    ResourceCache,
    ResourceManifestEntry,
)
from repro.laminar.execution.streaming import (
    INACTIVITY_TIMEOUT,
    Enactment,
    StdoutRouter,
)

__all__ = ["CODE_CACHE_SIZE", "ExecutionEngine", "ExecutionOutcome"]

_module_counter = itertools.count()

#: Compiled workflow modules an engine keeps (``ExecutionEngine._compiled``);
#: the least recently used entry goes first.
CODE_CACHE_SIZE = 128

#: Names the engine injects into every workflow namespace.
_BASE_NAMESPACE = {
    "GenericPE": GenericPE,
    "IterativePE": IterativePE,
    "ProducerPE": ProducerPE,
    "ConsumerPE": ConsumerPE,
    "CompositePE": CompositePE,
    "WorkflowGraph": WorkflowGraph,
}


@dataclass
class ExecutionOutcome:
    """Filled in when a streamed execution finishes."""

    status: str = "pending"  # success | error
    error: str | None = None
    outputs: dict[str, list] = field(default_factory=dict)
    logs: list[str] = field(default_factory=list)
    iterations: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    partition: dict[str, str] = field(default_factory=dict)
    #: Nested span trees of the run (see :meth:`repro.obs.Tracer.tree`)
    #: when the run was requested with ``trace=True``; ``None`` otherwise.
    trace: list | None = None

    def to_public(self) -> dict:
        """JSON-able form sent to clients in the END frame."""
        public = {
            "status": self.status,
            "error": self.error,
            "outputs": self.outputs,
            "logs": self.logs,
            "iterations": self.iterations,
            "timings": self.timings,
            "partition": self.partition,
        }
        if self.trace is not None:
            public["trace"] = self.trace
        return public


def _json_safe(value: Any):
    try:
        import json

        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


class ExecutionEngine:
    """Executes registered workflow source code serverlessly.

    ``_compiled(source, provided)`` returns each workflow's compiled
    module from a cache of :data:`CODE_CACHE_SIZE` entries keyed by the
    source text and the frozenset of names the run's namespace provides
    (auto-import leaves a provided name alone, so a sandboxed run and a
    run with resources each get their own entry).  Only the code object
    is shared: every run still executes it into a fresh namespace, so a
    repeat run pays only for executing the module and enacting its
    graph."""

    def __init__(
        self,
        resource_cache: ResourceCache | None = None,
        registry=None,
        tracer=None,
    ) -> None:
        """``registry``/``tracer`` are the observability sinks every run
        records into — a server passes its own; standalone engines fall
        back to the process defaults (see :mod:`repro.obs.runtime`).  A
        dynamic-mapping run brings its own work-queue broker, so the
        engine holds none."""
        self.cache = resource_cache or ResourceCache()
        self.registry = registry
        self.tracer = tracer
        self._compiled = functools.lru_cache(maxsize=CODE_CACHE_SIZE)(self._compile)

    @staticmethod
    def _compile(source: str, provided: frozenset) -> CodeType:
        patched = auto_import(source, provided=set(provided))
        return pyast.compile_source(patched, "laminar_workflow", "exec")

    # -- graph discovery ------------------------------------------------------

    @staticmethod
    def _find_graph(namespace: dict, graph_name: str | None) -> WorkflowGraph:
        if graph_name:
            graph = namespace.get(graph_name)
            if not isinstance(graph, WorkflowGraph):
                raise ValueError(
                    f"{graph_name!r} is not a WorkflowGraph in the workflow module"
                )
            return graph
        factory = namespace.get("create_workflow") or namespace.get("create_graph")
        if callable(factory):
            graph = factory()
            if not isinstance(graph, WorkflowGraph):
                raise ValueError("create_workflow() did not return a WorkflowGraph")
            return graph
        for value in namespace.values():
            if isinstance(value, WorkflowGraph):
                return value
        raise ValueError(
            "workflow module defines no WorkflowGraph (bind one at module "
            "scope or provide create_workflow())"
        )

    # -- execution ----------------------------------------------------------------

    def _work(
        self,
        code: str,
        outcome: ExecutionOutcome,
        stop: threading.Event,
        input: Any = 1,
        mapping: str = "simple",
        graph_name: str | None = None,
        resources: list[dict] | None = None,
        verbose: bool = False,
        sandbox: bool = False,
        **options: Any,
    ) -> Callable[[], None]:
        """The body of one enactment of ``code``: it fills ``outcome`` and
        hands ``stop`` to the mapping.  With ``sandbox`` the module
        executes under restricted builtins (see
        :mod:`repro.laminar.execution.sandbox`)."""

        def work() -> None:
            namespace: dict[str, Any] = dict(_BASE_NAMESPACE)
            namespace["__name__"] = f"laminar_workflow_{next(_module_counter)}"
            rundir: str | None = None
            try:
                if resources:
                    manifest = [ResourceManifestEntry.from_dict(r) for r in resources]
                    rundir = tempfile.mkdtemp(prefix="laminar-run-")
                    namespace["RESOURCES"] = self.cache.materialize(manifest, rundir)
                    namespace["RESOURCE_DIR"] = rundir
                if sandbox:
                    from repro.laminar.execution.sandbox import make_sandbox_builtins

                    namespace["__builtins__"] = make_sandbox_builtins(rundir)
                exec(self._compiled(code, frozenset(namespace)), namespace)
                graph = self._find_graph(namespace, graph_name)
                options.setdefault("registry", self.registry)
                result = run_graph(
                    graph, input=input, mapping=mapping, verbose=verbose, stop=stop,
                    **options,
                )
                outcome.outputs = {
                    f"{pe}.{port}": [_json_safe(v) for v in values]
                    for (pe, port), values in result.outputs.items()
                }
                outcome.logs = list(result.logs)
                outcome.iterations = dict(result.iterations)
                outcome.timings = {k: round(v, 6) for k, v in result.timings.items()}
                outcome.partition = {k: repr(v) for k, v in result.partition.items()}
                if result.trace is not None:
                    outcome.trace = result.trace.tree()
                    if self.tracer is not None and result.trace is not self.tracer:
                        # Fold the run's spans into the server's sink so
                        # ``get_trace`` serves them later.
                        self.tracer.adopt(result.trace)
                outcome.status = "success"
            finally:
                # run_graph returns only once every worker has retired.
                if rundir is not None:
                    shutil.rmtree(rundir, ignore_errors=True)

        return work

    def enact(self, code: str, sink: Callable[[str], None], **kwargs: Any) -> Enactment:
        """Start ``code`` on an enactment whose printed lines go to ``sink``
        (``kwargs`` as for :meth:`execute_streaming`); its ``outcome`` is
        complete once ``done`` is set, unless the run raised (``error``)."""
        enactment = Enactment(sink, ExecutionOutcome())
        work = self._work(code, enactment.outcome, enactment.stop, **kwargs)
        return enactment.start(work)

    def stream_batches(
        self, code: str, inactivity_timeout: float = INACTIVITY_TIMEOUT, **kwargs: Any
    ) -> tuple[Iterator[list[str]], ExecutionOutcome]:
        """Run workflow ``code``; returns ``(batch_iterator, outcome)``.

        ``kwargs`` are ``input``, ``mapping``, ``graph_name``,
        ``resources``, ``verbose``, ``sandbox`` and mapping options.
        Each step yields every line printed since the previous one, as a
        list; ``outcome`` is complete once the iterator is exhausted.
        Errors are reported through ``outcome`` (status ``error``) rather
        than raised, so partial output always reaches the client first.
        Closing the iterator early, or ``inactivity_timeout`` seconds
        without a line, stops the run.
        """
        outcome, stop = ExecutionOutcome(), threading.Event()
        work = self._work(code, outcome, stop, **kwargs)

        def batches() -> Iterator[list[str]]:
            router = StdoutRouter.instance()
            try:
                yield from router.run_streaming(work, inactivity_timeout, stop)
            except Exception:
                outcome.status = "error"
                outcome.error = traceback.format_exc(limit=4)

        return batches(), outcome

    def execute_streaming(
        self, code: str, inactivity_timeout: float = INACTIVITY_TIMEOUT, **kwargs: Any
    ) -> tuple[Iterator[str], ExecutionOutcome]:
        """:meth:`stream_batches`, one line at a time: returns
        ``(line_iterator, outcome)``.  The compiled module comes from
        ``_compiled``, keyed by ``code`` and the run's provided-name
        set."""
        stream, outcome = self.stream_batches(code, inactivity_timeout, **kwargs)

        def lines() -> Iterator[str]:
            try:
                for batch in stream:
                    yield from batch
            finally:
                stream.close()  # stops the run if the reader left early

        return lines(), outcome

    def inspect(self, code: str, graph_name: str | None = None) -> dict:
        """Build (but do not run) a workflow's graph; return renderings.

        Used by the client's ``show`` command: returns the text and DOT
        visualisations plus basic topology facts.  The module comes from
        the same ``_compiled`` entry a plain run of ``code`` uses.
        """
        from repro.d4py.visualise import to_dot, to_text

        namespace: dict[str, Any] = dict(_BASE_NAMESPACE)
        namespace["__name__"] = f"laminar_inspect_{next(_module_counter)}"
        exec(self._compiled(code, frozenset(namespace)), namespace)
        graph = self._find_graph(namespace, graph_name)
        return {
            "text": to_text(graph),
            "dot": to_dot(graph),
            "pes": [pe.name for pe in graph.pes],
            "roots": [pe.name for pe in graph.roots()],
            "edges": len(list(graph.edges())),
        }

    def execute(self, code: str, **kwargs: Any) -> ExecutionOutcome:
        """Blocking convenience: drain the stream, return the outcome.

        ``outcome.logs`` holds the PE ``log`` entries followed by every
        printed line, each once and in the order it was printed.
        """
        stream, outcome = self.execute_streaming(code, **kwargs)
        printed = list(stream)
        outcome.logs = outcome.logs + printed
        return outcome
