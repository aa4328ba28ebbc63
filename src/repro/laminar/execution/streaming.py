"""True-streaming stdout capture (paper §IV-E).

Laminar 2.0 "transfers stdout to a concurrent queue, enabling real-time
workflow output reading and line-by-line streaming to the client".  Each
run is an :class:`Enactment`, a thread owning the run's line sink, stop
token and outcome; a streamed run's reader takes every line printed since
its last read in one step, so a burst of output costs one hand-off, not
one per line.  :class:`StdoutRouter` installs one ``sys.stdout``
proxy writing to the enactment of the current :mod:`contextvars` context,
so concurrent runs never interleave, threads a mapping starts under
``copy_context().run`` print into their run's sink, and any other
context's output passes through.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from typing import Any, Callable, Iterator, TextIO

__all__ = ["Enactment", "INACTIVITY_TIMEOUT", "SINK_CAPACITY", "StdoutRouter"]

#: Lines a streamed run may print ahead of its reader before ``print``
#: blocks — above the request-path ledger's 100-line run.
SINK_CAPACITY = 1024

#: Seconds without a printed line after which a run is presumed wedged.
INACTIVITY_TIMEOUT = 300.0

_current = contextvars.ContextVar("laminar_enactment", default=None)


class _StdoutProxy:
    """A ``sys.stdout`` stand-in writing to the current enactment, if any."""

    def __init__(self, fallback: TextIO) -> None:
        self._fallback = fallback

    def write(self, text: str) -> int:
        """Write to the current enactment (or fall through)."""
        return (_current.get() or self._fallback).write(text)

    def flush(self) -> None:
        """Flush the fallback stream."""
        self._fallback.flush()

    # File-protocol odds and ends some libraries poke at.
    def isatty(self) -> bool:
        """Streamed stdout is never a TTY."""
        return False

    @property
    def encoding(self) -> str:  # pragma: no cover - passthrough
        """Mirror the fallback stream's encoding."""
        return getattr(self._fallback, "encoding", "utf-8")


class Enactment:
    """One run on its own thread, with its line sink, stop token and outcome.

    Every line the run prints goes to ``sink`` — or, without one, to a
    buffer of at most :data:`SINK_CAPACITY` lines that :meth:`batches`
    drains, every line already buffered in one step.  Setting ``stop``
    ends the run at its next PE-invocation boundary; ``done`` is set once
    the work returned or raised (``error``).  The engine's work executes
    a module it compiled once per source and provided-name set (see
    :class:`~repro.laminar.execution.engine.ExecutionEngine`), into a
    namespace of this run's own.
    """

    def __init__(
        self,
        sink: Callable[[str], None] | None = None,
        outcome: Any = None,
        stop: threading.Event | None = None,
    ) -> None:
        self.outcome = outcome
        self.stop = stop or threading.Event()
        self.done = threading.Event()
        self.error: BaseException | None = None
        self.last_write = time.monotonic()
        self._buffer: list[str] = []
        self._eof = False
        lock = threading.RLock()
        self._readable = threading.Condition(lock)  # lines buffered, or EOF
        self._writable = threading.Condition(lock)  # the buffer has room
        self._sink = sink or self._put
        # One unterminated tail per printing thread: print writes its text
        # and newline separately, so a shared tail would splice the lines
        # of two workers printing at once.
        self._local = threading.local()
        self._tails: list[list[str]] = []

    def start(self, work: Callable[[], None]) -> "Enactment":
        """Run ``work()`` on the enactment thread; returns ``self``."""
        StdoutRouter.instance().install()
        threading.Thread(
            target=self._run, args=(work,), name="laminar-enactment", daemon=True
        ).start()
        return self

    def write(self, text: str) -> int:
        """Buffer printed text; every completed line goes to the sink."""
        self.last_write = time.monotonic()
        tail = getattr(self._local, "tail", None)
        if tail is None:
            tail = self._local.tail = [""]
            self._tails.append(tail)
        *lines, tail[0] = (tail[0] + text).split("\n")
        for line in lines:
            self._sink(line)
        return len(text)

    def _put(self, line: str) -> None:
        with self._writable:
            while len(self._buffer) >= SINK_CAPACITY:
                if self.stop.is_set():  # a stopped run has no reader
                    return
                self._writable.wait(0.05)
            self._buffer.append(line)
            self._readable.notify()

    def _run(self, work: Callable[[], None]) -> None:
        _current.set(self)
        try:
            work()
        except BaseException as exc:  # handed to the reader by run_streaming
            self.error = exc
        finally:
            for tail in self._tails:
                if tail[0]:
                    self._sink(tail[0])
            self.done.set()
            with self._readable:
                self._eof = True
                self._readable.notify()

    def batches(self, timeout: float = INACTIVITY_TIMEOUT) -> Iterator[list[str]]:
        """Yield the buffered lines, all of them per step, until the run
        ends.  ``timeout`` seconds without one raise ``TimeoutError``.
        However the reader leaves — timed out, closed early or done — it
        sets the stop token."""
        try:
            while True:
                with self._readable:
                    if not self._readable.wait_for(
                        lambda: self._buffer or self._eof, timeout
                    ):
                        raise TimeoutError(
                            f"no output for {timeout}s; workflow presumed wedged"
                        )
                    batch, self._buffer, eof = self._buffer, [], self._eof
                    self._writable.notify_all()
                if batch:
                    yield batch
                if eof:
                    return
        finally:
            self.stop.set()


class StdoutRouter:
    """Process-wide singleton managing streaming stdout capture.

    Usage::

        router = StdoutRouter.instance()
        for batch in router.run_streaming(work):
            ...  # lists of lines, as `work` prints them
    """

    _instance: "StdoutRouter | None" = None
    _instance_lock = threading.Lock()

    @classmethod
    def instance(cls) -> "StdoutRouter":
        """The process-wide router singleton."""
        with cls._instance_lock:
            if cls._instance is None:
                cls._instance = cls()
            return cls._instance

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # The one proxy, alive as long as the router (the process): print()
        # holds a *borrowed* reference to sys.stdout, so a proxy freed when
        # something swaps sys.stdout mid-print would crash the run thread.
        self._proxy = _StdoutProxy(sys.stdout)

    def install(self) -> None:
        """Put the proxy back in front of ``sys.stdout`` unless it is there,
        passing through to whatever stream it displaced.  It stays: outside
        an enactment it passes every write through."""
        with self._lock:
            if sys.stdout is not self._proxy:
                self._proxy._fallback = sys.stdout
                sys.stdout = self._proxy

    def run_streaming(
        self,
        work,
        timeout: float = INACTIVITY_TIMEOUT,
        stop: threading.Event | None = None,
    ) -> Iterator[list[str]]:
        """Run ``work()`` as an :class:`Enactment`, yielding its printed lines
        live: each step is the list of every line printed since the last.

        ``stop`` is the run's stop token.  The worker's exception (if any)
        is re-raised after the stream drains, so callers see output up to
        the failure point first.
        """
        enactment = Enactment(stop=stop).start(work)
        yield from enactment.batches(timeout)
        if enactment.error is not None:
            raise enactment.error
