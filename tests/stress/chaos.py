"""Fault-injection primitives for the stress suite.

Two chaos layers, matching the two substrates the client–server path
depends on:

* :class:`FaultyRedisSim` — a :class:`~repro.d4py.redisim.RedisSim`
  whose operations can be slowed down (simulated broker latency) and
  whose condition-variable wake-ups can be selectively dropped
  (simulated lost notifies, which a blocked call survives only through
  its timeout re-check).
* :class:`ChaosProxy` — a socket-level TCP proxy between a
  ``TcpClientTransport`` and the real server that can cut the
  server→client byte stream mid-frame, dribble it out in tiny partial
  writes, delay it, or black-hole it entirely while keeping the
  connection open.

Both are test-only: they live under ``tests/`` and wrap the production
classes rather than forking them.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.d4py.redisim import RedisSim

__all__ = ["FaultyRedisSim", "ChaosProxy"]


class _DroppyCondition(threading.Condition):
    """A Condition that can swallow a budgeted number of notify_all calls."""

    def __init__(self) -> None:
        super().__init__()
        self.drop_budget = 0
        self.dropped = 0

    def notify_all(self) -> None:
        if self.drop_budget > 0:
            self.drop_budget -= 1
            self.dropped += 1
            return
        super().notify_all()


class FaultyRedisSim(RedisSim):
    """RedisSim with injectable latency and droppable wake-ups."""

    def __init__(self, op_delay: float = 0.0) -> None:
        super().__init__()
        self._lock = _DroppyCondition()
        self.op_delay = op_delay

    # -- fault controls -------------------------------------------------------

    def drop_next_notifies(self, n: int) -> None:
        """Swallow the next ``n`` broker wake-ups (lost-notify injection)."""
        with self._lock:
            self._lock.drop_budget += n

    @property
    def dropped_notifies(self) -> int:
        """How many wake-ups the fault injection swallowed so far."""
        return self._lock.dropped

    def _delay(self) -> None:
        if self.op_delay:
            time.sleep(self.op_delay)

    # -- delayed operations (simulated broker round-trip latency) -------------

    def rpush(self, key, *values):
        self._delay()
        return super().rpush(key, *values)

    def blpop(self, key, timeout=None):
        self._delay()
        return super().blpop(key, timeout)

    def incr(self, key, amount=1):
        self._delay()
        return super().incr(key, amount)


class ChaosProxy:
    """A localhost TCP proxy that mangles the server→client byte stream.

    Parameters
    ----------
    target:
        ``(host, port)`` of the real server.
    cut_after:
        Forward only this many server→client bytes per connection, then
        close both sides — lands mid-frame for any small limit.
    chunk:
        Forward server→client data in chunks of this many bytes
        (exercises partial-write reassembly on the client).
    delay:
        Sleep this long between forwarded chunks.
    blackhole:
        Silently drop all server→client bytes while keeping the
        connection open — the "server process is alive but wedged /
        network is eating packets" failure.

    Client→server bytes always flow untouched, so requests reach the
    server; only the response path is chaotic.
    """

    def __init__(
        self,
        target: tuple[str, int],
        cut_after: int | None = None,
        chunk: int | None = None,
        delay: float = 0.0,
        blackhole: bool = False,
    ) -> None:
        self.target = target
        self.cut_after = cut_after
        self.chunk = chunk
        self.delay = delay
        self.blackhole = blackhole
        self.connections = 0
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The proxy's (host, port) — point the client transport here."""
        return self._listener.getsockname()

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=1.0)

    # -- internals ------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client_sock, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            try:
                server_sock = socket.create_connection(self.target, timeout=5.0)
            except OSError:
                client_sock.close()
                continue
            for src, dst, chaotic in (
                (client_sock, server_sock, False),
                (server_sock, client_sock, True),
            ):
                thread = threading.Thread(
                    target=self._pump,
                    args=(src, dst, chaotic),
                    name="chaos-proxy-pump",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _pump(self, src: socket.socket, dst: socket.socket, chaotic: bool) -> None:
        forwarded = 0
        try:
            while not self._stop.is_set():
                try:
                    data = src.recv(4096)
                except OSError:
                    break
                if not data:
                    break
                if not chaotic:
                    dst.sendall(data)
                    continue
                if self.blackhole:
                    continue  # connection stays up; bytes vanish
                if self.cut_after is not None:
                    remaining = self.cut_after - forwarded
                    if remaining <= 0:
                        break
                    data = data[:remaining]
                step = self.chunk or len(data)
                for i in range(0, len(data), step):
                    if self.delay:
                        time.sleep(self.delay)
                    dst.sendall(data[i : i + step])
                forwarded += len(data)
                if self.cut_after is not None and forwarded >= self.cut_after:
                    break
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
