"""An in-memory, Redis-like broker for the dynamic mapping.

dispel4py's dynamic workload allocation (Liang et al., 2022) uses a Redis
server as a work queue decoupling producers from an elastic pool of
workers.  A real Redis server is not available offline, so this module
provides :class:`RedisSim`: a thread-safe, in-process store exposing the
subset of the Redis command surface the dynamic mapping's pool calls — a
list (``rpush``/``blpop``/``llen``) and counters (``incr``/``decr``/``get``
plus ``wait_for_zero``).

Each dynamic run owns one broker for its lifetime, so keys need no
namespace and nothing is left to clean up when the run ends.  The
substitution preserves the behaviour that matters for the paper's claims:
a FIFO of tasks that any worker can claim, with blocking consumption and
atomic counters for in-flight accounting.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from typing import Any


class RedisSim:
    """Thread-safe in-memory list/counter store with a blocking head pop.

    Every wake-up goes through the one ``_lock`` condition: each mutation
    notifies it and each blocked call re-checks its predicate when woken
    or at its timeout.
    """

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._lists: dict[str, deque] = defaultdict(deque)
        self._kv: dict[str, int] = {}

    # -- the task list -------------------------------------------------------

    def rpush(self, key: str, *values: Any) -> int:
        """Append values; returns the new list length."""
        with self._lock:
            lst = self._lists[key]
            lst.extend(values)
            self._lock.notify_all()
            return len(lst)

    def blpop(self, key: str, timeout: float | None = None) -> Any | None:
        """Blocking head pop: wait up to ``timeout`` seconds for an item
        (``None`` on timeout).

        Paired with :meth:`rpush` this gives true FIFO consumption, so the
        oldest queued task is always the next one claimed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                lst = self._lists.get(key)
                if lst:
                    return lst.popleft()
                if deadline is None:
                    self._lock.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._lock.wait(remaining)

    def llen(self, key: str) -> int:
        """Current length of list ``key`` (0 when absent)."""
        with self._lock:
            return len(self._lists.get(key, ()))

    # -- counters ------------------------------------------------------------

    def incr(self, key: str, amount: int = 1) -> int:
        """Atomically add ``amount``; returns the new value."""
        with self._lock:
            value = self._kv.get(key, 0) + amount
            self._kv[key] = value
            self._lock.notify_all()
            return value

    def decr(self, key: str, amount: int = 1) -> int:
        """Atomically subtract ``amount``; returns the new value."""
        return self.incr(key, -amount)

    def get(self, key: str) -> int | None:
        """Read a counter (``None`` when absent)."""
        with self._lock:
            return self._kv.get(key)

    def wait_for_zero(self, key: str, timeout: float | None = None) -> bool:
        """Block until counter ``key`` reaches zero (or below).

        Returns False on timeout.  Used by the dynamic mapping to wait for
        the in-flight task counter to drain.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._kv.get(key, 0) > 0:
                if deadline is None:
                    self._lock.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._lock.wait(remaining)
            return True
