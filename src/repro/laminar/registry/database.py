"""SQLite connection wrapper for the registry.

A thin, thread-safe layer over ``sqlite3``: the server's handler threads
(TCP transport) share one connection guarded by a lock, with foreign
keys enforced and rows returned as dicts.  In-memory by default (the
serverless deployment unit owns its registry); pass a path to persist.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.laminar.registry.schema import SCHEMA_STATEMENTS

__all__ = ["RegistryDatabase"]


def _casefold(text: str | None) -> str | None:
    return None if text is None else text.casefold()


class RegistryDatabase:
    """Owns the sqlite connection and applies the Fig 6 schema."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        # SQL ``casefold(text)``: Unicode case folding for literal search
        # (SQLite's own LIKE/lower fold ASCII only).
        self._conn.create_function("casefold", 1, _casefold, deterministic=True)
        self._lock = threading.RLock()
        with self._lock:
            self._conn.execute("PRAGMA foreign_keys = ON")
            for statement in SCHEMA_STATEMENTS:
                self._conn.execute(statement)
            self._conn.commit()

    # -- primitives --------------------------------------------------------

    def execute(self, sql: str, params: Iterable[Any] = ()) -> sqlite3.Cursor:
        """Run one write statement; returns its cursor (``lastrowid``, ``rowcount``)."""
        with self._lock:
            cursor = self._conn.execute(sql, tuple(params))
            self._conn.commit()
            return cursor

    def executemany(self, sql: str, rows: Iterable[Iterable[Any]]) -> None:
        """Run one write statement for many parameter rows."""
        with self._lock:
            self._conn.executemany(sql, [tuple(r) for r in rows])
            self._conn.commit()

    def query(self, sql: str, params: Iterable[Any] = ()) -> list[dict]:
        """Run one read statement; returns rows as plain dicts."""
        with self._lock:
            cursor = self._conn.execute(sql, tuple(params))
            return [dict(row) for row in cursor.fetchall()]

    def query_one(self, sql: str, params: Iterable[Any] = ()) -> dict | None:
        """First row of a query, or ``None``."""
        rows = self.query(sql, params)
        return rows[0] if rows else None

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Group several statements into one atomic commit.

        Yields the raw connection under the database lock; statements run
        through it are committed together on exit (rolled back on
        exception).  Used by writers that must not interleave with other
        threads — e.g. the job store's insert-then-read-back.
        """
        with self._lock:
            try:
                yield self._conn
                self._conn.commit()
            except Exception:
                self._conn.rollback()
                raise

    # -- introspection -------------------------------------------------------

    def table_names(self) -> set[str]:
        """User tables currently in the database."""
        rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%'"
        )
        return {row["name"] for row in rows}

    def index_names(self) -> set[str]:
        """User indexes currently in the database."""
        rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name NOT LIKE 'sqlite_%'"
        )
        return {row["name"] for row in rows}

    def columns(self, table: str) -> list[str]:
        """Column names of ``table`` in declaration order."""
        return [row["name"] for row in self.query(f"PRAGMA table_info({table})")]

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()
