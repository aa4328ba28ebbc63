"""Data-access layer: repositories over the registry database.

Each repository owns the SQL for one entity (PEs and workflows: one
:class:`RegistryRepository` per row of the kind table) and returns model
records, keeping the service layer free of SQL — the layering the paper
describes ("controllers, services, models, and data access").
"""

from __future__ import annotations

import json

from repro.laminar.registry.database import RegistryDatabase
from repro.laminar.server.models import (
    KINDS,
    ApiKeyRecord,
    ExecutionRecord,
    JobRecord,
    PERecord,
    RegistryKind,
    RegistryRecord,
    ResponseRecord,
    UserRecord,
    WorkflowRecord,
)

__all__ = [
    "UserRepository",
    "ApiKeyRepository",
    "RegistryRepository",
    "PERepository",
    "WorkflowRepository",
    "ExecutionRepository",
    "ResponseRepository",
    "JobRepository",
]


class UserRepository:
    """SQL access for User rows."""
    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def create(self, user_name: str, password_hash: str) -> UserRecord:
        """Insert one row; returns the stored record."""
        cursor = self.db.execute(
            "INSERT INTO User (userName, passwordHash) VALUES (?, ?)",
            (user_name, password_hash),
        )
        return self.get(cursor.lastrowid)

    def get_or_create(self, user_name: str, password_hash: str) -> UserRecord:
        """The row named ``user_name``, inserted first if absent (safe
        against a concurrent insert of the same name)."""
        self.db.execute(
            "INSERT OR IGNORE INTO User (userName, passwordHash) VALUES (?, ?)",
            (user_name, password_hash),
        )
        return self.by_name(user_name)

    def get(self, user_id: int) -> UserRecord | None:
        """Fetch by primary key, or ``None``."""
        row = self.db.query_one("SELECT * FROM User WHERE userId = ?", (user_id,))
        return UserRecord(**row) if row else None

    def by_name(self, user_name: str) -> UserRecord | None:
        """Fetch the newest record with this name, or ``None``."""
        row = self.db.query_one(
            "SELECT * FROM User WHERE userName = ?", (user_name,)
        )
        return UserRecord(**row) if row else None


class ApiKeyRepository:
    """SQL access for ApiKey rows (long-lived credentials, digest-only)."""

    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def create(self, user_id: int, key_digest: str, name: str = "") -> ApiKeyRecord:
        """Insert one row; returns the stored record."""
        cursor = self.db.execute(
            "INSERT INTO ApiKey (userId, keyDigest, name) VALUES (?, ?, ?)",
            (user_id, key_digest, name),
        )
        return self.get(cursor.lastrowid)

    def get(self, key_id: int) -> ApiKeyRecord | None:
        """Fetch by primary key, or ``None``."""
        row = self.db.query_one("SELECT * FROM ApiKey WHERE keyId = ?", (key_id,))
        return ApiKeyRecord(**row) if row else None

    def by_digest(self, key_digest: str) -> ApiKeyRecord | None:
        """Fetch by key digest (the resolve path), or ``None``."""
        row = self.db.query_one(
            "SELECT * FROM ApiKey WHERE keyDigest = ?", (key_digest,)
        )
        return ApiKeyRecord(**row) if row else None

    def for_user(self, user_id: int) -> list[ApiKeyRecord]:
        """One user's keys, id-ordered."""
        rows = self.db.query(
            "SELECT * FROM ApiKey WHERE userId = ? ORDER BY keyId", (user_id,)
        )
        return [ApiKeyRecord(**row) for row in rows]

    def delete(self, key_id: int) -> bool:
        """Revoke (delete) by id; returns whether the row existed."""
        return self.db.execute("DELETE FROM ApiKey WHERE keyId = ?", (key_id,)).rowcount > 0


class RegistryRepository:
    """SQL access for one registry kind's rows: :attr:`kind` (a row of
    :data:`~repro.laminar.server.models.KINDS`) names the table and
    columns.  ``user_id`` scopes a call to one tenant's rows."""

    kind: RegistryKind

    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def _where(self, user_id: int | None, where: str = "", params: tuple = ()):
        """``(" WHERE ...", params)`` over ``where`` and, when scoped, the owner."""
        clauses = [where] if where else []
        if user_id is not None:
            clauses.append("userId = ?")
            params += (user_id,)
        return (f" WHERE {' AND '.join(clauses)}" if clauses else ""), params

    def _select(
        self, user_id: int | None, where: str = "", params: tuple = (), order: str = ""
    ) -> list[RegistryRecord]:
        """Matching rows, id-ordered (``order=" DESC LIMIT 1"``: the newest)."""
        kind = self.kind
        clause, params = self._where(user_id, where, params)
        rows = self.db.query(
            f"SELECT * FROM {kind.table}{clause} ORDER BY {kind.id_col}{order}", params
        )
        return [kind.record(**row) for row in rows]

    def create(
        self, user_id: int, name: str, code: str, description: str = "",
        desc_embedding: str = "", spt_embedding: str = "", **extra: str,
    ) -> RegistryRecord:
        """Insert one row (``extra``: the kind's own columns, e.g.
        ``entryPoint``); returns the stored record."""
        kind = self.kind
        columns = {
            "userId": user_id,
            kind.name_col: name,
            kind.code_col: code,
            **extra,
            "description": description,
            "descEmbedding": desc_embedding,
            "sptEmbedding": spt_embedding,
        }
        cursor = self.db.execute(
            f"INSERT INTO {kind.table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            tuple(columns.values()),
        )
        return self.get(cursor.lastrowid)

    def get(self, record_id: int) -> RegistryRecord | None:
        """Fetch by primary key, or ``None``."""
        rows = self._select(None, f"{self.kind.id_col} = ?", (record_id,))
        return rows[0] if rows else None

    def by_name(self, name: str, user_id: int | None = None) -> RegistryRecord | None:
        """The newest row with this name — the newest of ``user_id``'s
        rows when scoped — or ``None``."""
        rows = self._select(user_id, f"{self.kind.name_col} = ?", (name,), " DESC LIMIT 1")
        return rows[0] if rows else None

    def all(self, user_id: int | None = None) -> list[RegistryRecord]:
        """Every row, id-ordered; one tenant's when ``user_id`` is given."""
        return self._select(user_id)

    def count(self, user_id: int | None = None) -> int:
        """Row count, optionally for one tenant (the quota check)."""
        clause, params = self._where(user_id)
        row = self.db.query_one(f"SELECT COUNT(*) AS n FROM {self.kind.table}{clause}", params)
        return row["n"]

    def update_description(
        self, record_id: int, description: str, desc_embedding: str
    ) -> bool:
        """Rewrite description + its embedding; returns whether the row exists."""
        cursor = self.db.execute(
            f"UPDATE {self.kind.table} SET description = ?, descEmbedding = ? "
            f"WHERE {self.kind.id_col} = ?",
            (description, desc_embedding, record_id),
        )
        return cursor.rowcount > 0

    def delete(self, record_id: int) -> bool:
        """Delete by id; returns whether the row existed."""
        cursor = self.db.execute(
            f"DELETE FROM {self.kind.table} WHERE {self.kind.id_col} = ?", (record_id,)
        )
        return cursor.rowcount > 0

    def delete_all(self, user_id: int | None = None) -> int:
        """Delete every row (one tenant's when scoped); returns the count."""
        clause, params = self._where(user_id)
        return self.db.execute(f"DELETE FROM {self.kind.table}{clause}", params).rowcount

    def literal_search(
        self, term: str, user_id: int | None = None
    ) -> list[RegistryRecord]:
        """Case-insensitive substring match over names and descriptions
        (§V-A), under Unicode case folding; no character is a wildcard."""
        needle = term.casefold()
        return self._select(
            user_id,
            f"(instr(casefold({self.kind.name_col}), ?) > 0 "
            "OR instr(casefold(description), ?) > 0)",
            (needle, needle),
        )


class PERepository(RegistryRepository):
    """SQL access for ProcessingElement rows."""

    kind = KINDS["pe"]


class WorkflowRepository(RegistryRepository):
    """SQL access for Workflow rows and their PE links."""

    kind = KINDS["workflow"]

    # -- workflow <-> PE association ------------------------------------------

    def link_pe(self, wf_id: int, pe_id: int) -> None:
        """Associate a PE with a workflow (idempotent)."""
        self.db.execute(
            "INSERT OR IGNORE INTO WorkflowPE (workflowId, peId) VALUES (?, ?)",
            (wf_id, pe_id),
        )

    def pes_of(self, wf_id: int) -> list[PERecord]:
        """PEs linked to one workflow, id-ordered."""
        rows = self.db.query(
            "SELECT pe.* FROM ProcessingElement pe "
            "JOIN WorkflowPE link ON link.peId = pe.peId "
            "WHERE link.workflowId = ? ORDER BY pe.peId",
            (wf_id,),
        )
        return [PERecord(**row) for row in rows]

    def workflows_of_pe(self, pe_id: int) -> list[WorkflowRecord]:
        """Workflows containing one PE, id-ordered."""
        return self._select(
            None, "workflowId IN (SELECT workflowId FROM WorkflowPE WHERE peId = ?)", (pe_id,)
        )


class ExecutionRepository:
    """SQL access for Execution rows."""
    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def create(
        self, workflow_id: int, user_id: int, mapping: str, input_spec: str
    ) -> ExecutionRecord:
        """Insert one row; returns the stored record."""
        cursor = self.db.execute(
            "INSERT INTO Execution (workflowId, userId, mapping, inputSpec, "
            "status, startedAt) VALUES (?, ?, ?, ?, 'running', datetime('now'))",
            (workflow_id, user_id, mapping, input_spec),
        )
        return self.get(cursor.lastrowid)

    def get(self, exec_id: int) -> ExecutionRecord | None:
        """Fetch by primary key, or ``None``."""
        row = self.db.query_one(
            "SELECT * FROM Execution WHERE executionId = ?", (exec_id,)
        )
        return ExecutionRecord(**row) if row else None

    def finish(self, exec_id: int, status: str) -> None:
        """Mark an execution finished with the given status."""
        self.db.execute(
            "UPDATE Execution SET status = ?, finishedAt = datetime('now') "
            "WHERE executionId = ?",
            (status, exec_id),
        )

    def for_workflow(self, workflow_id: int) -> list[ExecutionRecord]:
        """Execution history of one workflow."""
        rows = self.db.query(
            "SELECT * FROM Execution WHERE workflowId = ? ORDER BY executionId",
            (workflow_id,),
        )
        return [ExecutionRecord(**row) for row in rows]


class JobRepository:
    """SQL access for Job rows (asynchronous workflow runs).

    The live :class:`~repro.laminar.jobs.model.Job` objects are the
    runtime truth; this repository mirrors their lifecycle into the
    registry so job history survives in the relational schema alongside
    ``Execution`` rows.
    """

    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def create(self, spec) -> JobRecord:
        """Insert one QUEUED row from a ``JobSpec``; returns the record.

        Runs inside one transaction so the insert and read-back cannot
        interleave with concurrent worker updates.
        """
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "INSERT INTO Job (workflowId, userId, workflowName, mapping, "
                "inputSpec, priority, timeoutSeconds, maxRetries) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec.workflow_id,
                    spec.user_id,
                    spec.workflow_name,
                    spec.mapping,
                    json.dumps(spec.input, default=str),
                    spec.priority,
                    spec.timeout,
                    spec.max_retries,
                ),
            )
            row = conn.execute(
                "SELECT * FROM Job WHERE jobId = ?", (cursor.lastrowid,)
            ).fetchone()
        return JobRecord(**dict(row))

    def get(self, job_id: int) -> JobRecord | None:
        """Fetch by primary key, or ``None``."""
        row = self.db.query_one("SELECT * FROM Job WHERE jobId = ?", (job_id,))
        return JobRecord(**row) if row else None

    def update(self, job) -> None:
        """Mirror a live ``Job``'s current lifecycle into its row."""
        self.db.execute(
            "UPDATE Job SET state = ?, attempts = ?, error = ?, result = ?, "
            "logLines = ?, queueSeconds = ?, runSeconds = ?, "
            "startedAt = CASE WHEN ? IS NULL THEN startedAt "
            "ELSE datetime(?, 'unixepoch') END, "
            "finishedAt = CASE WHEN ? IS NULL THEN finishedAt "
            "ELSE datetime(?, 'unixepoch') END "
            "WHERE jobId = ?",
            (
                job.state.value,
                job.attempts,
                job.error,
                json.dumps(job.result) if job.result is not None else None,
                "\n".join(job.log_snapshot()),
                round(job.queue_seconds, 6),
                round(job.run_seconds, 6),
                job.started_at,
                job.started_at,
                job.finished_at,
                job.finished_at,
                job.job_id,
            ),
        )

    def delete(self, job_id: int) -> bool:
        """Delete by id (rejected admissions); returns whether it existed."""
        return self.db.execute("DELETE FROM Job WHERE jobId = ?", (job_id,)).rowcount > 0

    def list(self, state: str | None = None, limit: int = 50) -> list[JobRecord]:
        """Newest-first rows, optionally filtered by lifecycle state."""
        if state is not None:
            rows = self.db.query(
                "SELECT * FROM Job WHERE state = ? ORDER BY jobId DESC LIMIT ?",
                (state, limit),
            )
        else:
            rows = self.db.query(
                "SELECT * FROM Job ORDER BY jobId DESC LIMIT ?", (limit,)
            )
        return [JobRecord(**row) for row in rows]

    def counts_by_state(self) -> dict[str, int]:
        """``{state: row count}`` over the whole table."""
        rows = self.db.query("SELECT state, COUNT(*) AS n FROM Job GROUP BY state")
        return {row["state"]: row["n"] for row in rows}


class ResponseRepository:
    """SQL access for Response rows."""
    def __init__(self, db: RegistryDatabase) -> None:
        self.db = db

    def create(self, execution_id: int, output: str, log_lines: str) -> ResponseRecord:
        """Insert one row; returns the stored record."""
        cursor = self.db.execute(
            "INSERT INTO Response (executionId, output, logLines) VALUES (?, ?, ?)",
            (execution_id, output, log_lines),
        )
        row = self.db.query_one(
            "SELECT * FROM Response WHERE responseId = ?", (cursor.lastrowid,)
        )
        return ResponseRecord(**row)

    def for_execution(self, execution_id: int) -> list[ResponseRecord]:
        """Responses captured for one execution."""
        rows = self.db.query(
            "SELECT * FROM Response WHERE executionId = ? ORDER BY responseId",
            (execution_id,),
        )
        return [ResponseRecord(**row) for row in rows]
