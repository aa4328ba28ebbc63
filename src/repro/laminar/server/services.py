"""Service layer: authentication, registry operations and execution.

This is where the paper's feature set lives:

* :class:`AuthService` — user registration/login with salted password
  hashes and opaque session tokens.
* :class:`RegistryService` — PE/workflow registration with automatic
  description generation (CodeT5 substitute, full-class context, §IV-C),
  description embeddings (UniXcoder substitute, §V-B) and SPT embeddings
  (Aroma features, §VI) computed once and stored in the registry; plus
  literal search, semantic search and code recommendation.
* :class:`ExecutionService` — workflow runs through the execution
  engine with Execution/Response bookkeeping and the §IV-F resource
  handshake.
* :class:`JobService` — asynchronous workflow runs: submission into the
  bounded job queue (429 on backpressure), polling, cancellation.
"""

from __future__ import annotations

import ast
import hashlib
import hmac
import json
import secrets
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

from repro.aroma.features import extract_features
from repro.aroma.spt import ParseFailure, python_to_spt
from repro.d4py.mappings import MAPPINGS, check_options
from repro.laminar.execution.engine import ExecutionEngine
from repro.laminar.jobs import (
    InvalidTransition,
    JobManager,
    JobSpec,
    JobState,
    QueueFull,
    UnknownJob,
)
from repro.laminar.execution.resources import ResourceManifestEntry
from repro.laminar.server.dataaccess import (
    ExecutionRepository,
    RegistryRepository,
    ResponseRepository,
    UserRepository,
)
from repro.laminar.server.indexes import RegistryIndexes
from repro.laminar.server.models import (
    KINDS,
    PERecord,
    RegistryKind,
    RegistryRecord,
    UserRecord,
    WorkflowRecord,
)
from repro.laminar.transport.inprocess import ServerStream
from repro.models.describer import CodeT5Describer, DescriptionContext
from repro.models.embedder import UniXcoderEmbedder
from repro.models.reacc import ReACCRetriever
from repro.search.code import CodeSearch
from repro.search.index import IndexPersistenceError

__all__ = [
    "AuthService",
    "RegistryService",
    "ExecutionService",
    "JobService",
    "ServiceError",
]

#: Base classes that mark a class definition as a Processing Element.
_PE_BASES = {"GenericPE", "IterativePE", "ProducerPE", "ConsumerPE", "CompositePE"}

#: Laminar's defaults for code recommendation (§VI-A).
DEFAULT_TOP_K = 5
DEFAULT_SPT_THRESHOLD = 6.0

#: Longest literal-search term, in characters: every name and description
#: in scope is scanned for it, so the cap bounds the cost of one query.
MAX_LITERAL_TERM = 10_000

#: Cap on the encoded bytes of one ``run`` DATA payload (the JSON list of
#: lines as :meth:`Frame.encode` writes it, escapes included).  A line
#: longer than the cap travels alone.
DATA_FRAME_BYTES = 64 * 1024


class ServiceError(Exception):
    """A client-visible failure with an HTTP-ish status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _kind_of(kind: str) -> RegistryKind:
    """The kind table's row for a request's ``kind`` (400 when unknown)."""
    if kind not in KINDS:
        raise ServiceError(400, f"kind must be 'pe' or 'workflow', got {kind!r}")
    return KINDS[kind]


def _check_ranked(kind: str, top_k: int) -> None:
    """400 unless a ranked query asks for a known kind and at least one row."""
    _kind_of(kind)
    if top_k < 1:
        raise ServiceError(400, f"topK must be at least 1, got {top_k}")


#: Credential prefix that routes ``resolve`` to the API-key table
#: instead of the in-memory session map.
API_KEY_PREFIX = "lmk_"

#: Default sliding session lifetime (seconds).
DEFAULT_TOKEN_TTL = 24 * 3600.0


class AuthService:
    """Registration, login, logout and credential resolution.

    Two credential kinds share the ``token`` request field:

    * **session tokens** — minted by :meth:`login`, in-memory, with a
      *sliding* TTL (each successful resolve extends the expiry);
    * **API keys** — minted by :meth:`create_api_key`, ``lmk_``-prefixed,
      stored as SHA-256 digests in the registry database, long-lived
      until revoked, and valid across server restarts.

    With ``require_auth`` set, tokenless requests are rejected with 401
    instead of falling back to the shared guest account.
    """

    def __init__(
        self,
        users: UserRepository,
        api_keys=None,
        require_auth: bool = False,
        token_ttl: float = DEFAULT_TOKEN_TTL,
    ) -> None:
        self.users = users
        self.api_keys = api_keys
        self.require_auth = require_auth
        self.token_ttl = float(token_ttl)
        #: token → (user_id, expires_at epoch seconds).
        self._tokens: dict[str, tuple[int, float]] = {}
        # The guest row exists before the first request: created lazily,
        # concurrent first requests raced each other into its UNIQUE name.
        self._guest: UserRecord | None = (
            None
            if require_auth
            else users.get_or_create("guest", self._hash("", secrets.token_hex(8)))
        )

    @staticmethod
    def _hash(password: str, salt: str) -> str:
        return salt + ":" + hashlib.sha256((salt + password).encode()).hexdigest()

    @staticmethod
    def _verify(password: str, stored: str) -> bool:
        salt, _, _digest = stored.partition(":")
        # Constant-time comparison: with `==`, response timing leaks how
        # many digest characters matched — exactly the co-residency
        # side channel the Shadow-Hunting threat model exploits.
        return hmac.compare_digest(AuthService._hash(password, salt), stored)

    def register(self, user_name: str, password: str) -> dict:
        """Create an account; 409 when the name is taken."""
        if not user_name:
            raise ServiceError(400, "userName is required")
        if self.users.by_name(user_name) is not None:
            raise ServiceError(409, f"user {user_name!r} already exists")
        user = self.users.create(user_name, self._hash(password, secrets.token_hex(8)))
        return user.to_public()

    def login(self, user_name: str, password: str) -> dict:
        """Verify credentials; returns a session token (sliding TTL)."""
        user = self.users.by_name(user_name)
        if user is None or not self._verify(password, user.passwordHash):
            raise ServiceError(401, "invalid credentials")
        token = secrets.token_hex(16)
        self._tokens[token] = (user.userId, time.time() + self.token_ttl)
        return {"token": token, "expiresIn": self.token_ttl, **user.to_public()}

    def logout(self, token: str | None) -> dict:
        """Revoke a session token (idempotent)."""
        revoked = bool(token) and self._tokens.pop(token, None) is not None
        return {"loggedOut": revoked}

    def _evict_expired(self, now: float) -> None:
        expired = [t for t, (_, exp) in self._tokens.items() if exp <= now]
        for token in expired:
            del self._tokens[token]

    # -- API keys ------------------------------------------------------------

    @staticmethod
    def _key_digest(key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest()

    def create_api_key(self, user: UserRecord, name: str = "") -> dict:
        """Mint a long-lived API key for ``user``.

        The plaintext key is returned exactly once; only its SHA-256
        digest is stored, so a leaked database does not leak keys.
        """
        if self.api_keys is None:
            raise ServiceError(501, "API keys are not enabled on this server")
        key = API_KEY_PREFIX + secrets.token_hex(20)
        record = self.api_keys.create(user.userId, self._key_digest(key), name)
        return {"apiKey": key, "keyId": record.keyId, "name": record.name}

    def revoke_api_key(self, user: UserRecord, key_id: int) -> dict:
        """Revoke one of the caller's own API keys (404 otherwise)."""
        if self.api_keys is None:
            raise ServiceError(501, "API keys are not enabled on this server")
        record = self.api_keys.get(key_id)
        if record is None or record.userId != user.userId:
            raise ServiceError(404, f"no API key {key_id!r}")
        self.api_keys.delete(record.keyId)
        return {"revoked": record.keyId}

    def _resolve_api_key(self, key: str) -> UserRecord:
        if self.api_keys is None:
            raise ServiceError(401, "invalid or expired token")
        record = self.api_keys.by_digest(self._key_digest(key))
        if record is None:
            raise ServiceError(401, "invalid or expired token")
        user = self.users.get(record.userId)
        if user is None:  # pragma: no cover - key for a deleted user
            raise ServiceError(401, "user no longer exists")
        return user

    # -- resolution ----------------------------------------------------------

    def resolve(self, token: str | None) -> UserRecord:
        """Map a credential to its user; tokenless requests act as guest.

        The guest account keeps single-user workflows friction-free (the
        paper's CLI examples never log in) while the schema still records
        ownership — unless the server runs with ``require_auth``, in
        which case anonymous requests answer 401.
        """
        now = time.time()
        self._evict_expired(now)
        if token:
            if token.startswith(API_KEY_PREFIX):
                return self._resolve_api_key(token)
            entry = self._tokens.get(token)
            if entry is None:
                raise ServiceError(401, "invalid or expired token")
            user_id, _expires = entry
            # Sliding TTL: activity keeps the session alive.
            self._tokens[token] = (user_id, now + self.token_ttl)
            user = self.users.get(user_id)
            if user is None:  # pragma: no cover - token for a deleted user
                raise ServiceError(401, "user no longer exists")
            return user
        if self._guest is None:
            raise ServiceError(
                401, "authentication required: log in or present an API key"
            )
        return self._guest


class RegistryService:
    """PE/workflow registration, metadata generation and search.

    Search runs on the live indexes of
    :class:`~repro.laminar.server.indexes.RegistryIndexes` (one per
    kind): register/update/remove apply O(1) deltas to the semantic and
    structural indexes, a tenant's query ranks only that tenant's rows,
    and ``index_dir`` enables warm starts from a persisted semantic index.
    """

    def __init__(
        self,
        pes: RegistryRepository,
        workflows: RegistryRepository,
        describer: CodeT5Describer | None = None,
        embedder: UniXcoderEmbedder | None = None,
        reacc: ReACCRetriever | None = None,
        index_dir: str | Path | None = None,
        shard_id: str | None = None,
        quotas=None,
    ) -> None:
        self.pes = pes
        self.workflows = workflows
        #: Optional :class:`~repro.laminar.tenancy.QuotaConfig`; bounds
        #: each tenant's registry rows (PEs + workflows) at registration.
        self.quotas = quotas
        self.describer = describer or CodeT5Describer()
        self.embedder = embedder or UniXcoderEmbedder()
        self.reacc = reacc or ReACCRetriever()
        self.indexes = RegistryIndexes(
            self.repos, self.embedder, self.reacc, index_dir=index_dir, shard_id=shard_id
        )

    @property
    def repos(self) -> dict[str, RegistryRepository]:
        """Each kind's repository, by kind key."""
        return {repo.kind.key: repo for repo in (self.pes, self.workflows)}

    def bind_metrics(self, registry) -> None:
        """Register search/index metrics on a ``repro.obs`` registry."""
        self.indexes.bind_metrics(registry)

    def invalidate_indexes(self) -> None:
        """Rebuild the search indexes on next use: the registry was written
        without deltas (e.g. a registry import)."""
        self.indexes.invalidate()

    def index_stats(self) -> dict:
        """Occupancy, rebuild and persistence stats of the search indexes."""
        return self.indexes.stats()

    def index_save(self) -> dict:
        """Persist both semantic indexes under ``index_dir`` for warm
        starts; returns manifests."""
        if self.indexes.index_dir is None:
            raise ServiceError(400, "no index_dir configured on this server")
        try:
            return self.indexes.save()
        except (IndexPersistenceError, OSError, AttributeError) as exc:
            raise ServiceError(500, f"cannot save index: {exc}") from exc

    # -- metadata helpers ---------------------------------------------------

    def _desc_embedding(self, description: str) -> str:
        return json.dumps(self.embedder.encode(description)[0].round(8).tolist())

    def _spt_embedding(self, code: str) -> str:
        try:
            return json.dumps(dict(extract_features(python_to_spt(code))))
        except ParseFailure:
            return json.dumps({})

    # -- PE registration ------------------------------------------------------

    @staticmethod
    def extract_pe_classes(code: str) -> list[tuple[str, str]]:
        """Find PE class definitions: ``[(class_name, class_source), ...]``.

        A class is a PE when any base name (directly or dotted) is one of
        the dispel4py PE base classes.  This is the client-side "extracts
        the full class definition" step of §VI, performed server-side too
        for defence in depth.
        """
        try:
            from repro import pyast

            tree = pyast.parse(code)
        except SyntaxError as exc:
            raise ServiceError(400, f"code does not parse: {exc}") from exc
        found = []
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = set()
            for base in node.bases:
                if isinstance(base, ast.Name):
                    base_names.add(base.id)
                elif isinstance(base, ast.Attribute):
                    base_names.add(base.attr)
            if base_names & _PE_BASES:
                segment = ast.get_source_segment(code, node)
                if segment:
                    found.append((node.name, segment))
        return found

    def _check_registry_quota(self, user: UserRecord, adding: int = 1) -> None:
        """429 when registering ``adding`` rows would exceed the tenant's
        registry-row quota (PEs + workflows combined)."""
        if self.quotas is None or user is None:
            return
        cap = self.quotas.for_tenant(user.userName).max_registry_rows
        if cap is None:
            return
        held = sum(repo.count(user.userId) for repo in self.repos.values())
        if held + adding > cap:
            raise ServiceError(
                429,
                f"tenant {user.userName!r} is at its registry quota "
                f"({held}/{cap} rows); remove entries before registering more",
            )

    def _create(
        self, repo: RegistryRepository, user: UserRecord, name: str, code: str,
        description: str, **extra: str,
    ) -> RegistryRecord:
        """Store one row with its description and SPT embeddings."""
        return repo.create(
            user.userId, name, code, description,
            self._desc_embedding(description), self._spt_embedding(code), **extra,
        )

    def _create_pe(
        self, user: UserRecord, name: str, source: str, description: str | None = None
    ) -> PERecord:
        """Store one PE, described from its full class (§IV-C) by default."""
        description = description or self.describer.describe(
            source, DescriptionContext.FULL_CLASS
        )
        return self._create(self.pes, user, name, source, description)

    def register_pe(
        self, user: UserRecord, code: str, name: str | None = None,
        description: str | None = None,
    ) -> PERecord:
        """Register one PE; generates description/embeddings when absent."""
        self._check_registry_quota(user)
        classes = self.extract_pe_classes(code)
        if classes:
            class_name, class_source = classes[0]
        else:
            # Accept non-class snippets (bare functions) under a given name.
            if not name:
                raise ServiceError(
                    400, "code defines no PE class and no name was provided"
                )
            class_name, class_source = name, code
        record = self._create_pe(user, name or class_name, class_source, description)
        self.indexes["pe"].put(record)
        return record

    def register_workflow(
        self,
        user: UserRecord,
        code: str,
        name: str,
        description: str | None = None,
        entry_point: str | None = None,
    ) -> tuple[WorkflowRecord, list[PERecord]]:
        """Register a workflow and every PE it defines (paper Fig 5a)."""
        classes = self.extract_pe_classes(code)
        self._check_registry_quota(user, adding=len(classes) + 1)
        pe_records = [
            self._create_pe(user, class_name, class_source) for class_name, class_source in classes
        ]
        desc = description or self.describer.describe_workflow(
            name, [src for _, src in classes]
        )
        workflow = self._create(
            self.workflows, user, name, code, desc, entryPoint=entry_point or ""
        )
        for pe in pe_records:
            self.workflows.link_pe(workflow.workflowId, pe.peId)
            self.indexes["pe"].put(pe)
        self.indexes["workflow"].put(workflow)
        return workflow, pe_records

    # -- lookup --------------------------------------------------------------------

    @staticmethod
    def _owned(record, user: UserRecord | None) -> bool:
        """Tenant check: ``user=None`` means an unscoped (internal) caller.

        Cross-tenant access answers 404, not 403 — a 403 would confirm
        the entity exists, handing other tenants an enumeration oracle.
        """
        return user is None or record.userId == user.userId

    def get(
        self, kind: str, ident: int | str, user: UserRecord | None = None
    ) -> RegistryRecord:
        """Resolve a row of ``kind`` by numeric id or name, scoped to
        ``user``: a name means the newest of the caller's rows with it (of
        every tenant's when unscoped); 404 when absent or another
        tenant's."""
        spec, repo = _kind_of(kind), self.repos[kind]
        if str(ident).isdigit():
            record = repo.get(int(ident))
        else:
            record = repo.by_name(str(ident), None if user is None else user.userId)
        if record is None or not self._owned(record, user):
            raise ServiceError(404, f"no {spec.noun} {ident!r}")
        return record

    def registry_listing(self, user: UserRecord | None = None) -> dict:
        """The caller's PEs and workflows, without code bodies (every
        tenant's when unscoped)."""
        user_id = None if user is None else user.userId
        return {
            repo.kind.plural: [r.to_public(include_code=False) for r in repo.all(user_id)]
            for repo in self.repos.values()
        }

    # -- description updates ----------------------------------------------------------

    def update_description(
        self, kind: str, ident: int | str, description: str, user: UserRecord | None = None
    ) -> RegistryRecord:
        """Replace a row's description and re-embed it."""
        record, spec = self.get(kind, ident, user=user), KINDS[kind]
        embedding = self._desc_embedding(description)
        if not self.repos[kind].update_description(spec.ident(record), description, embedding):
            raise ServiceError(404, f"no {spec.noun} {ident!r}")  # removed meanwhile
        updated = replace(record, description=description, descEmbedding=embedding)
        self.indexes[kind].put(updated)
        return updated

    # -- search -------------------------------------------------------------------------

    def literal_search(
        self, term: str, kind: str = "all", user: UserRecord | None = None
    ) -> dict:
        """Case-insensitive substring search over names and descriptions
        (§V-A, Fig 7) — no wildcards — scoped to the caller's rows when a
        ``user`` is given; ``kind`` is ``pe``, ``workflow`` or ``all``."""
        if len(term) > MAX_LITERAL_TERM:
            raise ServiceError(400, f"search term longer than {MAX_LITERAL_TERM} characters")
        repos = self.repos
        searched = repos.values() if kind == "all" else [repos[_kind_of(kind).key]]
        started = time.monotonic()
        user_id = None if user is None else user.userId
        result = {
            repo.kind.plural: [
                r.to_public(include_code=False) for r in repo.literal_search(term, user_id)
            ]
            for repo in searched
        }
        self.indexes.record_query("literal", kind, started)
        return result

    def semantic_search(
        self,
        query: str,
        kind: str = "pe",
        top_k: int = DEFAULT_TOP_K,
        user: UserRecord | None = None,
    ) -> list[dict]:
        """Text-to-code search by embedding cosine (§V-B, Fig 8).

        Served from the kind's live index: a query embeds the text once
        and ranks only the caller's rows (every row when unscoped).
        """
        _check_ranked(kind, top_k)
        started = time.monotonic()
        owner = None if user is None else user.userId
        index = self.indexes[kind]
        hits = index.query(
            lambda semantic, _code: semantic.search(query, top_k=top_k, owner=owner)
        )
        out = []
        for record, sim in hits:
            entry = record.to_public(include_code=False)
            entry["cosine_similarity"] = float(round(sim, 6))
            out.append(entry)
        self.indexes.gauge("candidates", kind, index.rows(owner))
        self.indexes.record_query("semantic", kind, started)
        return out

    def code_recommendation(
        self,
        snippet: str,
        kind: str = "pe",
        embedding_type: str = "spt",
        top_k: int = DEFAULT_TOP_K,
        threshold: float | None = None,
        user: UserRecord | None = None,
    ) -> list[dict]:
        """Code-to-code recommendation (§VI-A, Fig 9).

        ``embedding_type='spt'`` (default) scores by SPT-feature overlap
        against the stored ``sptEmbedding`` with Laminar's threshold of
        6.0; ``'llm'`` falls back to the ReACC retriever.  Workflow
        recommendations find similar PEs first, then rank the workflows
        containing them by occurrence (only supported for 'spt').  Served
        from the PE index's structural half, over the caller's rows only.
        """
        _check_ranked(kind, top_k)
        started = time.monotonic()
        if embedding_type not in ("spt", "llm"):
            raise ServiceError(400, f"unknown embedding_type {embedding_type!r}")
        if kind == "workflow" and embedding_type == "llm":
            raise ServiceError(
                400, "workflow recommendations are only possible with 'spt'"
            )
        owner = None if user is None else user.userId
        # A workflow ranking aggregates every PE hit over the threshold.
        limit = top_k if kind == "pe" else None

        def select(_semantic, code: CodeSearch):
            if not len(code):
                return []
            if embedding_type == "spt":
                cut = DEFAULT_SPT_THRESHOLD if threshold is None else threshold
                return code.search_spt(snippet, top_k=limit, threshold=cut, owner=owner)
            cut = 0.1 if threshold is None else threshold
            return code.search_llm(snippet, top_k=limit, threshold=cut, owner=owner)

        try:
            scored = self.indexes["pe"].query(select, structural=True)
        except ParseFailure as exc:
            raise ServiceError(400, f"snippet does not parse: {exc}") from exc

        if kind == "pe":
            out = []
            for pe, score in scored:
                entry = pe.to_public()
                entry["score"] = round(float(score), 4)
                out.append(entry)
            self.indexes.record_query("code", kind, started)
            return out

        # Workflow recommendation: aggregate over workflows containing hits.
        occurrences: Counter = Counter()
        best_scores: dict[int, float] = {}
        wf_by_id: dict[int, WorkflowRecord] = {}
        for pe, score in scored:
            for wf in self.workflows.workflows_of_pe(pe.peId):
                if not self._owned(wf, user):
                    continue
                occurrences[wf.workflowId] += 1
                best_scores[wf.workflowId] = max(
                    best_scores.get(wf.workflowId, 0.0), float(score)
                )
                wf_by_id[wf.workflowId] = wf
        ranked = sorted(
            occurrences, key=lambda wid: (-best_scores[wid], -occurrences[wid])
        )
        out = []
        for wid in ranked[:top_k]:
            entry = wf_by_id[wid].to_public()
            entry["occurrences"] = occurrences[wid]
            entry["score"] = round(best_scores[wid], 4)
            out.append(entry)
        self.indexes.record_query("code", kind, started)
        return out

    def code_completion(
        self,
        snippet: str,
        embedding_type: str = "spt",
        top_k: int = 3,
        user: UserRecord | None = None,
    ) -> list[dict]:
        """Complete a partial snippet from the best-matching PEs (§I).

        Retrieval reuses :meth:`code_recommendation`; for each hit the
        *continuation* is computed by aligning the query against the
        matched PE's source — the suggestion is the code that follows the
        last line the developer has already written.  Hits whose code is
        fully contained in the query offer nothing and are skipped.
        """
        _check_ranked("pe", top_k)
        hits = self.code_recommendation(
            snippet, kind="pe", embedding_type=embedding_type,
            top_k=top_k * 2, threshold=1.0 if embedding_type == "spt" else None,
            user=user,
        )
        query_lines = [line.strip() for line in snippet.splitlines() if line.strip()]
        completions = []
        for hit in hits:
            source_lines = hit["peCode"].splitlines()
            cut = 0
            if query_lines:
                stripped = [line.strip() for line in source_lines]
                last = query_lines[-1]
                for i, line in enumerate(stripped):
                    if line and (line in last or last in line):
                        cut = i + 1
            continuation = "\n".join(source_lines[cut:]).strip("\n")
            if not continuation:
                continue
            completions.append(
                {
                    "peId": hit["peId"],
                    "peName": hit["peName"],
                    "score": hit["score"],
                    "completion": continuation,
                }
            )
            if len(completions) >= top_k:
                break
        return completions

    # -- removal -----------------------------------------------------------------------

    def remove(self, kind: str, ident: int | str, user: UserRecord | None = None) -> dict:
        """Delete a row by id or name (the caller's own when scoped)."""
        record = self.get(kind, ident, user=user)
        spec = KINDS[kind]
        self.repos[kind].delete(spec.ident(record))
        self.indexes[kind].drop(spec.ident(record))
        return {"removed": spec.name(record), spec.id_col: spec.ident(record)}

    def remove_all(self, user: UserRecord | None = None) -> dict:
        """Delete every PE and workflow (the caller's own when scoped)."""
        user_id = None if user is None else user.userId
        removed = {
            f"{repo.kind.plural}_removed": repo.delete_all(user_id=user_id)
            for repo in self.repos.values()
        }
        self.invalidate_indexes()
        return removed


def _data_frames(batch: list[str]) -> Iterator[list[str]]:
    """Split one drained batch of lines into DATA payloads of at most
    :data:`DATA_FRAME_BYTES` each (a longer line goes alone)."""
    frame: list[str] = []
    size = 0
    for line in batch:
        cost = len(json.dumps(line)) + 2  # its ", " or the list's brackets
        if frame and size + cost > DATA_FRAME_BYTES:
            yield frame
            frame, size = [], 0
        frame.append(line)
        size += cost
    if frame:
        yield frame


def admit(
    registry: RegistryService, user: UserRecord, ident, mapping: str, options: dict | None
) -> WorkflowRecord:
    """The admission step ``run`` and ``submit_job`` share: an unknown
    mapping, or a run option a client may not send with it (see
    :func:`repro.d4py.mappings.check_options`), is a 400 before any
    ``Execution`` row or queue slot exists."""
    if mapping not in MAPPINGS:
        raise ServiceError(400, f"unknown mapping {mapping!r}")
    try:
        check_options(options or {}, mapping)
    except ValueError as exc:
        raise ServiceError(400, str(exc)) from exc
    return registry.get("workflow", ident, user=user)


class ExecutionService:
    """Runs registered workflows through the execution engine."""

    def __init__(
        self,
        registry: RegistryService,
        executions: ExecutionRepository,
        responses: ResponseRepository,
        engine: ExecutionEngine | None = None,
    ) -> None:
        self.registry = registry
        self.executions = executions
        self.responses = responses
        self.engine = engine or ExecutionEngine()

    def check_resources(self, manifest: list[dict]) -> dict:
        """The §IV-F handshake: which declared resources must be uploaded."""
        try:
            entries = [ResourceManifestEntry.from_dict(m) for m in manifest]
            return {"missing": self.engine.cache.missing(entries)}
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(400, f"invalid resource manifest: {exc!r}") from exc

    def upload_resource(self, data_hex: str) -> dict:
        """Store hex-encoded content; returns its digest."""
        try:
            data = bytes.fromhex(data_hex)
        except ValueError as exc:
            raise ServiceError(400, f"data is not hex: {exc}") from exc
        digest = self.engine.cache.put(data)
        return {"digest": digest, "bytes": len(data)}

    def visualize_workflow(
        self, ident: int | str, user: UserRecord | None = None
    ) -> dict:
        """Graph renderings (text/DOT) of a registered workflow."""
        workflow = self.registry.get("workflow", ident, user=user)
        try:
            return self.engine.inspect(
                workflow.workflowCode, graph_name=workflow.entryPoint or None
            )
        except (SyntaxError, ValueError) as exc:
            raise ServiceError(400, f"cannot build workflow graph: {exc}") from exc

    def run_workflow(
        self,
        user: UserRecord,
        ident: int | str,
        input: Any = 1,
        mapping: str = "simple",
        resources: list[dict] | None = None,
        verbose: bool = False,
        options: dict | None = None,
    ) -> ServerStream:
        """Start a run; returns a stream of DATA payloads plus a summary.

        Each payload is a list of output lines: every line the run printed
        since the last payload, split at :data:`DATA_FRAME_BYTES`.  The
        first line goes alone, so the client sees it as soon as it is
        printed (§IV-E).

        ``options`` are passed to the engine (e.g. ``sandbox``,
        ``num_processes``).  Raises :class:`ServiceError` 428 when
        declared resources are not yet cached (the client uploads them
        and retries), 400 for an unknown mapping, a run option refused at
        admission or one that shadows ``verbose``.  Closing the stream
        early stops the run; its ``Execution`` row ends ``cancelled``.
        """
        workflow = admit(self.registry, user, ident, mapping, options)
        if resources:
            missing = self.check_resources(resources)["missing"]
            if missing:
                raise ServiceError(
                    428, "resources required: " + ", ".join(sorted(missing))
                )
        try:
            stream, outcome = self.engine.stream_batches(
                workflow.workflowCode,
                input=input,
                mapping=mapping,
                graph_name=workflow.entryPoint or None,
                resources=resources,
                verbose=verbose,
                **(options or {}),
            )
        except TypeError as exc:  # only binds arguments; the run starts lazily
            raise ServiceError(400, f"invalid run options: {exc}") from exc
        ids: dict[str, int] = {}

        def chunks():
            # The row is written when the run starts, so every row's
            # generator has started and its ``finally`` will finish it.
            execution = self.executions.create(
                workflow.workflowId,
                user.userId,
                mapping,
                json.dumps(input, default=str),
            )
            ids["executionId"] = execution.executionId
            collected: list[str] = []
            status = "cancelled"
            try:
                for batch in stream:
                    first = not collected
                    collected.extend(batch)
                    if first:  # the first line goes alone
                        yield batch[:1]
                        batch = batch[1:]
                    yield from _data_frames(batch)
                status = outcome.status
            finally:
                stream.close()  # sets the run's stop token if it is still going
                self.executions.finish(execution.executionId, status)
                self.responses.create(
                    execution.executionId,
                    output=json.dumps(outcome.outputs),
                    log_lines="\n".join(outcome.logs + collected),
                )

        return ServerStream(chunks(), summary=lambda: {**ids, **outcome.to_public()})


class JobService:
    """Asynchronous workflow runs over the jobs subsystem.

    Thin HTTP-ish shim over :class:`~repro.laminar.jobs.manager.
    JobManager`: resolves the workflow, freezes the submit parameters
    into a :class:`~repro.laminar.jobs.model.JobSpec` and maps
    job-subsystem failures to :class:`ServiceError` statuses (429 queue
    full, 404 unknown job, 409 illegal lifecycle operations).
    """

    def __init__(self, registry: RegistryService, manager: JobManager) -> None:
        self.registry = registry
        self.manager = manager

    def submit(
        self,
        user: UserRecord,
        ident: int | str,
        input: Any = 1,
        mapping: str = "simple",
        timeout: float | None = None,
        max_retries: int = 0,
        priority: int = 0,
        options: dict | None = None,
    ) -> dict:
        """Queue a run of a registered workflow; returns the QUEUED job."""
        workflow = admit(self.registry, user, ident, mapping, options)
        spec = JobSpec(
            workflow_code=workflow.workflowCode,
            workflow_name=workflow.workflowName,
            workflow_id=workflow.workflowId,
            entry_point=workflow.entryPoint or None,
            user_id=user.userId,
            user_name=user.userName,
            input=input,
            mapping=mapping,
            options=dict(options or {}),
            priority=priority,
            timeout=timeout,
            max_retries=max_retries,
        )
        try:
            job = self.manager.submit(spec)
        except QueueFull as exc:
            raise ServiceError(429, str(exc)) from exc
        return job.to_public()

    def _job(self, job_id: int, user: UserRecord | None = None):
        """Fetch a job, scoped to its owner (404 for another tenant's —
        the same anti-enumeration choice as the registry lookups)."""
        try:
            job = self.manager.get(job_id)
        except UnknownJob as exc:
            raise ServiceError(404, f"no job {job_id!r}") from exc
        if user is not None and job.spec.user_id != user.userId:
            raise ServiceError(404, f"no job {job_id!r}")
        return job

    def status(self, job_id: int, user: UserRecord | None = None) -> dict:
        """Current lifecycle state of one job."""
        return self._job(job_id, user=user).to_public()

    def result(self, job_id: int, user: UserRecord | None = None) -> dict:
        """Terminal state plus outcome; 409 while the job is still live."""
        job = self._job(job_id, user=user)
        if not job.terminal:
            raise ServiceError(
                409, f"job {job.job_id} not finished (state {job.state.value})"
            )
        return job.to_public(include_result=True)

    def logs(self, job_id: int, user: UserRecord | None = None) -> dict:
        """Output lines captured so far (usable mid-run)."""
        job = self._job(job_id, user=user)
        return {
            "jobId": job.job_id,
            "state": job.state.value,
            "lines": job.log_snapshot(),
        }

    def cancel(self, job_id: int, user: UserRecord | None = None) -> dict:
        """Cooperatively cancel a queued or running job (409 when final)."""
        self._job(job_id, user=user)
        try:
            return self.manager.cancel(job_id).to_public()
        except InvalidTransition as exc:
            raise ServiceError(409, str(exc)) from exc

    def list_jobs(
        self,
        state: str | None = None,
        limit: int = 50,
        user: UserRecord | None = None,
    ) -> list[dict]:
        """Newest-first job summaries (the caller's own when scoped)."""
        if state is not None:
            try:
                state = JobState(str(state).upper())
            except ValueError as exc:
                raise ServiceError(400, f"unknown job state {state!r}") from exc
        return self.manager.list_jobs(
            state=state,
            limit=limit,
            user_id=None if user is None else user.userId,
        )
