"""The assembled Laminar server application.

Wires registry database → repositories → services → router and exposes
``handle(payload)``, the single entry point every transport calls.
Streaming responses pass through as
:class:`~repro.laminar.transport.inprocess.ServerStream` bodies; the
transport decides how to frame them.
"""

from __future__ import annotations

import time
import traceback
from typing import Any

from repro.laminar.execution.engine import ExecutionEngine
from repro.laminar.jobs import DatabaseJobStore, Job, JobManager
from repro.laminar.registry.database import RegistryDatabase
from repro.laminar.server.controllers import Router
from repro.laminar.server.dataaccess import (
    ApiKeyRepository,
    ExecutionRepository,
    JobRepository,
    PERepository,
    ResponseRepository,
    UserRepository,
    WorkflowRepository,
)
from repro.laminar.server.services import (
    AuthService,
    ExecutionService,
    JobService,
    RegistryService,
    ServiceError,
)
from repro.obs import MetricsRegistry, Tracer

__all__ = ["LaminarServer", "ServerMetrics"]


class ServerMetrics:
    """Per-action request accounting backed by a :class:`MetricsRegistry`.

    The resource-management observability of §IV-F at the server level.
    Every sample lives in the registry (``laminar_server_*`` /
    ``laminar_job_*`` families, served raw by ``get_metrics``);
    :meth:`snapshot` derives the legacy JSON summary the ``stats`` action
    has always returned, so existing clients see an unchanged shape.
    """

    #: Tenant label used for requests with no resolved user (anonymous
    #: pings, failed auth) and for tokenless ``open`` observability actions.
    ANON_TENANT = "-"

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.monotonic()
        # Counters carry a ``tenant`` label so per-tenant consumption is
        # scrapable; the latency histogram deliberately stays per-action
        # only (actions x tenants histograms would explode cardinality).
        self._requests = self.registry.counter(
            "laminar_server_requests_total",
            "Requests handled by the server, by action and tenant.",
            ("action", "tenant"),
        )
        self._errors = self.registry.counter(
            "laminar_server_request_errors_total",
            "Requests answered with status >= 400, by action and tenant.",
            ("action", "tenant"),
        )
        self._latency = self.registry.histogram(
            "laminar_server_request_seconds",
            "Request handling latency, by action.",
            ("action",),
        )
        self._jobs_finished = self.registry.counter(
            "laminar_jobs_finished_total",
            "Jobs that reached a terminal state, by state and tenant.",
            ("state", "tenant"),
        )
        self._job_retries = self.registry.counter(
            "laminar_job_retries_total",
            "Retry attempts accumulated by finished jobs.",
        )
        self._job_wait = self.registry.histogram(
            "laminar_job_wait_seconds",
            "Queue wait (submit to first run) of finished jobs, by tenant.",
            ("tenant",),
        )
        self._job_run = self.registry.histogram(
            "laminar_job_run_seconds",
            "Cumulative running time of finished jobs, by tenant.",
            ("tenant",),
        )
        self.registry.gauge(
            "laminar_server_uptime_seconds",
            "Seconds since this server was constructed.",
        ).set_function(lambda: time.monotonic() - self.started_at)

    def record(
        self, action: str, elapsed: float, ok: bool, tenant: str | None = None
    ) -> None:
        """Account one handled request."""
        tenant = tenant or self.ANON_TENANT
        self._requests.labels(action, tenant).inc()
        self._latency.labels(action).observe(elapsed)
        if not ok:
            self._errors.labels(action, tenant).inc()

    def record_job(self, job: Job) -> None:
        """Account one job reaching a terminal state."""
        tenant = job.spec.tenant
        self._jobs_finished.labels(job.state.value, tenant).inc()
        self._job_wait.labels(tenant).observe(job.queue_seconds)
        self._job_run.labels(tenant).observe(job.run_seconds)
        if job.retries:
            self._job_retries.inc(job.retries)

    def snapshot(self) -> dict:
        """JSON-able metrics summary (the ``stats`` action body).

        ``by_action`` and ``jobs`` keep their pre-tenancy shape by
        aggregating over the tenant label; ``tenants`` adds one row per
        tenant (request/error totals, finished jobs, mean waits).
        """
        by_action: dict[str, dict] = {}
        tenants: dict[str, dict] = {}

        def tenant_row(tenant: str) -> dict:
            return tenants.setdefault(
                tenant,
                {
                    "requests": 0,
                    "errors": 0,
                    "jobs_finished": 0,
                    "mean_wait_ms": 0.0,
                    "mean_run_ms": 0.0,
                },
            )

        for (action, tenant), counter in self._requests.collect():
            count = int(counter.value)
            errors = int(self._errors.labels(action, tenant).value)
            entry = by_action.setdefault(
                action, {"requests": 0, "errors": 0, "mean_ms": 0.0}
            )
            entry["requests"] += count
            entry["errors"] += errors
            row = tenant_row(tenant)
            row["requests"] += count
            row["errors"] += errors
        for action, entry in by_action.items():
            latency = self._latency.labels(action)
            count = entry["requests"]
            entry["mean_ms"] = round(1e3 * latency.sum / count, 3) if count else 0.0

        finished_by_state: dict[str, int] = {}
        for (state, tenant), counter in self._jobs_finished.collect():
            value = int(counter.value)
            finished_by_state[state] = finished_by_state.get(state, 0) + value
            tenant_row(tenant)["jobs_finished"] += value
        for (tenant,), wait in self._job_wait.collect():
            if wait.count:
                tenant_row(tenant)["mean_wait_ms"] = round(
                    1e3 * wait.sum / wait.count, 3
                )
        for (tenant,), run in self._job_run.collect():
            if run.count:
                tenant_row(tenant)["mean_run_ms"] = round(
                    1e3 * run.sum / run.count, 3
                )

        finished = sum(finished_by_state.values())
        wait_sum = sum(child.sum for _, child in self._job_wait.collect())
        run_sum = sum(child.sum for _, child in self._job_run.collect())
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "total_requests": sum(a["requests"] for a in by_action.values()),
            "by_action": by_action,
            "tenants": tenants,
            "jobs": {
                "finished": finished_by_state,
                "retries": int(self._job_retries.value),
                "mean_wait_ms": round(1e3 * wait_sum / finished, 3)
                if finished
                else 0.0,
                "mean_run_ms": round(1e3 * run_sum / finished, 3)
                if finished
                else 0.0,
            },
        }


class LaminarServer:
    """A complete Laminar 2.0 server over one registry database."""

    def __init__(
        self,
        db_path: str = ":memory:",
        job_workers: int = 2,
        job_queue_capacity: int = 64,
        job_default_timeout: float | None = None,
        index_dir: str | None = None,
        shard_id: str | None = None,
        cluster_config=None,
        require_auth: bool = False,
        quotas=None,
    ) -> None:
        """``require_auth`` disables the anonymous guest fallback (every
        request must carry a session token or API key); ``quotas`` is an
        optional :class:`~repro.laminar.tenancy.QuotaConfig` bounding
        each tenant's registry rows, queued jobs, running jobs and
        fair-share weight."""
        # Cluster identity: a shard knows its own id and (when given the
        # shared ClusterConfig) verifies key ownership per request — a
        # misrouted keyed request is answered 421 with the true owner
        # instead of being served from the wrong registry partition.
        self.shard_id = shard_id
        self.cluster_config = cluster_config
        self._shard_router = None
        if cluster_config is not None and shard_id is not None:
            from repro.laminar.cluster.router import ShardRouter

            self._shard_router = ShardRouter(cluster_config)
        self.db = RegistryDatabase(db_path)
        self.users = UserRepository(self.db)
        self.api_keys = ApiKeyRepository(self.db)
        self.pes = PERepository(self.db)
        self.workflows = WorkflowRepository(self.db)
        self.executions = ExecutionRepository(self.db)
        self.responses = ResponseRepository(self.db)
        self.job_rows = JobRepository(self.db)
        self.quotas = quotas

        self.auth = AuthService(
            self.users, api_keys=self.api_keys, require_auth=require_auth
        )
        # ``index_dir`` enables warm starts: semantic indexes persisted
        # there (``index_save``) are memmap-loaded on boot instead of
        # rebuilt from every stored embedding.
        self.registry = RegistryService(
            self.pes,
            self.workflows,
            index_dir=index_dir,
            shard_id=shard_id,
            quotas=quotas,
        )
        # Per-server observability sinks: a private registry/tracer so
        # several servers in one process (tests!) never mix metrics.
        self.obs_registry = MetricsRegistry()
        self.tracer = Tracer()
        self.registry.bind_metrics(self.obs_registry)
        self.engine = ExecutionEngine(registry=self.obs_registry, tracer=self.tracer)
        self.execution = ExecutionService(
            self.registry, self.executions, self.responses, self.engine
        )
        self.metrics = ServerMetrics(registry=self.obs_registry)
        self.job_manager = JobManager(
            engine=self.engine,
            store=DatabaseJobStore(self.job_rows),
            workers=job_workers,
            queue_capacity=job_queue_capacity,
            default_timeout=job_default_timeout,
            on_terminal=self.metrics.record_job,
            registry=self.obs_registry,
            tracer=self.tracer,
            quotas=quotas,
        )
        self.jobs = JobService(self.registry, self.job_manager)
        self.router = Router(self)
        if shard_id is not None:
            # Per-shard identity gauge: every metric family scraped from
            # this server is attributable to its shard by joining on it.
            self.obs_registry.gauge(
                "laminar_cluster_shard_up",
                "1 for the shard serving this metrics registry.",
                ("shard",),
            ).labels(shard_id).set(1.0)
            self._misdirected = self.metrics.registry.counter(
                "laminar_cluster_misdirected_total",
                "Keyed requests rejected with 421 (wrong shard), by action.",
                ("action",),
            )
        else:
            self._misdirected = None

    def handle(self, payload: Any) -> dict:
        """Process one request payload into a ``{status, body}`` envelope.

        Every action — including the ``open`` observability ones — takes
        the same path: ownership check, caller resolution, parameter
        validation and dispatch, inside one accounting/try-except.  A
        malformed request is a 4xx; an exception anywhere else returns a
        structured 500 (never kills the transport exchange) and lands in
        ``laminar_server_*`` metrics.
        """
        if not isinstance(payload, dict):
            return {"status": 400, "body": {"error": "payload must be an object"}}
        action = str(payload.get("action"))
        if self._shard_router is not None:
            hint = self._shard_router.misdirected(self.shard_id, action, payload)
            if hint is not None:
                self._misdirected.labels(action).inc()
                return {
                    "status": 421,
                    "body": {
                        "error": (
                            f"shard {self.shard_id} does not own {hint['key']!r} "
                            f"(owner: {hint['owner']})"
                        ),
                        **hint,
                    },
                }
        started = time.monotonic()
        tenant = None
        try:
            # Resolve here (not in dispatch) so the request metrics carry
            # the tenant label even when the handler fails.
            user = self.router.resolve_user(payload)
            tenant = user.userName if user is not None else None
            body = self.router.dispatch(payload, user=user)
            response = {"status": 200, "body": body}
        except ServiceError as exc:
            response = {"status": exc.status, "body": {"error": exc.message}}
        except Exception:
            response = {
                "status": 500,
                "body": {"error": traceback.format_exc(limit=3)},
            }
        self.metrics.record(
            action,
            time.monotonic() - started,
            ok=response["status"] < 400,
            tenant=tenant,
        )
        return response

    def close(self) -> None:
        """Stop the job workers and close the registry database."""
        self.job_manager.shutdown(wait=True)
        self.db.close()
