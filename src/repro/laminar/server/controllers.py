"""Controller layer: route transport payloads to service calls.

A request is a JSON-able dict ``{"action": ..., "token": ..., **params}``.
The :class:`Router` takes the handler, auth mode and parameter schema of
each action from the catalogue in :mod:`repro.laminar.actions`, checks
the parameters once before any handler runs, and returns the body; the
app wraps bodies into ``{"status": ..., "body": ...}`` envelopes and
converts :class:`~repro.laminar.server.services.ServiceError` into error
statuses.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.laminar.actions import ACTIONS, ParamError, validate
from repro.laminar.registry.schema import schema_summary
from repro.laminar.server.services import ServiceError

__all__ = ["Router"]


class Router:
    """Dispatch table from action names to handlers, one per catalogue row."""

    def __init__(self, server) -> None:
        """``server`` is the :class:`~repro.laminar.server.app.LaminarServer`
        whose services, metrics, tracer and cluster identity it serves."""
        self.server = server
        self.auth = server.auth
        self.registry = server.registry
        self.execution = server.execution
        self.jobs = server.jobs
        self._handlers: dict[str, Callable[[Any, dict], Any]] = {
            name: self._handler(spec) for name, spec in ACTIONS.items()
        }

    def _handler(self, spec) -> Callable[[Any, dict], Any]:
        """The action's own ``_<name>`` method; otherwise the kind-taking
        verb its name spells without the key's kind, bound to that kind
        (``remove_pe`` → ``_remove("pe", ...)``)."""
        own = getattr(self, f"_{spec.name}", None)
        if own is not None:
            return own
        kind = spec.key[0]
        return partial(getattr(self, "_" + spec.name.replace(f"_{kind}", "")), kind)

    def actions(self) -> list[str]:
        """Sorted names of every routable action."""
        return sorted(self._handlers)

    def resolve_user(self, payload: dict):
        """Resolve the payload's credential under its action's auth mode
        (see :mod:`repro.laminar.actions`); ``None`` for a permitted
        anonymous caller."""
        spec = ACTIONS.get(str(payload.get("action")))
        auth = spec.auth if spec is not None else "user"
        token = payload.get("token")
        if token is not None and not isinstance(token, str):
            raise ServiceError(400, "token must be a string")
        if auth == "open" and not token:
            return None
        try:
            return self.auth.resolve(token)
        except ServiceError:
            if auth in ("open", "credential_repair") or (auth == "anonymous" and not token):
                return None
            raise

    def dispatch(self, payload: dict, user=None) -> Any:
        """Resolve the caller, validate the parameters, return the body.

        A pre-resolved ``user`` skips resolution (the app passes one so
        request metrics carry the tenant label).
        """
        action = str(payload.get("action"))
        spec = ACTIONS.get(action)
        if spec is None:
            raise ServiceError(404, f"unknown action {action!r}")
        if user is None:
            user = self.resolve_user(payload)
        try:
            params = validate(spec, payload)
        except ParamError as exc:
            raise ServiceError(400, str(exc)) from None
        return self._handlers[action](user, params)

    # -- liveness and accounts -------------------------------------------------

    def _ping(self, user, p):
        return {"pong": True, "user": user.userName if user else None}

    def _schema(self, user, p):
        return {"tables": schema_summary()}

    def _register_user(self, user, p):
        return self.auth.register(p["userName"], p["password"])

    def _login(self, user, p):
        return self.auth.login(p["userName"], p["password"])

    def _logout(self, user, p):
        return self.auth.logout(p["token"])

    def _whoami(self, user, p):
        return user.to_public()

    def _create_api_key(self, user, p):
        return self.auth.create_api_key(user, name=p["name"])

    def _revoke_api_key(self, user, p):
        return self.auth.revoke_api_key(user, p["keyId"])

    # -- registration and retrieval --------------------------------------------

    def _register_pe(self, user, p):
        return self.registry.register_pe(
            user, p["code"], name=p["name"], description=p["description"]
        ).to_public()

    def _register_workflow(self, user, p):
        workflow, pes = self.registry.register_workflow(
            user, p["code"], p["name"], description=p["description"], entry_point=p["entryPoint"]
        )
        return {
            "workflow": workflow.to_public(include_code=False),
            "pes": [pe.to_public(include_code=False) for pe in pes],
        }

    def _get(self, kind, user, p):
        return self.registry.get(kind, p["id"], user=user).to_public()

    def _get_pes_by_workflow(self, user, p):
        workflow = self.registry.get("workflow", p["id"], user=user)
        pes = self.registry.workflows.pes_of(workflow.workflowId)
        return [pe.to_public(include_code=False) for pe in pes]

    def _get_registry(self, user, p):
        return self.registry.registry_listing(user=user)

    def _describe(self, user, p):
        return self.registry.get(p["kind"], p["id"], user=user).to_public(include_code=True)

    def _visualize(self, user, p):
        return self.execution.visualize_workflow(p["id"], user=user)

    def _export_registry(self, user, p):
        from repro.laminar.registry.portability import export_registry

        return export_registry(self.registry.pes, self.registry.workflows, user=user)

    def _import_registry(self, user, p):
        from repro.laminar.registry.portability import import_registry

        try:
            counts = import_registry(p["dump"], self.registry.pes, self.registry.workflows, user)
        except (ValueError, KeyError, TypeError) as exc:
            raise ServiceError(400, f"invalid registry dump: {exc}") from exc
        self.registry.invalidate_indexes()  # the import bypassed the index deltas
        return counts

    # -- updates and removal ---------------------------------------------------

    def _update_description(self, kind, user, p):
        return self.registry.update_description(
            kind, p["id"], p["description"], user=user
        ).to_public()

    def _remove(self, kind, user, p):
        return self.registry.remove(kind, p["id"], user=user)

    def _remove_all(self, user, p):
        return self.registry.remove_all(user=user)

    # -- search ----------------------------------------------------------------

    def _search_literal(self, user, p):
        return self.registry.literal_search(p["term"], kind=p["kind"], user=user)

    def _search_semantic(self, user, p):
        return self.registry.semantic_search(p["query"], kind=p["kind"], top_k=p["topK"], user=user)

    def _code_recommendation(self, user, p):
        return self.registry.code_recommendation(
            p["snippet"], kind=p["kind"], embedding_type=p["embeddingType"], top_k=p["topK"],
            threshold=p["threshold"], user=user,
        )

    def _code_completion(self, user, p):
        return self.registry.code_completion(
            p["snippet"], embedding_type=p["embeddingType"], top_k=p["topK"], user=user
        )

    def _index_stats(self, user, p):
        return self.registry.index_stats()

    def _index_save(self, user, p):
        return {"saved": self.registry.index_save()}

    # -- execution -------------------------------------------------------------

    def _check_resources(self, user, p):
        return self.execution.check_resources(p["manifest"])

    def _upload_resource(self, user, p):
        return self.execution.upload_resource(p["data"])

    def _run(self, user, p):
        return self.execution.run_workflow(
            user, p["id"], input=p["input"], mapping=p["mapping"], resources=p["resources"],
            verbose=p["verbose"], options=p["options"],
        )

    # -- asynchronous jobs -----------------------------------------------------

    def _submit_job(self, user, p):
        return self.jobs.submit(
            user, p["id"], input=p["input"], mapping=p["mapping"], timeout=p["timeout"],
            max_retries=p["maxRetries"], priority=p["priority"], options=p["options"],
        )

    def _job_status(self, user, p):
        return self.jobs.status(p["jobId"], user=user)

    def _job_result(self, user, p):
        return self.jobs.result(p["jobId"], user=user)

    def _job_logs(self, user, p):
        return self.jobs.logs(p["jobId"], user=user)

    def _cancel_job(self, user, p):
        return self.jobs.cancel(p["jobId"], user=user)

    def _list_jobs(self, user, p):
        return self.jobs.list_jobs(state=p["state"], limit=p["limit"], user=user)

    # -- observability (open: served without a credential) ---------------------

    def _stats(self, user, p):
        body = self.server.metrics.snapshot()
        # Live queue/worker gauges come from the manager; the counters
        # above only see jobs that already finished.
        body["jobs"].update(self.server.job_manager.stats())
        return body

    def _get_metrics(self, user, p):
        # Raw exposition of the server's whole registry — requests, jobs,
        # mapping runs, dynamic-pool gauges — in Prometheus text format
        # (default) or as the JSON snapshot dump.
        registry = self.server.obs_registry
        if p["format"] == "json":
            return {"metrics": registry.snapshot()}
        return {"content_type": "text/plain; version=0.0.4", "text": registry.render_text()}

    def _get_trace(self, user, p):
        tracer = self.server.tracer
        if p["format"] == "chrome":
            body = {"trace": tracer.to_chrome(p["trace_id"])}
        elif p["format"] == "spans":
            body = {"spans": tracer.export(p["trace_id"])}
        else:
            body = {"trace": tracer.tree(p["trace_id"])}
        body["dropped_spans"] = tracer.dropped
        if p["clear"]:
            tracer.clear()
        return body

    def _cluster_info(self, user, p):
        config = self.server.cluster_config
        return {
            "shardId": self.server.shard_id,
            "cluster": config.to_dict() if config is not None else None,
        }
