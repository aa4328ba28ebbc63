"""The ledger's metric and workload catalogue.

One place names every workload, every end-to-end metric (with its
regression bound) and every per-layer metric (with the end-to-end
metric and workload it is expected to move).  ``BENCHMARK.json`` at the
repo root is this catalogue minus the ``moves`` column —
:func:`benchmark_json` renders it and ``test_ledger.py`` asserts the
committed file matches.
"""

from __future__ import annotations

RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: name -> (why, primary op class, secondary op class).  The primary and
#: secondary classes are what ``primary_*`` / ``secondary_p50_ms`` time.
WORKLOADS: dict[str, tuple[str, str, str]] = {
    "search_read": (
        "read-only search/recommend/literal mix over 4 tenants' rows: index, "
        "embedder, auth and reply encoding work, Aroma cache stays warm; "
        "primary=semantic search, secondary=recommend",
        "search",
        "recommend",
    ),
    "registry_churn": (
        "one connection registers/updates/removes and recommends, one only searches: "
        "every write bumps the revision so each recommend rebuilds the Aroma corpus; "
        "primary=recommend, secondary=register_PE",
        "recommend",
        "register",
    ),
    "stream_run": (
        "streamed run of a 3-stage CPU chain (100 DATA frames), every 5th "
        "run_dynamic: engine, mappings and framing work, search idle; "
        "primary=run total, secondary=first streamed line",
        "run_total",
        "run_first_line",
    ),
    "cluster_jobs": (
        "2 tenants submit 12-job waves to a 3-shard cluster then scatter-search "
        "and keyed get: job lanes, store writes, ring routing, merge; "
        "primary=job turnaround, secondary=scatter search",
        "job_turnaround",
        "search",
    ),
}

#: (name, unit, better, bound).  Every metric is reported on every
#: workload and is never 0; op-class latencies that exist on only some
#: workloads are ``client.*`` per-layer diagnostics instead.  The bounds
#: are about three times the run-to-run spread measured on the 2-core
#: host (its effective CPU speed alone moves by +-5 % within minutes).
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("primary_p50_ms", "ms", "lower", 0.25),
    ("primary_p90_ms", "ms", "lower", 0.25),
    ("secondary_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_ALL = tuple(WORKLOADS)

#: (name, unit, better, moves) — ``moves`` lists the (end-to-end metric,
#: workload) pairs the layer metric is expected to move.
PER_LAYER: list[tuple[str, str, str, list[tuple[str, str]]]] = [
    # client: laminar.client / cluster.client, measured over TCP, tracing off
    ("client.call_self_ms_per_op", "ms", "lower", [("ops_per_s", w) for w in _ALL]),
    ("client.retries", "count", "lower", [("ops_per_s", w) for w in _ALL]),
    ("client.search_p50_ms", "ms", "lower", [("primary_p50_ms", "search_read"), ("secondary_p50_ms", "cluster_jobs")]),
    ("client.search_p90_ms", "ms", "lower", [("primary_p90_ms", "search_read")]),
    ("client.search_p99_ms", "ms", "lower", [("primary_p90_ms", "search_read")]),
    ("client.recommend_p50_ms", "ms", "lower", [("primary_p50_ms", "registry_churn"), ("secondary_p50_ms", "search_read")]),
    ("client.recommend_p90_ms", "ms", "lower", [("primary_p90_ms", "registry_churn")]),
    ("client.recommend_p99_ms", "ms", "lower", [("primary_p90_ms", "registry_churn")]),
    ("client.register_p50_ms", "ms", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("client.register_p99_ms", "ms", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("client.run_first_line_p50_ms", "ms", "lower", [("secondary_p50_ms", "stream_run")]),
    ("client.run_total_p50_ms", "ms", "lower", [("primary_p50_ms", "stream_run")]),
    ("client.run_total_p90_ms", "ms", "lower", [("primary_p90_ms", "stream_run")]),
    ("client.run_total_p99_ms", "ms", "lower", [("primary_p90_ms", "stream_run")]),
    ("client.run_dynamic_p50_ms", "ms", "lower", [("ops_per_s", "stream_run")]),
    ("client.job_turnaround_p50_ms", "ms", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("client.job_turnaround_p90_ms", "ms", "lower", [("primary_p90_ms", "cluster_jobs")]),
    ("client.job_turnaround_p99_ms", "ms", "lower", [("primary_p90_ms", "cluster_jobs")]),
    ("client.jobs_per_s", "1/s", "higher", [("ops_per_s", "cluster_jobs")]),
    # frames: transport.frames
    ("frames.encode_ms_per_op", "ms", "lower", [("primary_p50_ms", "stream_run"), ("secondary_p50_ms", "search_read")]),
    ("frames.decode_ms_per_op", "ms", "lower", [("primary_p50_ms", "stream_run"), ("secondary_p50_ms", "search_read")]),
    ("frames.bytes_out_per_op", "B", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("frames.bytes_in_per_op", "B", "lower", [("secondary_p50_ms", "search_read")]),
    ("frames.count_per_op", "count", "lower", [("primary_p50_ms", "stream_run")]),
    # tcp: transport.tcp
    ("tcp.wire_ms_per_op", "ms", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("tcp.ping_rtt_p50_ms", "ms", "lower", [("primary_p50_ms", w) for w in _ALL]),
    # server: server.app / server.controllers
    ("server.auth_ms_per_op", "ms", "lower", [("ops_per_s", "cluster_jobs"), ("primary_p50_ms", "search_read")]),
    ("server.dispatch_self_ms_per_op", "ms", "lower", [("ops_per_s", "cluster_jobs")]),
    ("server.handle_self_ms_per_op", "ms", "lower", [("ops_per_s", "cluster_jobs")]),
    ("server.status_4xx", "count", "lower", [("ops_per_s", w) for w in _ALL]),
    ("server.status_5xx", "count", "lower", [("ops_per_s", w) for w in _ALL]),
    # services: server.services
    ("services.self_ms_per_op", "ms", "lower", [("primary_p50_ms", "search_read"), ("secondary_p50_ms", "search_read")]),
    # sqlite: server.dataaccess / registry
    ("sqlite.ms_per_op", "ms", "lower", [("primary_p50_ms", "registry_churn"), ("secondary_p50_ms", "registry_churn"), ("primary_p50_ms", "cluster_jobs")]),
    ("sqlite.calls_per_op", "count", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("sqlite.rows_read_per_op", "count", "lower", [("primary_p50_ms", "registry_churn")]),
    # models: models.describer / models.embedder / aroma.features
    ("models.describe_ms_per_register", "ms", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("models.embed_ms_per_op", "ms", "lower", [("primary_p50_ms", "search_read"), ("secondary_p50_ms", "registry_churn")]),
    ("aroma.featurize_ms_per_op", "ms", "lower", [("secondary_p50_ms", "search_read"), ("secondary_p50_ms", "registry_churn")]),
    # index: search.semantic / search.index
    ("index.search_ms_per_query", "ms", "lower", [("primary_p50_ms", "search_read")]),
    ("index.candidates_per_query", "count", "lower", [("primary_p50_ms", "search_read")]),
    ("index.results_kept_ratio", "ratio", "higher", [("primary_p50_ms", "search_read")]),
    ("index.add_ms_per_write", "ms", "lower", [("secondary_p50_ms", "registry_churn")]),
    ("index.remove_ms_per_write", "ms", "lower", [("ops_per_s", "registry_churn")]),
    ("index.rebuilds", "count", "lower", [("primary_p90_ms", "search_read")]),
    # aroma: search.code / aroma
    ("aroma.search_ms_per_query", "ms", "lower", [("secondary_p50_ms", "search_read")]),
    ("aroma.rebuild_ms_per_query", "ms", "lower", [("primary_p50_ms", "registry_churn")]),
    ("aroma.rebuilds", "count", "lower", [("primary_p50_ms", "registry_churn")]),
    ("aroma.cache_hit_ratio", "ratio", "higher", [("primary_p50_ms", "registry_churn")]),
    # engine: execution.engine / execution.streaming
    ("engine.prepare_ms_per_run", "ms", "lower", [("secondary_p50_ms", "stream_run")]),
    ("engine.stream_self_ms_per_run", "ms", "lower", [("secondary_p50_ms", "stream_run")]),
    ("engine.lines_per_run", "count", "higher", [("primary_p50_ms", "stream_run")]),
    # mapping: d4py.mappings
    ("mapping.simple_ms_per_run", "ms", "lower", [("primary_p50_ms", "stream_run"), ("ops_per_s", "cluster_jobs")]),
    ("mapping.dynamic_ms_per_run", "ms", "lower", [("ops_per_s", "stream_run")]),
    ("mapping.items_per_s", "1/s", "higher", [("primary_p50_ms", "stream_run"), ("ops_per_s", "cluster_jobs")]),
    # jobs: laminar.jobs
    ("jobs.submit_ms_per_job", "ms", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("jobs.queue_wait_p50_ms", "ms", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("jobs.run_p50_ms", "ms", "lower", [("primary_p50_ms", "cluster_jobs"), ("ops_per_s", "cluster_jobs")]),
    ("jobs.store_ms_per_job", "ms", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("jobs.store_writes_per_job", "count", "lower", [("primary_p50_ms", "cluster_jobs")]),
    ("jobs.polls_per_job", "count", "lower", [("ops_per_s", "cluster_jobs")]),
    ("jobs.rejected_429", "count", "lower", [("ops_per_s", "cluster_jobs")]),
    # cluster: laminar.cluster
    ("cluster.merge_self_ms_per_op", "ms", "lower", [("secondary_p50_ms", "cluster_jobs")]),
    ("cluster.scatter_fanout_per_op", "count", "lower", [("secondary_p50_ms", "cluster_jobs")]),
    ("cluster.replica_writes_per_write", "count", "lower", [("setup_s", "cluster_jobs")]),
    ("cluster.misdirected_421", "count", "lower", [("ops_per_s", "cluster_jobs")]),
    ("cluster.failovers", "count", "lower", [("ops_per_s", "cluster_jobs")]),
    ("cluster.shard_job_skew", "ratio", "lower", [("primary_p90_ms", "cluster_jobs")]),
    # obs: obs.metrics
    ("obs.record_ms_per_op", "ms", "lower", [("ops_per_s", w) for w in _ALL]),
    # ledger: the benchmark's own validity figures
    ("ledger.unattributed_ratio", "ratio", "lower", []),
    ("ledger.trace_overhead_ratio", "ratio", "lower", []),
    ("ledger.generator_cpu_ratio", "ratio", "lower", []),
    ("ledger.opstream_sha", "id", "higher", []),
]

E2E_NAMES = [name for name, *_ in END_TO_END]
LAYER_NAMES = [name for name, *_ in PER_LAYER]
E2E_UNITS = {name: unit for name, unit, *_ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
