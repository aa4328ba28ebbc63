#!/usr/bin/env python3
"""Request-path ledger: end-to-end and per-layer benchmark over real TCP.

Driver contract (one workload, one JSON object on the last line)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it runs all four workloads, end to end and traced,
and prints every metric by name with its unit and sample count;
``--check-aa`` repeats the end-to-end set and compares the two passes
against each metric's bound; ``--smoke`` shrinks inputs and windows.

``--trace 0`` boots the system under test in a child process (so the
generator's GIL never competes with the server's) ``setups`` times,
reports the median set-up time, then drives the last one over loopback
TCP with 2 closed-loop connections for ``--seconds``.  ``--trace 1``
spends half of ``--seconds`` the same way (client-side percentiles per
op class) and the other half replaying the op stream on one connection
against an in-process system, first untraced, then with
:mod:`trace` wrapping every layer's public callables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

REPLAY_OPS = 300  # the traced replay covers at most the first 300 ops
#: Op kinds whose latency is a metric; `ledger.unattributed_ratio` is the
#: worst of these (the table prints every kind, 0.3 ms `get`s included).
TIMED_KINDS = ("search", "recommend", "register", "run", "run_dynamic", "wave")
PINGS = 200


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` for a benchmark seed: `render_variant` picks
    identifier renames from ``hash(family.key)``, so the corpus is only
    reproducible when runner and server child both pin the hash seed."""
    return str((seed * 2654435761 + 97) % 4294967296)


def pin_environment(seed: int) -> None:
    """Re-execute this script under the seed's ``PYTHONHASHSEED`` and with
    BLAS held to one thread: the server child gets one core, and a second
    BLAS thread there competes with the handler threads it serves."""
    wanted = {
        "PYTHONHASHSEED": hash_seed(seed),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    if any(os.environ.get(key) != value for key, value in wanted.items()):
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, **wanted})


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(numpy.percentile(values, 100 * q)) if values else 0.0


# -- the closed loop ---------------------------------------------------------------


def closed_loop(sessions, seconds: float):
    """Drive every session's op stream from its own thread for ``seconds``.

    Returns ``(samples per session, window start, generator CPU share)``.
    Each thread finishes the cycle it is in after the window closes, so
    the registry is left as it was found.
    """
    samples = [[] for _ in sessions]
    errors: list[BaseException] = []
    start = perf_counter() + 0.05
    stop = start + seconds
    # Wave workloads start each wave on every connection at once: left
    # free, the tenants drift between overlapping and alternating waves,
    # and the turnaround of a run is whichever regime it spent longer in.
    together = threading.Barrier(len(sessions)) if sessions[0].plan.waves else None

    def loop(index: int) -> None:
        session = sessions[index]
        stream, cycle = session.stream, session.plan.cycle
        position = 0
        try:
            time.sleep(max(0.0, start - perf_counter()))
            while perf_counter() < stop or position % cycle:
                if together is not None:
                    together.wait()
                samples[index].extend(session.execute(stream[position % len(stream)]))
                position += 1
        except threading.BrokenBarrierError:
            pass  # another connection left the loop: the window is over
        except BaseException as exc:  # noqa: BLE001 — re-raised by the caller
            errors.append(exc)
        finally:
            if together is not None:
                together.abort()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(sessions))]
    cpu = time.process_time()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cpu = time.process_time() - cpu
    if errors:
        raise errors[0]
    return samples, start, cpu / seconds


def summarise(samples, start: float, seconds: float) -> dict:
    """Per-class latencies (ms) plus throughput and failure counts."""
    flat = [s for per_session in samples for s in per_session]
    latencies: dict[str, list[float]] = defaultdict(list)
    for s in flat:
        latencies[s.cls].append((s.end - s.start) * 1e3)
    counted = [s for s in flat if s.counted]
    in_window = sorted((s for s in counted if s.end <= start + seconds), key=lambda s: s.end)
    # Completions per second between the first and last completion inside
    # the window: n - 1 intervals over the time they actually span.
    span = in_window[-1].end - in_window[0].end if len(in_window) > 1 else seconds
    jobs = sum(s.cls == "job_turnaround" and s.ok for s in in_window)
    return {
        "latencies": latencies,
        "attempted": len(counted),
        "failed": sum(not s.ok for s in counted),
        "ops_per_s": (len(in_window) - 1) / span,
        "jobs_per_s": jobs / seconds,
    }


# -- end to end ----------------------------------------------------------------------


def boot_and_load(plan):
    """One full set-up: child boot, registry population, lazy builds."""
    started = perf_counter()
    child = serve.ServerChild(plan.mode)
    try:
        sessions = workloads.populate(plan, child.handshake)
    except BaseException:
        child.close()
        raise
    return child, sessions, perf_counter() - started


def measure_child(plan, seconds: float, setups: int, pings: int = 0) -> dict:
    """Set up ``setups`` times, then measure the last system."""
    setup_times = []
    for _ in range(setups - 1):
        child, sessions, took = boot_and_load(plan)
        setup_times.append(took)
        for session in sessions:
            session.close()
        child.close()
    child, sessions, took = boot_and_load(plan)
    setup_times.append(took)
    try:
        top1 = statistics.mean(session.verify() for session in sessions)
        rtts = [sessions[0].transports[0].ping() * 1e3 for _ in range(pings)]
        samples, start, cpu_share = closed_loop(sessions, seconds)
        result = summarise(samples, start, seconds)
        result.update(
            setup_s=statistics.median(setup_times),
            setup_runs=len(setup_times),
            peak_rss_mb=child.peak_rss_mb(),
            top1_rate=top1,
            generator_cpu_ratio=cpu_share,
            ping_rtt_ms=rtts,
            retries=sum(s.retried + sum(t.retries for t in s.transports) for s in sessions),
            job_facts=[fact for s in sessions for fact in s.job_facts],
            failures=[why for s in sessions for why in s.failures],
        )
        return result
    finally:
        for session in sessions:
            session.close()
        child.close()


def end_to_end_metrics(workload: str, result: dict) -> dict:
    _, primary, secondary = spec.WORKLOADS[workload]
    lat = result["latencies"]
    values = {
        "setup_s": result["setup_s"],
        "ops_per_s": result["ops_per_s"],
        "primary_p50_ms": percentile(lat[primary], 0.50),
        "primary_p90_ms": percentile(lat[primary], 0.90),
        "secondary_p50_ms": percentile(lat[secondary], 0.50),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": spec.E2E_UNITS[name]} for name in spec.E2E_NAMES}


# -- traced replay ---------------------------------------------------------------------


def replay(session, tracer, ops: int, seconds: float | None, between=None):
    """Run the first ``ops`` ops of the session's stream on this thread
    (stopping early at a cycle boundary once ``seconds`` have passed);
    with a tracer, each op runs under a root span carrying its op id and
    ``between`` is called after every cycle.
    Returns the samples and the op kind executed at each op id."""
    samples, kinds = [], []
    stop = None if seconds is None else perf_counter() + seconds
    cycle = session.plan.cycle
    for index in range(ops):
        if stop is not None and index % cycle == 0 and perf_counter() > stop:
            break
        op = session.stream[index % len(session.stream)]
        if tracer is None:
            samples.extend(session.execute(op))
        else:
            tracer.current_op = index
            with tracer.span(tracing.ROOT_SPAN):
                samples.extend(session.execute(op))
            if between is not None and (index + 1) % cycle == 0:
                between()
        kinds.append(op["kind"])
    return samples, kinds


def measure_traced(plan, seconds: float) -> dict:
    """Untraced then traced replay against an in-process system."""
    tracer = tracing.Tracer()
    probes: dict[int, str] = {}  # op id -> "null" | "write", kept out of the ledger

    def probe(kind: str, action) -> None:
        tracer.current_op = REPLAY_OPS + len(probes)  # past every replayed op id
        probes[tracer.current_op] = kind
        with tracer.span(tracing.ROOT_SPAN):
            action()

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        # In-process, PE prints of non-simple mappings would reach our stdout.
        handshake, close_system = serve.boot(plan.mode)
        sessions = []
        try:
            sessions = workloads.populate(plan, handshake)
            session = sessions[0]
            session.verify()
            plain, kinds = replay(session, None, REPLAY_OPS, seconds / 2)
            tracer.install(tracing.trace_points())
            session.span = tracer.span
            tracer.enabled = True
            traced, _ = replay(
                session, tracer, len(kinds), None,
                # the wire baseline, sampled between cycles: an empty exchange
                between=lambda: probe(
                    "null", lambda: session.transports[0].request({"action": "ping"})
                ),
            )
            if plan.mode == "cluster":
                for i in range(3):  # replicated writes happen only at set-up

                    def write(name=f"Probe{i}PE", code=session.tenant["pes"][i]["code"]):
                        session.client.register_PE(code, name=name)
                        session.client.remove_PE(name)

                    probe("write", write)
            tracer.enabled = False
        finally:
            tracer.uninstall()
            for s in sessions:
                s.close()
            close_system()
    return {
        "spans": tracer.spans,
        "plain": plain,
        "traced": traced,
        "kinds": kinds,
        "probes": probes,
        "failures": list(session.failures),
    }


def layer_metrics(plan, child: dict, traced: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric, plus the printable ledger table."""
    probes, kinds = traced["probes"], traced["kinds"]
    spans = traced["spans"]
    charged = tracing.self_times(spans)
    named: dict[str, list[tuple]] = defaultdict(list)  # spans of the replayed ops
    probe_named: dict[str, list[tuple]] = defaultdict(list)  # spans of the write probes
    for s in spans:
        if s[3] not in probes:
            named[s[2]].append(s)
        elif probes[s[3]] == "write":
            probe_named[s[2]].append(s)
    counted = sum(s.counted for s in traced["traced"])

    def total(*prefixes: str) -> float:
        """Milliseconds charged to spans of these name prefixes, all ops."""
        return 1e3 * sum(
            seconds
            for op in range(len(kinds))
            for name, seconds in charged[op].items()
            if name.startswith(prefixes)
        )

    def count(key: str, *names: str) -> float:
        return sum((s[7] or {}).get(key, 0) for name in names for s in named[name])

    def requests_under(source, *parent_names: str) -> tuple[int, int]:
        """(parent spans, TCP exchanges issued directly beneath them)."""
        parents = {s[0] for name in parent_names for s in source[name]}
        return len(parents), sum(s[1] in parents for s in source["tcp.request"])

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    lat, facts = child["latencies"], child["job_facts"]
    queries = [s for s in named["index.search"] if s[7]]  # SemanticSearch.search calls
    recommends = len(named["services.code_recommendation"])
    rebuilds = count("rebuilds", "aroma.rebuild")
    runs = len(named["mapping.simple"]) + len(named["mapping.dynamic"])
    items = runs * (workloads.JOB_ITEMS if plan.mode == "cluster" else workloads.RUN_ITEMS)
    jobs = sum(s.cls == "job_turnaround" for s in traced["traced"])
    registers = kinds.count("register")
    searches, fanout = requests_under(named, "cluster.search_Registry_Semantic")
    writes, copies = requests_under(probe_named, "cluster.register_PE", "cluster.remove_PE")
    keyed, routed = requests_under(named, "cluster.get_PE", "cluster.submit_Job")
    shard_jobs: dict[str, int] = defaultdict(int)
    for fact in facts:
        shard_jobs[fact["shard"]] += 1

    # Wire time no span explains, per op kind: what `tcp.*` was charged
    # beyond the wire cost of an empty exchange (the traced null requests).
    bare = statistics.median(
        charged[op].get("tcp.request", 0.0) for op, kind in probes.items() if kind == "null"
    )
    exchanges: dict[int, int] = defaultdict(int)
    for s in named["tcp.request"] + named["tcp.stream"]:
        exchanges[s[3]] += 1
    roots = {s[3]: s[6] - s[5] for s in named[tracing.ROOT_SPAN]}
    excess: dict[str, float] = defaultdict(float)
    observed: dict[str, float] = defaultdict(float)
    for op, kind in enumerate(kinds):
        wire = sum(v for k, v in charged[op].items() if k.startswith("tcp."))
        excess[kind] += max(0.0, wire - bare * exchanges[op])
        observed[kind] += roots[op]
    plain_s = sum(s.end - s.start for s in traced["plain"] if s.counted)
    traced_s = sum(s.end - s.start for s in traced["traced"] if s.counted)

    values = {
        "client.call_self_ms_per_op": per(total("client."), counted),
        "client.retries": child["retries"],
        "client.jobs_per_s": child["jobs_per_s"],
        "frames.encode_ms_per_op": per(total("frames.encode"), counted),
        "frames.decode_ms_per_op": per(total("frames.decode"), counted),
        "frames.bytes_out_per_op": per(count("bytes_out", "frames.encode"), counted),
        "frames.bytes_in_per_op": per(count("bytes_in", "frames.encode"), counted),
        "frames.count_per_op": per(len(named["frames.encode"]), counted),
        "tcp.wire_ms_per_op": per(total("tcp."), counted),
        "tcp.ping_rtt_p50_ms": percentile(child["ping_rtt_ms"], 0.5),
        "server.auth_ms_per_op": per(total("server.auth"), counted),
        "server.dispatch_self_ms_per_op": per(total("server.dispatch"), counted),
        "server.handle_self_ms_per_op": per(total("server.handle"), counted),
        "server.status_4xx": count("4xx", "server.handle"),
        "server.status_5xx": count("5xx", "server.handle"),
        "services.self_ms_per_op": per(total("services."), counted),
        "sqlite.ms_per_op": per(total("sqlite."), counted),
        "sqlite.calls_per_op": per(count("calls", "sqlite.read", "sqlite.write"), counted),
        "sqlite.rows_read_per_op": per(count("rows", "sqlite.read"), counted),
        "models.describe_ms_per_register": per(total("models.describe"), registers),
        "models.embed_ms_per_op": per(total("models.embed"), counted),
        "aroma.featurize_ms_per_op": per(total("aroma.featurize"), counted),
        "index.search_ms_per_query": per(total("index.search"), len(queries)),
        "index.candidates_per_query": per(count("fetched", "index.search"), len(queries)),
        "index.results_kept_ratio": per(
            count("returned", "services.semantic_search"), count("fetched", "index.search")
        ),
        "index.add_ms_per_write": per(total("index.add"), len(named["index.add"])),
        "index.remove_ms_per_write": per(total("index.remove"), len(named["index.remove"])),
        "index.rebuilds": len(named["index.rebuild"]),
        "aroma.search_ms_per_query": per(total("aroma.search"), len(named["aroma.search"])),
        "aroma.rebuild_ms_per_query": per(total("aroma.rebuild"), recommends),
        "aroma.rebuilds": rebuilds,
        "aroma.cache_hit_ratio": 1.0 - rebuilds / recommends if recommends else 0.0,
        "engine.prepare_ms_per_run": per(total("engine.prepare"), runs),
        "engine.stream_self_ms_per_run": per(total("engine.stream"), runs),
        "engine.lines_per_run": per(count("data", "frames.encode"), runs),
        "mapping.simple_ms_per_run": per(total("mapping.simple"), len(named["mapping.simple"])),
        "mapping.dynamic_ms_per_run": per(total("mapping.dynamic"), len(named["mapping.dynamic"])),
        "mapping.items_per_s": per(items, total("mapping.") / 1e3),
        "jobs.submit_ms_per_job": per(total("jobs.submit"), jobs),
        "jobs.queue_wait_p50_ms": percentile([f["queue"] * 1e3 for f in facts], 0.5),
        "jobs.run_p50_ms": percentile([f["run"] * 1e3 for f in facts], 0.5),
        "jobs.store_ms_per_job": per(total("jobs.store"), jobs),
        "jobs.store_writes_per_job": per(count("writes", "jobs.store"), jobs),
        "jobs.polls_per_job": per(sum(f["polls"] for f in facts), len(facts)),
        "jobs.rejected_429": count("429", "server.handle"),
        "cluster.merge_self_ms_per_op": per(total("cluster."), counted),
        "cluster.scatter_fanout_per_op": per(fanout, searches),
        "cluster.replica_writes_per_write": per(copies, writes),
        "cluster.misdirected_421": count("421", "server.handle"),
        "cluster.failovers": routed - keyed,
        "cluster.shard_job_skew": per(
            max(shard_jobs.values(), default=0) * len(shard_jobs), sum(shard_jobs.values())
        ),
        "obs.record_ms_per_op": per(total("obs."), counted),
        "ledger.unattributed_ratio": max(
            per(excess[k], observed[k]) for k in observed if k in TIMED_KINDS
        ),
        "ledger.trace_overhead_ratio": per(traced_s, plain_s),
        "ledger.generator_cpu_ratio": child["generator_cpu_ratio"],
        "ledger.opstream_sha": int(plan.digest[:12], 16),
    }
    for name in spec.LAYER_NAMES:  # client.<class>_p<q>_ms, from the untraced child run
        if name not in values:
            cls, _, q = name[len("client."):-len("_ms")].rpartition("_p")
            values[name] = percentile(lat[cls], int(q) / 100)
    metrics = {
        name: {"value": values[name], "unit": spec.LAYER_UNITS[name]}
        for name in spec.LAYER_NAMES
    }
    return metrics, ledger_table(charged, kinds, roots, excess)


LAYERS = ("client", "cluster", "frames", "tcp", "server", "services", "sqlite",
          "models", "aroma", "index", "engine", "mapping", "jobs", "obs", "ledger")


def ledger_table(charged, kinds, roots, excess) -> list[str]:
    """Per op kind: mean traced latency, each layer's share of it, and the
    part of the ``tcp`` share an empty exchange does not explain."""
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    seen: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    for op, kind in enumerate(kinds):
        seen[kind] += 1
        wall[kind] += roots[op]
        for name, seconds in charged[op].items():
            layers[kind][name.split(".")[0]] += seconds
    lines = []
    for kind in sorted(seen):
        mean = 1e3 * wall[kind] / seen[kind]
        lines.append(f"  ledger {kind}: n={seen[kind]} traced mean {mean:.3f} ms")
        for layer in LAYERS:
            ms = 1e3 * layers[kind].get(layer, 0.0) / seen[kind]
            if ms:
                lines.append(f"    {layer:<9}{ms:>10.3f} ms {100 * ms / mean:>6.1f} %")
        lines.append(f"    (unattributed wire {100 * excess[kind] / wall[kind]:.1f} %)")
    return lines


# -- one contract run ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    plan = workloads.build_plan(workload, seed, scale)
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"opstream_sha={plan.digest[:16]}")
    if not trace:
        child = measure_child(plan, seconds, scale.setups)
        metrics = end_to_end_metrics(workload, child)
        failures, table = child["failures"], []
        attempted, failed = child["attempted"], child["failed"]
        print(f"# top1_rate={child['top1_rate']:.3f} setup_runs={child['setup_runs']} "
              f"fail_ratio={failed / attempted:.4f} retried={child['retries']} "
              + " ".join(f"n({c})={len(v)}" for c, v in sorted(child["latencies"].items())))
    else:
        child = measure_child(plan, seconds / 2, 1, pings=PINGS)
        traced = measure_traced(plan, seconds / 2)
        metrics, table = layer_metrics(plan, child, traced)
        failures = child["failures"] + traced["failures"]
        replayed = [s for s in traced["plain"] + traced["traced"] if s.counted]
        attempted = child["attempted"] + len(replayed)
        failed = child["failed"] + sum(not s.ok for s in replayed)
    for why in failures:
        print(f"# FAILED {why}", file=sys.stderr)
    for line in table:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<36}{metric['value']:>16.6g} {metric['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- all workloads, A/A, smoke -----------------------------------------------------------


def header() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# ledger git={sha} nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg={load}\n"
            "# 2 cores: one for the server child, one for the generator; the 3 cluster "
            "shards are in-process and share one GIL on one core")


def run_all(seed: int, seconds: float, scale, check_aa: bool) -> int:
    print(header())
    passes = []
    for number in range(2 if check_aa else 1):
        results = {}
        for workload in spec.WORKLOADS:
            results[workload] = run_workload(workload, seed, seconds, False, scale)
            if number == 0:
                traced = run_workload(workload, seed, seconds, True, scale)
                results[workload]["failed"] += traced["failed"]
        passes.append(results)
    failed = sum(r["failed"] for results in passes for r in results.values())
    breaches = 0
    if check_aa:
        print("# A/A: relative difference of pass B against pass A, per bound")
        for workload in spec.WORKLOADS:
            for name, unit, better, bound in spec.END_TO_END:
                a = passes[0][workload]["metrics"][name]["value"]
                b = passes[1][workload]["metrics"][name]["value"]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "BREACH"
                breaches += verdict == "BREACH"
                print(f"  {workload:<15}{name:<18}{a:>12.4f}{b:>12.4f} {unit:<4}"
                      f"{100 * worse:>+8.2f} % (bound {100 * bound:.0f} %) {verdict}")
    print(f"# done: failed ops {failed}, A/A breaches {breaches}")
    return 1 if failed or breaches else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-aa", action="store_true",
                        help="run the end-to-end set twice and compare within bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and windows: all four workloads in <= 30 s")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    pin_environment(args.seed)
    # Everything that needs `src/` is imported here, once, after the two
    # gates above: a checkout without the system exits before it, and numpy
    # must first see the BLAS cap the re-execution put in the environment.
    global numpy, serve, spec, tracing, workloads
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy
    import serve
    import spec
    import trace as tracing
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds or (0.5 if args.smoke else spec.RUN_SECONDS)
    if args.workload:
        if args.workload not in spec.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {list(spec.WORKLOADS)}")
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale)
        print(json.dumps(result))
        return 0
    return run_all(args.seed, seconds, scale, args.check_aa)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
