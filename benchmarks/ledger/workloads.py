"""Workload generator: seeded inputs, op streams, clients and reply checks.

:func:`build_plan` turns ``(workload, seed)`` into a :class:`Plan` — the
tenants with the rows they register, and one op stream per closed-loop
connection — entirely up front, so its digest identifies the inputs.
:func:`populate` loads a plan into a running system and returns one
:class:`Session` per connection; ``Session.execute`` performs one op
through the real client, times it and checks the reply.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from repro.datasets import generate_corpus
from repro.datasets.templates import FAMILIES
from repro.eval.dropper import drop_suffix
from repro.laminar.client.client import ClientError, LaminarClient
from repro.laminar.cluster import ShardedClient
from repro.laminar.cluster.config import ClusterConfig
from repro.laminar.cluster.ring import HashRing
from repro.laminar.transport.tcp import TcpClientTransport
from serve import CLUSTER_SHARDS

__all__ = ["Scale", "FULL", "SMOKE", "Plan", "Sample", "Session", "build_plan", "populate"]

RUN_ITEMS = 100  # `input=100`: the chain streams 100 printed lines
JOB_ITEMS = 40
POLL_INTERVAL = 0.005
WAVE_READS = 3  # scatter searches and keyed gets after each wave's jobs
WAVE_TIMEOUT = 60.0
TOP_K = 5
_TERMINAL = ("SUCCEEDED", "FAILED", "CANCELLED", "TIMED_OUT")
_READS = ("search", "recommend", "literal", "get")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  The 2 000-row registry of the issue is 1 000 here so
    three set-ups and a 10 s window fit the driver's per-run budget."""

    tenants: int = 4
    pes_per_tenant: int = 250
    snippets_per_tenant: int = 40
    stream_workflows: int = 8
    cluster_tenants: int = 2
    cluster_workflows: int = 12
    cluster_pes_per_tenant: int = 100
    cycles: int = 600
    setups: int = 3


FULL = Scale()
SMOKE = Scale(
    pes_per_tenant=24, snippets_per_tenant=6, cluster_pes_per_tenant=12,
    cycles=40, setups=1,
)

# -- the CPU-bound chain ---------------------------------------------------------

CHAIN_WF = '''
class Source{tag}(ProducerPE):
    """Emit the next integer of a counting sequence."""
    def __init__(self, name):
        ProducerPE.__init__(self, name)
        self.count = 0
    def _process(self, inputs):
        self.count += 1
        return self.count

class Mix{tag}(IterativePE):
    """Scramble a number with a linear congruential loop."""
    def _process(self, value):
        acc = value
        for k in range({spin}):
            acc = (acc * {mul} + {inc} + k) % 2147483648
        return acc

class Emit{tag}(IterativePE):
    """Print the scrambled number and pass on its last three digits."""
    def _process(self, value):
        print("item", value)
        return value % 1000

graph = WorkflowGraph()
source, mix, emit = Source{tag}("Source"), Mix{tag}("Mix"), Emit{tag}("Emit")
graph.connect(source, "output", mix, "input")
graph.connect(mix, "output", emit, "input")
'''


def chain_reference(items: int, spin: int, mul: int, inc: int):
    """What the chain must print and output, computed without the engine."""
    lines, outputs = [], []
    for value in range(1, items + 1):
        acc = value
        for k in range(spin):
            acc = (acc * mul + inc + k) % 2147483648
        lines.append(f"item {acc}")
        outputs.append(acc % 1000)
    return lines, outputs


def _chain(rng: random.Random, spin_lo: int, spin_hi: int, tag: str) -> dict:
    """One chain workflow; ``tag`` keeps its PE class names (registered as
    the tenant's rows alongside the workflow) distinct between tenants.
    The spin range is narrow so every seed asks for the same amount of work."""
    params = {
        "tag": tag,
        "spin": rng.randrange(spin_lo, spin_hi),
        "mul": rng.randrange(1_000_001, 2_000_000, 2),
        "inc": rng.randrange(1, 100_000),
    }
    return {"code": CHAIN_WF.format(**params), **params}


# -- plans ------------------------------------------------------------------------


@dataclass
class Plan:
    workload: str
    mode: str  # "single" | "cluster"
    tenants: list[dict]  # {name, password, pes: [{name, code, family}], workflows: [...]}
    streams: list[list[dict]]  # one op stream per connection; connection i is tenant i
    cycle: int = 1  # ops per repetition of the stream's pattern
    waves: bool = False  # ops are job waves, started on all connections at once
    digest: str = ""
    families: dict[str, str] = field(default_factory=dict)  # PE name -> family


def _tenants(count: int, per_tenant: int, rng: random.Random, tag: str) -> list[dict]:
    corpus = generate_corpus(count * per_tenant) if per_tenant else []
    rng.shuffle(corpus)
    tenants = []
    for t in range(count):
        rows = corpus[t * per_tenant : (t + 1) * per_tenant]
        tenants.append(
            {
                "name": f"tenant{t}-{tag}",
                "password": f"pw-{tag}-{t}",
                "pes": [
                    {"name": it.pe_name, "code": it.pe_source, "family": it.family}
                    for it in rows
                ],
                "workflows": [],
            }
        )
    return tenants


_FAMILY = {family.key: family for family in FAMILIES}


def _queries(tenant: dict, rng: random.Random) -> list[dict]:
    """Two phrasings per family the tenant holds: the corpus query, and the
    query extended by a word of the family's description."""
    ops = []
    for key in sorted({pe["family"] for pe in tenant["pes"]}):
        family = _FAMILY[key]
        extra = rng.choice(family.description.rstrip(".").split())
        for query in (family.query, f"{family.query} {extra.lower()}"):
            ops.append({"kind": "search", "query": query, "family": key})
    return ops


def _snippet_op(pe: dict) -> dict:
    # Fig 12's partial-code scenario: the trailing half of the lines dropped.
    return {
        "kind": "recommend",
        "snippet": drop_suffix(pe["code"], 0.5),
        "family": pe["family"],
    }


def _reader_cycle(rng: random.Random, queries: list[dict], others: list[dict], terms: list[str]):
    """One 10-op read cycle: 6 searches, 3 ``others``, 1 literal, in an order
    drawn afresh — two connections repeating one fixed pattern lock phase,
    and the phase they settle in decides a run's p50."""
    cycle = [rng.choice(queries) for _ in range(6)]
    cycle += [rng.choice(others) for _ in range(3)]
    cycle.append({"kind": "literal", "term": rng.choice(terms)})
    rng.shuffle(cycle)
    return cycle


def _literal_terms(tenant: dict) -> list[str]:
    return sorted({pe["name"].split("PE_")[0][:5].lower() for pe in tenant["pes"]})


def _plan_search_read(plan: Plan, rng: random.Random, scale: Scale) -> None:
    for tenant in plan.tenants[:2]:
        queries = _queries(tenant, rng)
        snippets = [
            _snippet_op(pe) for pe in rng.sample(tenant["pes"], scale.snippets_per_tenant)
        ]
        terms = _literal_terms(tenant)
        stream = []
        for _ in range(scale.cycles):
            stream += _reader_cycle(rng, queries, snippets, terms)
        plan.streams.append(stream)


def _plan_registry_churn(plan: Plan, rng: random.Random, scale: Scale) -> None:
    """Connection 0 writes and recommends; connection 1 only searches.

    The issue had both connections run the write cycle.  Two threads
    inside ``code_recommendation`` expose a race at the seed commit — a
    rebuild that overlaps another connection's write is cached under the
    newer revision, so later recommendations skip their rebuild and can
    return a removed row — which made both the answers and the amount of
    work differ from run to run.  With one writer every recommendation
    rebuilds exactly once.
    """
    writer, reader = plan.tenants[:2]
    queries: dict[str, list[dict]] = {}
    for op in _queries(writer, rng):
        queries.setdefault(op["family"], []).append(op)
    stream = []
    for i in range(scale.cycles):
        # One family per cycle: the row added, the snippet and the queries
        # all belong to it, so the transient row can only replace a top-1
        # hit by another row of the same family.
        template = rng.choice(writer["pes"])
        family = template["family"]
        name = f"Churn{i:05d}PE"
        plan.families[name] = family
        description = f"{_FAMILY[family].description} Revision {i}."
        recommend = _snippet_op(template)
        steps = [
            [{"kind": "register", "name": name, "code": template["code"]}, recommend],
            [{"kind": "update", "name": name, "description": description}, recommend],
            [{"kind": "get", "name": name, "description": description, "code": template["code"]}],
        ]
        for _ in range(4):  # the 4 searches, dealt at random into the gaps
            rng.choice(steps).append(rng.choice(queries[family]))
        for step in steps:
            stream += step
        stream.append({"kind": "remove", "name": name})
    plan.streams.append(stream)

    reads = _queries(reader, rng)
    terms = _literal_terms(reader)
    stream = []
    for _ in range(scale.cycles):
        stream += _reader_cycle(rng, reads, reads, terms)
    plan.streams.append(stream)


def _plan_stream_run(plan: Plan, rng: random.Random, scale: Scale) -> None:
    for c, tenant in enumerate(plan.tenants):
        for w in range(scale.stream_workflows // len(plan.tenants)):
            tenant["workflows"].append(
                {"name": f"chain-{c}-{w}-{tenant['name']}", **_chain(rng, 190, 210, f"T{c}")}
            )
        stream = []
        for _ in range(scale.cycles):
            cycle = ["run"] * 4 + ["run_dynamic"]  # every 5th op, at a drawn position
            rng.shuffle(cycle)
            for kind in cycle:
                stream.append({"kind": kind, "workflow": rng.randrange(len(tenant["workflows"]))})
        plan.streams.append(stream)


def _plan_cluster_jobs(plan: Plan, rng: random.Random, scale: Scale) -> None:
    # Jobs run where their workflow's name hashes.  Names are drawn until
    # every shard is primary for the same number per tenant: with a free
    # draw the seed would decide the skew, and with it the turnaround.
    ring = HashRing([f"s{i}" for i in range(CLUSTER_SHARDS)])
    share = scale.cluster_workflows // CLUSTER_SHARDS
    for c, tenant in enumerate(plan.tenants):
        placed: dict[str, int] = defaultdict(int)
        for candidate in itertools.count():
            name = f"job-{c}-{candidate}-{tenant['name']}"
            shard = ring.owner(f"workflow:{name}")
            if placed[shard] < share:
                placed[shard] += 1
                tenant["workflows"].append({"name": name, **_chain(rng, 1900, 2100, f"T{c}")})
            if len(tenant["workflows"]) == share * CLUSTER_SHARDS:
                break
        queries = _queries(tenant, rng)
        stream = []
        for _ in range(scale.cycles):
            stream.append(
                {
                    "kind": "wave",
                    "jobs": list(range(len(tenant["workflows"]))),
                    "reads": [
                        read
                        for _ in range(WAVE_READS)
                        for read in (
                            rng.choice(queries),
                            {"kind": "get", "name": rng.choice(tenant["pes"])["name"]},
                        )
                    ],
                }
            )
        plan.streams.append(stream)


def build_plan(workload: str, seed: int, scale: Scale) -> Plan:
    """Every input of one run, derived from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")
    tag = f"{seed:x}"
    if workload in ("search_read", "registry_churn"):
        plan = Plan(
            workload, "single", _tenants(scale.tenants, scale.pes_per_tenant, rng, tag), [], cycle=10
        )
        (_plan_search_read if workload == "search_read" else _plan_registry_churn)(plan, rng, scale)
    elif workload == "stream_run":
        plan = Plan(workload, "single", _tenants(2, 0, rng, tag), [], cycle=5)
        _plan_stream_run(plan, rng, scale)
    elif workload == "cluster_jobs":
        plan = Plan(
            workload,
            "cluster",
            _tenants(scale.cluster_tenants, scale.cluster_pes_per_tenant, rng, tag),
            [],
            waves=True,
        )
        _plan_cluster_jobs(plan, rng, scale)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for tenant in plan.tenants:
        for pe in tenant["pes"]:
            plan.families[pe["name"]] = pe["family"]
    names = [pe["name"] for tenant in plan.tenants for pe in tenant["pes"]]
    if len(names) != len(set(names)):
        raise RuntimeError("corpus produced duplicate PE names")
    plan.digest = hashlib.sha256(
        json.dumps({"tenants": plan.tenants, "streams": plan.streams}, sort_keys=True).encode()
    ).hexdigest()
    return plan


# -- sessions ---------------------------------------------------------------------


@dataclass
class Sample:
    cls: str  # op class: search, recommend, register, run_total, job_turnaround, ...
    start: float
    end: float
    ok: bool
    counted: bool = True  # False for sub-timings of an op (first streamed line)


class Session:
    """One closed-loop connection: a client logged in as one tenant."""

    def __init__(self, plan: Plan, index: int, client, transports: list) -> None:
        self.plan = plan
        self.tenant = plan.tenants[index]
        self.stream = plan.streams[index]
        self.client = client
        self.transports = transports  # public retry/reconnect counters live here
        self.owned = {pe["name"] for pe in self.tenant["pes"]}
        for workflow in self.tenant["workflows"]:  # their PEs are the tenant's rows too
            self.owned |= {stage + workflow["tag"] for stage in ("Source", "Mix", "Emit")}
        self.references = [
            chain_reference(
                JOB_ITEMS if plan.mode == "cluster" else RUN_ITEMS,
                wf["spin"], wf["mul"], wf["inc"],
            )
            for wf in self.tenant["workflows"]
        ]
        #: Filled by :meth:`verify`: which search/recommend inputs return
        #: their ground-truth family at top-1, and each literal term's count.
        self.top1: dict[str, bool] = {}
        self.literal_counts: dict[str, int] = {}
        self.failures: list[str] = []
        self.retried = 0  # reads answered 5xx once and repeated (see execute)
        self.span = lambda name: contextlib.nullcontext()  # the tracer's, when replaying
        self.job_facts: list[dict] = []  # queue/run seconds, shard and polls per job

    def close(self) -> None:
        self.client.close()

    # -- checks ---------------------------------------------------------------

    def _fail(self, op: dict, why: str) -> bool:
        if len(self.failures) < 5:
            self.failures.append(f"{op['kind']}: {why}")
        return False

    def _check_ranked(self, op: dict, rows, key: str, score: str, learn: bool) -> bool:
        if not isinstance(rows, list) or not 1 <= len(rows) <= TOP_K:
            return self._fail(op, f"expected 1..{TOP_K} rows, got {rows!r:.80}")
        names = [row.get("peName") for row in rows]
        if any(name not in self.owned for name in names):
            return self._fail(op, f"row not owned by {self.tenant['name']}: {names}")
        scores = [row[score] for row in rows]
        if scores != sorted(scores, reverse=True):
            return self._fail(op, f"scores not ranked: {scores}")
        hit = self.plan.families.get(names[0]) == op["family"]
        if learn:
            self.top1[key] = hit
        elif self.top1.get(key) and not hit:
            return self._fail(op, f"top-1 {names[0]} left family {op['family']}")
        return True

    # -- ops ------------------------------------------------------------------

    def execute(self, op: dict, learn: bool = False) -> list[Sample]:
        """Run one op; ``learn`` records reference answers instead of
        comparing against them (the verification pass)."""
        kind = op["kind"]
        if kind == "wave":
            return self._wave(op, learn)
        start = perf_counter()
        first_line: list[float] = []
        perform = getattr(self, "_op_" + kind)
        try:
            try:
                ok = perform(op, learn, first_line)
            except ClientError as exc:
                # Known race, recorded not fixed: the semantic index is
                # mutated without a lock, so a search that overlaps another
                # connection's write can answer 500.  A read is repeated
                # once, as an SDK caller would, and counted.
                if exc.status < 500 or kind not in _READS:
                    raise
                self.retried += 1
                ok = perform(op, learn, first_line)
        except (ClientError, OSError) as exc:
            ok = self._fail(op, f"{type(exc).__name__}: {exc}")
        end = perf_counter()
        cls = "run_total" if kind == "run" else kind
        samples = [Sample(cls, start, end, ok)]
        if first_line:
            samples.append(Sample("run_first_line", start, first_line[0], ok, counted=False))
        return samples

    def _op_search(self, op, learn, _):
        rows = self.client.search_Registry_Semantic(op["query"], top_k=TOP_K)
        return self._check_ranked(op, rows, "s:" + op["query"], "cosine_similarity", learn)

    def _op_recommend(self, op, learn, _):
        rows = self.client.code_Recommendation(op["snippet"], top_k=TOP_K)
        return self._check_ranked(op, rows, "r:" + op["snippet"], "score", learn)

    def _op_literal(self, op, learn, _):
        body = self.client.search_Registry_Literal(op["term"], kind="pe")
        rows = body.get("pes") if isinstance(body, dict) else None
        if not rows:
            return self._fail(op, f"no rows for {op['term']!r}")
        term = op["term"].lower()
        for row in rows:
            if row["peName"] not in self.owned:
                return self._fail(op, f"row {row['peName']} not owned")
            if term not in (row["peName"] + row["description"]).lower():
                return self._fail(op, f"row {row['peName']} lacks {term!r}")
        if learn:
            self.literal_counts[term] = len(rows)
        elif self.literal_counts.get(term, len(rows)) != len(rows):
            return self._fail(op, f"{len(rows)} rows, expected {self.literal_counts[term]}")
        return True

    def _op_register(self, op, learn, _):
        body = self.client.register_PE(op["code"], name=op["name"])
        self.owned.add(op["name"])
        if body.get("peName") != op["name"] or not body.get("description"):
            return self._fail(op, f"bad register reply {body!r:.120}")
        return True

    def _op_update(self, op, learn, _):
        body = self.client.update_PE_Description(op["name"], op["description"])
        if body.get("description") != op["description"]:
            return self._fail(op, f"description not stored: {body!r:.120}")
        return True

    def _op_get(self, op, learn, _):
        body = self.client.get_PE(op["name"])
        if body.get("peName") != op["name"]:
            return self._fail(op, f"wrong row {body.get('peName')!r}")
        if "description" in op and (
            body.get("description") != op["description"]
            or body.get("peCode", "").strip() != op["code"].strip()
        ):
            return self._fail(op, "stored description or code differs")
        return True

    def _op_remove(self, op, learn, _):
        body = self.client.remove_PE(op["name"])
        self.owned.discard(op["name"])
        if body.get("removed") != op["name"]:
            return self._fail(op, f"bad remove reply {body!r:.120}")
        return True

    def _op_run(self, op, learn, first_line):
        workflow = self.tenant["workflows"][op["workflow"]]
        lines, outputs = self.references[op["workflow"]]

        def on_line(_line):
            if not first_line:
                first_line.append(perf_counter())

        summary = self.client.run(workflow["name"], input=RUN_ITEMS, on_line=on_line)
        if not summary.ok:
            return self._fail(op, f"run failed: {summary.error}")
        if summary.lines != lines:
            return self._fail(op, f"{len(summary.lines)} lines, expected {len(lines)} exact")
        if summary.outputs.get("Emit.output") != outputs:
            return self._fail(op, "outputs differ from the reference")
        return True

    def _op_run_dynamic(self, op, learn, _):
        workflow = self.tenant["workflows"][op["workflow"]]
        _, outputs = self.references[op["workflow"]]
        summary = self.client.run_dynamic(workflow["name"], input=RUN_ITEMS)
        got = summary.outputs.get("Emit.output") or []
        # Known gap: through `run`, a non-simple mapping streams 0 lines (PE
        # prints reach the server's stdout), so only outputs are checked;
        # the dynamic mapping does not order them.
        if not summary.ok or sorted(got) != sorted(outputs):
            return self._fail(op, f"dynamic outputs differ ({summary.error})")
        return True

    def _wave(self, op: dict, learn: bool) -> list[Sample]:
        samples: list[Sample] = []
        client = self.client
        pending: dict = {}
        for index in op["jobs"]:
            start = perf_counter()
            try:
                body = client.submit_Job(self.tenant["workflows"][index]["name"], input=JOB_ITEMS)
                pending[body["jobId"]] = (index, start, body.get("shard"))
            except (ClientError, OSError) as exc:
                self._fail(op, f"submit: {exc}")
                samples.append(Sample("job_turnaround", start, perf_counter(), False))
        deadline = perf_counter() + WAVE_TIMEOUT
        polls = dict.fromkeys(pending, 0)
        while pending:
            for job_id in list(pending):
                index, start, shard = pending[job_id]
                try:
                    polls[job_id] += 1
                    if client.job_Status(job_id)["state"] not in _TERMINAL:
                        continue
                    result = client.job_Result(job_id)
                except (ClientError, OSError) as exc:
                    result = {"state": f"{type(exc).__name__}: {exc}"}
                end = perf_counter()
                del pending[job_id]
                outputs = ((result.get("result") or {}).get("outputs") or {}).get("Emit.output")
                ok = result["state"] == "SUCCEEDED" and outputs == self.references[index][1]
                if not ok:
                    self._fail(op, f"job {job_id} ended {result['state']} or wrong output")
                samples.append(Sample("job_turnaround", start, end, ok))
                self.job_facts.append(
                    {
                        "queue": result.get("queueSeconds", 0.0),
                        "run": result.get("runSeconds", 0.0),
                        "shard": shard,
                        "polls": polls[job_id],
                    }
                )
            if pending:
                if perf_counter() > deadline:
                    for index, start, _ in pending.values():
                        self._fail(op, "job not terminal within the wave timeout")
                        samples.append(Sample("job_turnaround", start, perf_counter(), False))
                    break
                with self.span("jobs.poll_wait"):
                    time.sleep(POLL_INTERVAL)
        for read in op["reads"]:
            samples += self.execute(read, learn)
        return samples

    # -- warm-up --------------------------------------------------------------

    def prime(self) -> None:
        """Force the lazy set-up (index and Aroma builds, first enactment)
        with one whole cycle of the stream; part of ``setup_s``."""
        for op in self.stream[: self.plan.cycle]:
            self.execute(op, learn=True)

    def verify(self) -> float:
        """Warm every distinct read once and learn its reference answer;
        returns the share of search/recommend inputs whose top-1 is the
        ground-truth family (later ops must not fall below their own)."""
        seen = set()
        for op in self.stream:
            for candidate in op.get("reads", (op,)):
                if candidate["kind"] in ("search", "recommend", "literal"):
                    key = json.dumps(candidate, sort_keys=True)
                    if key not in seen:
                        seen.add(key)
                        self.execute(candidate, learn=True)
        for index in range(len(self.tenant["workflows"])):
            if self.plan.mode == "single":
                self.execute({"kind": "run", "workflow": index})
                self.execute({"kind": "run_dynamic", "workflow": index})
        if self.plan.mode == "cluster":
            self.execute(self.stream[0], learn=True)
        self.job_facts.clear()
        if self.failures:
            raise RuntimeError(f"warm-up op failed: {self.failures}")
        return sum(self.top1.values()) / len(self.top1) if self.top1 else 1.0


# -- loading a plan into a running system --------------------------------------------


def _connect(plan: Plan, handshake: dict, tenant: dict):
    transports: list[TcpClientTransport] = []

    def factory(host: str, port: int) -> LaminarClient:
        transports.append(TcpClientTransport(host, port, timeout=60.0))
        return LaminarClient(transport=transports[-1])

    if plan.mode == "cluster":
        client = ShardedClient(
            ClusterConfig.from_dict(handshake["cluster"]), client_factory=factory
        )
    else:
        client = factory(handshake["host"], handshake["port"])
    client.register(tenant["name"], tenant["password"])
    client.login(tenant["name"], tenant["password"])
    return client, transports


def populate(plan: Plan, handshake: dict) -> list[Session]:
    """Register every tenant's rows; one primed session per op stream."""
    sessions: list[Session] = []
    try:
        for index, tenant in enumerate(plan.tenants):
            client, transports = _connect(plan, handshake, tenant)
            if index < len(plan.streams):
                sessions.append(Session(plan, index, client, transports))
            try:
                for pe in tenant["pes"]:
                    client.register_PE(pe["code"], name=pe["name"])
                for workflow in tenant["workflows"]:
                    client.register_Workflow(workflow["code"], name=workflow["name"])
            finally:
                if index >= len(plan.streams):
                    client.close()  # a tenant whose rows are only the others' noise
        for session in sessions:
            session.prime()
    except BaseException:
        for session in sessions:
            session.close()
        raise
    return sessions
