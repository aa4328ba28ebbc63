"""Tests for container management (repro.laminar.deploy)."""

import pytest

from repro.laminar.deploy import ContainerSpec, Orchestrator

WF = """
class Ping(ProducerPE):
    def _process(self, inputs):
        print("pong")
        return 1

p = Ping("Ping")
graph = WorkflowGraph()
graph.add(p)
"""


@pytest.fixture()
def orchestrator():
    with Orchestrator() as orch:
        yield orch


def test_up_and_health(orchestrator):
    container = orchestrator.up(ContainerSpec(name="server"))
    assert container.alive
    assert container.healthy()
    assert container.port > 0


def test_container_serves_full_workflow(orchestrator):
    container = orchestrator.up(ContainerSpec(name="server"))
    client = container.client()
    try:
        client.register_Workflow(WF, name="ping_wf")
        summary = client.run("ping_wf", input=2)
        assert summary.ok
        assert summary.lines == ["pong", "pong"]
    finally:
        client.close()


def test_duplicate_name_rejected(orchestrator):
    orchestrator.up(ContainerSpec(name="server"))
    with pytest.raises(ValueError, match="already running"):
        orchestrator.up(ContainerSpec(name="server"))


def test_scale_to_replicas(orchestrator):
    replicas = orchestrator.scale("engine", 3)
    assert len(replicas) == 3
    assert len({c.port for c in replicas}) == 3
    # idempotent: scaling again reuses the live replicas
    again = orchestrator.scale("engine", 3)
    assert [c.port for c in again] == [c.port for c in replicas]


def test_status_reports_all(orchestrator):
    orchestrator.scale("node", 2)
    status = orchestrator.status()
    assert set(status) == {"node-0", "node-1"}
    assert all(s["alive"] and s["healthy"] for s in status.values())


def test_restart_on_failure(orchestrator):
    container = orchestrator.up(ContainerSpec(name="crashy"))
    container.process.terminate()
    container.process.join(timeout=5)
    assert not container.healthy()
    restarted = orchestrator.ensure_healthy()
    assert restarted == ["crashy"]
    fresh = orchestrator.containers["crashy"]
    assert fresh.healthy()
    assert fresh.restarts == 1


def test_ensure_healthy_noop_when_fine(orchestrator):
    orchestrator.up(ContainerSpec(name="fine"))
    assert orchestrator.ensure_healthy() == []


def test_any_healthy_picks_live_replica(orchestrator):
    orchestrator.scale("web", 2)
    victim = orchestrator.containers["web-0"]
    victim.stop()
    survivor = orchestrator.any_healthy()
    assert survivor.spec.name == "web-1"


def test_any_healthy_raises_when_none(orchestrator):
    with pytest.raises(RuntimeError, match="no healthy"):
        orchestrator.any_healthy()


def test_down_stops_everything(orchestrator):
    containers = orchestrator.scale("svc", 2)
    orchestrator.down()
    assert orchestrator.containers == {}
    assert all(not c.alive for c in containers)


def test_replicas_are_isolated(orchestrator):
    """Each replica owns its registry — registrations do not leak."""
    a, b = orchestrator.scale("iso", 2)
    ca, cb = a.client(), b.client()
    try:
        ca.register_PE(
            "class OnlyInA(IterativePE):\n    def _process(self, x):\n        return x\n"
        )
        assert len(ca.get_Registry()["pes"]) == 1
        assert len(cb.get_Registry()["pes"]) == 0
    finally:
        ca.close()
        cb.close()


def test_standalone_server_module(tmp_path):
    """`python -m repro.laminar.server` serves real clients."""
    import re
    import subprocess
    import sys
    import time

    from repro.laminar import LaminarClient

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.laminar.server", "--db", str(tmp_path / "r.db")],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"unexpected banner: {line!r}"
        host, port = match.group(1), int(match.group(2))
        client = LaminarClient.connect(host, port)
        client.register_PE(
            "class Served(IterativePE):\n    def _process(self, x):\n        return x\n"
        )
        assert client.get_PE("Served")["peName"] == "Served"
        client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_server_imports_only_declared_dependencies():
    """Starting the server loads no third-party package beyond the
    dependencies ``pyproject.toml`` declares: the request path needs no
    sparse-matrix library, and each unused package costs every server
    process its import time and resident memory."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.laminar.server.app\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    stdlib = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
    loaded = {
        m for m in json.loads(proc.stdout) if m not in stdlib and not m.startswith("__")
    }
    assert loaded <= {"repro", "numpy", "networkx"}, sorted(loaded)
