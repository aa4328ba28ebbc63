"""Tests for the Laminar CLI (paper Fig 5 flows)."""

import io

import pytest

from repro.laminar import LaminarClient
from repro.laminar.client.cli import LaminarCLI

ISPRIME_WF = '''
import random

class NumberProducer(ProducerPE):
    def _process(self, inputs):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    """Checks whether a given number is prime and returns the number."""
    def _process(self, num):
        if num > 1 and all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def _process(self, num):
        print(f"the num {num} is prime")

producer = NumberProducer("NumberProducer")
isprime = IsPrime("IsPrime")
printer = PrintPrime("PrintPrime")
graph = WorkflowGraph()
graph.connect(producer, "output", isprime, "input")
graph.connect(isprime, "output", printer, "input")
'''

#: Documented commands from the paper's CLI help screen (Fig 5a).
PAPER_COMMANDS = [
    "code_recommendation",
    "describe",
    "help",
    "list",
    "literal_search",
    "quit",
    "register_pe",
    "register_workflow",
    "remove_all",
    "remove_pe",
    "remove_workflow",
    "run",
    "semantic_search",
    "update_pe_description",
    "update_workflow_description",
]


@pytest.fixture()
def cli(tmp_path):
    wf_file = tmp_path / "isprime_wf.py"
    wf_file.write_text(ISPRIME_WF)
    out = io.StringIO()
    shell = LaminarCLI(LaminarClient(), stdout=out)
    return shell, out, wf_file


def run_cmd(shell, out, line):
    out.truncate(0)
    out.seek(0)
    shell.onecmd(line)
    return out.getvalue()


def test_all_paper_commands_exist(cli):
    shell, _, _ = cli
    for command in PAPER_COMMANDS:
        if command in ("help", "quit"):
            continue
        assert hasattr(shell, f"do_{command}"), f"missing CLI command {command}"
    assert hasattr(shell, "do_quit")


def test_register_workflow_output_matches_fig5a(cli):
    shell, out, wf_file = cli
    text = run_cmd(shell, out, f"register_workflow {wf_file}")
    assert "Found PEs" in text
    assert "• IsPrime - type" in text
    assert "• NumberProducer - type" in text
    assert "Found workflows" in text
    assert "• isprime_wf - Workflow" in text


def test_register_pe(cli, tmp_path):
    shell, out, _ = cli
    pe_file = tmp_path / "pe.py"
    pe_file.write_text(
        "class Doubler(IterativePE):\n    def _process(self, x):\n        return x * 2\n"
    )
    text = run_cmd(shell, out, f"register_pe {pe_file}")
    assert "Doubler" in text


def test_list(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "list")
    assert "IsPrime" in text and "isprime_wf" in text


def test_run_with_multi_verbose_like_fig5b(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    wf_id = shell.client.get_Workflow("isprime_wf")["workflowId"]
    text = run_cmd(shell, out, f"run {wf_id} -i 10 --multi -v")
    assert "Processed" in text  # the Fig 5b iteration lines
    assert "NumberProducer" in text


def test_run_sequential_streams_output(cli):
    """A sequential run streams a line for exactly the primes its producer
    drew.  The workflow's ``random`` is this process's module, so seeding
    it makes the 30 draws known."""
    import random

    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    expected_rng = random.Random(42)
    draws = [expected_rng.randint(1, 1000) for _ in range(30)]
    primes = {n for n in draws if n > 1 and all(n % i != 0 for i in range(2, n))}
    assert primes  # the seed must draw at least one prime
    state = random.getstate()
    random.seed(42)
    try:
        text = run_cmd(shell, out, "run isprime_wf -i 30")
    finally:
        random.setstate(state)
    printed = {line.strip() for line in text.splitlines() if "is prime" in line}
    assert printed == {f"the num {n} is prime" for n in primes}


def test_run_dynamic(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "run isprime_wf -i 5 --dynamic")
    # dynamic run completes without error output
    assert "error" not in text.lower() or "is prime" in text


def test_literal_search(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "literal_search prime")
    assert "IsPrime" in text


def test_semantic_search_fig8(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, 'semantic_search pe "checks if a number is prime"')
    assert "cosine_similarity" in text
    assert "IsPrime" in text


def test_code_recommendation_fig9(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, 'code_recommendation pe "random.randint(1, 1000)"')
    assert "NumberProducer" in text
    wf_text = run_cmd(
        shell, out, 'code_recommendation workflow "random.randint(1, 1000)"'
    )
    assert "isprime_wf" in wf_text


def test_code_recommendation_llm_flag(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(
        shell,
        out,
        'code_recommendation pe "class IsPrime(IterativePE): pass" --embedding_type llm',
    )
    assert "error" not in text.lower()


def test_describe(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "describe pe IsPrime")
    assert "class IsPrime" in text


def test_update_descriptions(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "update_pe_description IsPrime checks primality quickly")
    assert "checks primality quickly" in text
    text = run_cmd(
        shell, out, "update_workflow_description isprime_wf a prime pipeline"
    )
    assert "a prime pipeline" in text


def test_remove_commands(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "remove_pe PrintPrime")
    assert "removed PE PrintPrime" in text
    text = run_cmd(shell, out, "remove_workflow isprime_wf")
    assert "removed workflow isprime_wf" in text
    text = run_cmd(shell, out, "remove_all")
    assert "removed" in text


def test_errors_are_reported_not_raised(cli):
    shell, out, _ = cli
    text = run_cmd(shell, out, "describe pe NoSuchPE")
    assert "error" in text.lower()
    text = run_cmd(shell, out, "register_pe /no/such/file.py")
    assert "error" in text.lower()


def test_quit_returns_true(cli):
    shell, _, _ = cli
    assert shell.do_quit("") is True


def test_usage_hints(cli):
    shell, out, _ = cli
    assert "usage" in run_cmd(shell, out, "register_pe")
    assert "usage" in run_cmd(shell, out, "semantic_search")
    assert "usage" in run_cmd(shell, out, "update_pe_description onlyid")


def test_show_renders_graph(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "show isprime_wf")
    assert "NumberProducer" in text and "IsPrime" in text
    assert "PEs" in text


def test_show_usage(cli):
    shell, out, _ = cli
    assert "usage" in run_cmd(shell, out, "show")


def test_cli_main_connect_over_tcp():
    """The `laminar --connect host:port` entry point end to end."""
    import subprocess
    import sys

    from repro.laminar.server.app import LaminarServer
    from repro.laminar.transport.tcp import TcpServerTransport

    server = LaminarServer()
    server.registry.register_pe(
        server.auth.resolve(None),
        "class Remote(IterativePE):\n    def _process(self, x):\n        return x\n",
    )
    transport = TcpServerTransport(server).start()
    host, port = transport.address
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.laminar.client.cli", "--connect", f"{host}:{port}"],
            input="list\nquit\n",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        assert "Remote" in proc.stdout
    finally:
        transport.stop()


def test_cli_stats(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "stats")
    assert "register_workflow" in text
    assert "uptime" in text


def test_cli_index_stats_shows_the_structural_index(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(shell, out, "index stats")
    assert "pe spt         3 items  builds   1  synced" in text
    assert "workflow" in text and "stale" not in text


def test_cli_job_commands(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    job_id = run_cmd(shell, out, "submit isprime_wf -i 3 --wait").split()[1]
    assert f"job {job_id} SUCCEEDED" in run_cmd(shell, out, f"status {job_id}")
    assert f"job {job_id} SUCCEEDED after" in run_cmd(shell, out, f"result {job_id}")


def test_cli_job_and_stats_commands_on_a_cluster():
    """Under ``--cluster``, ``submit`` prints shard-qualified job ids that
    status/result/cancel take as given, and ``stats`` shows each shard."""
    from repro.laminar.cluster import ClusterSupervisor, ShardedClient

    with ClusterSupervisor(shards=2, replication=1, health_interval=0.0) as sup:
        client = ShardedClient(sup.config)
        out = io.StringIO()
        shell = LaminarCLI(client, stdout=out)
        try:
            client.register_Workflow(ISPRIME_WF, name="isprime_wf")
            job_id = run_cmd(shell, out, "submit isprime_wf -i 3 --wait").split()[1]
            assert job_id.split(":")[0] in sup.config.shard_ids
            assert f"job {job_id} SUCCEEDED" in run_cmd(shell, out, f"status {job_id}")
            result = run_cmd(shell, out, f"result {job_id}")
            assert f"job {job_id} SUCCEEDED after" in result
            assert "[409]" in run_cmd(shell, out, f"cancel {job_id}")
            stats = run_cmd(shell, out, "stats")
            for shard_id in sup.config.shard_ids:
                assert f"shard {shard_id}: uptime" in stats
        finally:
            client.close()


def test_cli_export_import_roundtrip(cli, tmp_path):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    dump_file = tmp_path / "registry.json"
    text = run_cmd(shell, out, f"export {dump_file}")
    assert "exported 3 PEs and 1 workflows" in text

    fresh = LaminarCLI(LaminarClient(), stdout=out)
    text = run_cmd(fresh, out, f"import {dump_file}")
    assert "imported 3 PEs and 1 workflows" in text
    text = run_cmd(fresh, out, "list")
    assert "isprime_wf" in text


def test_cli_export_usage(cli):
    shell, out, _ = cli
    assert "usage" in run_cmd(shell, out, "export")
    assert "usage" in run_cmd(shell, out, "import")


def test_cli_main_embedded_server():
    """`laminar` with no flags embeds a server and serves a session."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.laminar.client.cli"],
        input="list\nquit\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Welcome to the Laminar CLI" in proc.stdout
    assert "Processing elements:" in proc.stdout


def test_cli_code_completion(cli):
    shell, out, wf_file = cli
    run_cmd(shell, out, f"register_workflow {wf_file}")
    text = run_cmd(
        shell, out, 'code_completion "class IsPrime(IterativePE):"'
    )
    assert "from IsPrime" in text
    assert "return num" in text


def test_cli_code_completion_usage(cli):
    shell, out, _ = cli
    assert "usage" in run_cmd(shell, out, "code_completion")
