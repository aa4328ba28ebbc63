"""Tests for the registry database, schema and repositories."""

import pytest

from repro.laminar.registry import RegistryDatabase, schema_summary
from repro.laminar.server.dataaccess import (
    ExecutionRepository,
    PERepository,
    ResponseRepository,
    UserRepository,
    WorkflowRepository,
)
from repro.laminar.server.models import KINDS
from repro.laminar.server.services import MAX_LITERAL_TERM


@pytest.fixture()
def db():
    database = RegistryDatabase()
    yield database
    database.close()


@pytest.fixture(params=list(KINDS))
def kind(request):
    return KINDS[request.param]


@pytest.fixture()
def repos(db):
    return {
        "users": UserRepository(db),
        "pes": PERepository(db),
        "workflows": WorkflowRepository(db),
        "executions": ExecutionRepository(db),
        "responses": ResponseRepository(db),
    }


def test_schema_has_table2_entities(db):
    assert {
        "User",
        "Workflow",
        "ProcessingElement",
        "Execution",
        "Response",
        "WorkflowPE",
    } <= db.table_names()


def test_schema_has_indexes(db):
    names = db.index_names()
    assert "idx_pe_name" in names
    assert "idx_wf_name" in names


def test_clob_columns_present(db):
    assert "peCode" in db.columns("ProcessingElement")
    assert "sptEmbedding" in db.columns("ProcessingElement")
    assert "descEmbedding" in db.columns("Workflow")


def test_schema_summary_matches_table2():
    # Table II's five entities, plus the Job table the async-run subsystem
    # adds and the ApiKey table backing long-lived credentials.
    tables = {row["table"] for row in schema_summary()}
    assert tables == {
        "User",
        "ApiKey",
        "Workflow",
        "ProcessingElement",
        "Execution",
        "Response",
        "Job",
    }


def test_user_roundtrip(repos):
    user = repos["users"].create("alice", "hash")
    assert repos["users"].get(user.userId).userName == "alice"
    assert repos["users"].by_name("alice").userId == user.userId
    assert repos["users"].by_name("bob") is None


def test_user_name_unique(repos):
    repos["users"].create("alice", "h")
    with pytest.raises(Exception):
        repos["users"].create("alice", "h2")


def _pe(repos, name="IsPrime"):
    return _row(repos, KINDS["pe"], name)


def _row(repos, kind, name="IsPrime", owner="u"):
    user = repos["users"].by_name(owner) or repos["users"].create(owner, "h")
    return repos[kind.plural].create(
        user_id=user.userId,
        name=name,
        code=f"class {name}(IterativePE): pass",
        description=f"The {name} PE.",
        desc_embedding="[0.1, 0.2]",
        spt_embedding='{"f": 1}',
    )


def test_pe_roundtrip(repos):
    pe = _pe(repos)
    fetched = repos["pes"].get(pe.peId)
    assert fetched.peName == "IsPrime"
    assert fetched.desc_vector() == [0.1, 0.2]
    assert fetched.spt_features() == {"f": 1}


def test_by_name_returns_newest_of_owner(repos, kind):
    repo = repos[kind.plural]
    _row(repos, kind, "Dup", owner="alice")
    alices = _row(repos, kind, "Dup", owner="alice")
    bobs = _row(repos, kind, "Dup", owner="bob")
    assert kind.ident(repo.by_name("Dup")) == kind.ident(bobs)  # unscoped: newest of all
    assert kind.ident(repo.by_name("Dup", alices.userId)) == kind.ident(alices)
    assert kind.ident(repo.by_name("Dup", bobs.userId)) == kind.ident(bobs)
    assert repo.by_name("Other", alices.userId) is None


def test_update_description(repos, kind):
    repo = repos[kind.plural]
    row = _row(repos, kind)
    assert repo.update_description(kind.ident(row), "new desc", "[1.0]") is True
    assert repo.get(kind.ident(row)).description == "new desc"
    assert repo.update_description(kind.ident(row) + 1, "new desc", "[1.0]") is False


def test_delete(repos, kind):
    repo = repos[kind.plural]
    row = _row(repos, kind)
    assert repo.delete(kind.ident(row)) is True
    assert repo.get(kind.ident(row)) is None
    assert repo.delete(kind.ident(row)) is False


def test_delete_all(repos, kind):
    _row(repos, kind, "A")
    _row(repos, kind, "B")
    assert repos[kind.plural].delete_all() == 2
    assert repos[kind.plural].all() == []


def test_literal_search_matches_name_and_description(repos, kind):
    repo = repos[kind.plural]
    _row(repos, kind, "WordCounter")
    _row(repos, kind, "Sorter")
    hits = repo.literal_search("word")
    assert [kind.name(h) for h in hits] == ["WordCounter"]
    hits = repo.literal_search("PE.")  # in every description
    assert len(hits) == 2


def test_literal_search_has_no_wildcards(repos, kind):
    """``%``, ``_`` and ``\\`` match themselves: a plain substring match
    (§V-A), case-insensitive under Unicode case folding (SQLite's LIKE
    folds ASCII only)."""
    repo = repos[kind.plural]
    for name in ("Foo", "snake_case", "done100%", "back\\slash", "Détecte", "Straße"):
        _row(repos, kind, name)
    cases = {
        "_": ["snake_case"],
        "F_o": [],
        "e_c": ["snake_case"],
        "%": ["done100%"],
        "0%": ["done100%"],
        "\\": ["back\\slash"],
        "k\\s": ["back\\slash"],
        "foo": ["Foo"],
        "DÉTECTE": ["Détecte"],
        "DÉTECTE PE.": ["Détecte"],  # in the description only
        "STRASSE": ["Straße"],
    }
    for term, expected in cases.items():
        assert [kind.name(h) for h in repo.literal_search(term)] == expected, term
    # The longest accepted term is an ordinary miss, whatever its characters.
    for char in ("\U0001F600", "%"):
        assert repo.literal_search(char * MAX_LITERAL_TERM) == []


def _wf(repos, name="wf1"):
    user = repos["users"].by_name("u") or repos["users"].create("u", "h")
    return repos["workflows"].create(
        user_id=user.userId,
        name=name,
        code="graph = WorkflowGraph()",
        entryPoint="graph",
        description=f"workflow {name}",
        desc_embedding="[]",
        spt_embedding="{}",
    )


def test_workflow_roundtrip(repos):
    wf = _wf(repos)
    assert repos["workflows"].get(wf.workflowId).workflowName == "wf1"
    assert repos["workflows"].by_name("wf1").workflowId == wf.workflowId


def test_workflow_pe_links(repos):
    wf = _wf(repos)
    pe1, pe2 = _pe(repos, "P1"), _pe(repos, "P2")
    repos["workflows"].link_pe(wf.workflowId, pe1.peId)
    repos["workflows"].link_pe(wf.workflowId, pe2.peId)
    repos["workflows"].link_pe(wf.workflowId, pe2.peId)  # idempotent
    names = [pe.peName for pe in repos["workflows"].pes_of(wf.workflowId)]
    assert names == ["P1", "P2"]
    wfs = repos["workflows"].workflows_of_pe(pe1.peId)
    assert [w.workflowName for w in wfs] == ["wf1"]


def test_pe_reusable_across_workflows(repos):
    """Table II: PEs associate with multiple workflows (many-to-many)."""
    wf1, wf2 = _wf(repos, "w1"), _wf(repos, "w2")
    pe = _pe(repos, "Shared")
    repos["workflows"].link_pe(wf1.workflowId, pe.peId)
    repos["workflows"].link_pe(wf2.workflowId, pe.peId)
    assert len(repos["workflows"].workflows_of_pe(pe.peId)) == 2


def test_workflow_delete_cascades_links(repos, db):
    wf = _wf(repos)
    pe = _pe(repos)
    repos["workflows"].link_pe(wf.workflowId, pe.peId)
    repos["workflows"].delete(wf.workflowId)
    assert db.query("SELECT * FROM WorkflowPE") == []
    # the PE itself survives — it is reusable
    assert repos["pes"].get(pe.peId) is not None


def test_execution_lifecycle(repos):
    wf = _wf(repos)
    user = repos["users"].by_name("u")
    execution = repos["executions"].create(wf.workflowId, user.userId, "multi", "5")
    assert execution.status == "running"
    repos["executions"].finish(execution.executionId, "success")
    finished = repos["executions"].get(execution.executionId)
    assert finished.status == "success"
    assert finished.finishedAt is not None
    assert len(repos["executions"].for_workflow(wf.workflowId)) == 1


def test_response_linked_to_execution(repos):
    wf = _wf(repos)
    user = repos["users"].by_name("u")
    execution = repos["executions"].create(wf.workflowId, user.userId, "simple", "1")
    repos["responses"].create(execution.executionId, '{"out": [1]}', "line1\nline2")
    responses = repos["responses"].for_execution(execution.executionId)
    assert len(responses) == 1
    assert "line1" in responses[0].logLines


def test_database_thread_safety():
    import threading

    db = RegistryDatabase()
    users = UserRepository(db)

    def create(i):
        users.create(f"user{i}", "h")

    threads = [threading.Thread(target=create, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(db.query("SELECT * FROM User")) == 16
    db.close()


def test_on_disk_registry_survives_restart(tmp_path):
    """LaminarServer with a file-backed registry keeps content across
    restarts — the persistence story of the MySQL→SQLite substitution."""
    from repro.laminar import LaminarClient
    from repro.laminar.server.app import LaminarServer

    db_file = tmp_path / "registry.db"
    server = LaminarServer(str(db_file))
    client = LaminarClient(server=server)
    client.register_PE(
        'class Durable(IterativePE):\n    """Durable PE."""\n'
        "    def _process(self, x):\n        return x\n"
    )
    server.close()

    reborn = LaminarServer(str(db_file))
    client2 = LaminarClient(server=reborn)
    assert client2.get_PE("Durable")["peName"] == "Durable"
    hits = client2.search_Registry_Semantic("durable")
    assert hits and hits[0]["peName"] == "Durable"
    reborn.close()
