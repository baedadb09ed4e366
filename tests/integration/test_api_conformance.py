"""One API, three transports.

``repro.connect`` returns a local Session (bare name), a durable local
Session (``file:DIR``) or a RemoteSession (``tcp://``); all three must
present the same Session/PreparedStatement/Result surface with the same
semantics.  Every test here runs against all three.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.database import TemporalDatabase
from repro.errors import (
    ExecutionError,
    TQuelSemanticError,
    TQuelSyntaxError,
    UnknownRelationError,
)
from repro.server import ServerThread
from repro.storage.iostats import IODelta

BACKINGS = ["local", "file", "remote"]


@pytest.fixture(params=BACKINGS)
def backing(request):
    return request.param


@pytest.fixture
def make_session(backing, tmp_path):
    """A factory of sessions over one shared backing store.

    The first and every later call see the same database, so tests can
    open sibling sessions (writer vs pinned reader) on any transport.
    """
    sessions = []
    server = None
    database = None

    def factory():
        nonlocal server, database
        if backing == "local":
            if database is None:
                database = TemporalDatabase("conformance")
            session = repro.connect(database=database)
        elif backing == "file":
            if database is None:
                session = repro.connect(f"file:{tmp_path / 'conformance'}")
                database = session.db
            else:
                session = repro.connect(database=database)
        else:
            if server is None:
                database = TemporalDatabase("conformance")
                server = ServerThread(
                    database,
                    telemetry_dir=str(tmp_path / "server-telemetry"),
                )
            session = repro.connect(server.url)
        sessions.append(session)
        return session

    yield factory
    for session in sessions:
        session.close()
    if server is not None:
        server.stop()


def _load(session):
    session.execute("create persistent emp (name = c20, sal = i4)")
    session.execute('append to emp (name = "ahn", sal = 30000)')
    session.execute('append to emp (name = "snodgrass", sal = 35000)')
    session.execute("range of e is emp")


def test_execute_returns_result_rows(make_session):
    session = make_session()
    _load(session)
    result = session.execute("retrieve (e.name, e.sal)")
    assert result.kind == "retrieve"
    assert sorted(row[:2] for row in result.rows) == [
        ("ahn", 30000), ("snodgrass", 35000)
    ]
    assert result.columns[:2] == ["name", "sal"]
    assert result.input_pages >= 1
    # The Result sequence surface survives every transport.
    assert len(result) == 2
    assert result.first()[:2] == ("ahn", 30000)
    assert list(result) == result.rows


def test_multi_statement_script_returns_list(make_session):
    session = make_session()
    results = session.execute(
        "create emp (name = c20, sal = i4)\n"
        'append to emp (name = "ahn", sal = 1)\n'
        "range of e is emp\n"
        "retrieve (e.name)"
    )
    assert isinstance(results, list)
    assert [r.kind for r in results] == [
        "create", "append", "range", "retrieve"
    ]
    assert results[-1].rows == [("ahn",)]


def test_prepare_execute_with_params(make_session):
    session = make_session()
    _load(session)
    probe = session.prepare("retrieve (e.sal) where e.name = $name")
    assert [r[0] for r in probe.execute(params={"name": "ahn"})] == [30000]
    many = probe.executemany(
        [{"name": "ahn"}, {"name": "snodgrass"}, {"name": "nobody"}]
    )
    assert [len(result) for result in many] == [1, 1, 0]


def test_prepared_replace_binds_params_for_every_target(make_session):
    """Parameters stay bound while a replace evaluates its assignments
    for each qualifying version, not only the first one."""
    session = make_session()
    session.execute("create emp (name = c20, sal = i4)")
    for name, sal in (("ahn", 1), ("ahn", 2), ("snodgrass", 3)):
        session.execute(f'append to emp (name = "{name}", sal = {sal})')
    session.execute("range of e is emp")
    raise_pay = session.prepare("replace e (sal = $sal) where e.name = $name")
    assert raise_pay.execute(params={"sal": 50, "name": "ahn"}).count == 2
    assert sorted(session.execute("retrieve (e.name, e.sal)").rows) == [
        ("ahn", 50), ("ahn", 50), ("snodgrass", 3)
    ]


def test_empty_result_shape(make_session):
    session = make_session()
    _load(session)
    result = session.execute('retrieve (e.name) where e.sal > 99999')
    assert result.rows == []
    assert result.columns == ["name"]
    assert len(result) == 0


def test_explain_narrates_a_plan(make_session):
    session = make_session()
    _load(session)
    text = session.explain("retrieve (e.name) where e.sal > 0")
    assert isinstance(text, str) and text


def test_relation_names_and_rows(make_session):
    session = make_session()
    _load(session)
    assert session.relation_names() == ["emp"]
    rows = session.relation_rows("emp")
    assert len(rows) == 2
    assert all(isinstance(row, tuple) for row in rows)


def test_error_classes_survive_the_transport(make_session):
    session = make_session()
    _load(session)
    with pytest.raises(TQuelSyntaxError):
        session.execute("retrieve retrieve retrieve")
    with pytest.raises(TQuelSemanticError):
        session.execute("retrieve (zzz.name)")
    with pytest.raises(UnknownRelationError):
        session.relation_rows("nope")
    # The session survives the errors.
    assert len(session.execute("retrieve (e.name)")) == 2


def test_pinned_snapshot_ignores_later_writes(make_session):
    reader = make_session()
    _load(reader)
    writer = make_session()
    writer.execute("range of e is emp")
    watermark = reader.pin()
    assert watermark is not None
    assert reader.pinned == watermark
    writer.execute('append to emp (name = "late", sal = 1)')
    assert len(reader.execute("retrieve (e.name)")) == 2
    reader.unpin()
    assert reader.pinned is None
    assert len(reader.execute("retrieve (e.name)")) == 3


def test_snapshot_context_manager(make_session):
    session = make_session()
    _load(session)
    with session.snapshot():
        assert session.pinned is not None
        assert len(session.execute("retrieve (e.name)")) == 2
        with pytest.raises(ExecutionError):
            session.execute('append to emp (name = "x", sal = 1)')
    assert session.pinned is None
    session.execute('append to emp (name = "x", sal = 1)')
    assert len(session.execute("retrieve (e.name)")) == 3


def test_io_totals_attribute_to_this_session(make_session):
    session = make_session()
    _load(session)
    before = session.io_totals()
    assert isinstance(before, IODelta)
    session.execute("retrieve (e.name)")
    after = session.io_totals()
    assert after.input_pages > before.input_pages
    assert "emp" in after.by_relation


def test_commit_checkpoints_or_refuses(make_session, backing, tmp_path):
    session = make_session()
    _load(session)
    if backing == "file":
        group = session.commit()
        assert group >= 1
        restored = TemporalDatabase.load(tmp_path / "conformance")
        assert restored.relation("emp").row_count == 2
    else:
        # In-memory databases have no checkpoint directory.
        with pytest.raises(ExecutionError):
            session.commit()


def test_close_semantics(make_session):
    session = make_session()
    _load(session)
    assert not session.closed
    session.close()
    assert session.closed
    session.close()  # idempotent
    with pytest.raises(ExecutionError):
        session.execute("retrieve (e.name)")


def test_context_manager_closes(make_session):
    with make_session() as session:
        _load(session)
    assert session.closed
    with pytest.raises(ExecutionError):
        session.__enter__()


def test_telemetry_export_writes_artifacts(make_session, tmp_path):
    import os

    session = make_session()
    _load(session)
    artifacts = session.export_telemetry(tmp_path / "telemetry")
    assert artifacts
    for path in artifacts.values():
        assert os.path.exists(path)
