"""The application-facing session API.

:func:`repro.connect` returns a :class:`Session` -- a typed facade over
one :class:`~repro.engine.database.TemporalDatabase` in the spirit of
DB-API connections and the session objects of language-integrated query
layers (Fowler et al.):

    with repro.connect("payroll") as session:
        session.execute("create persistent interval emp (name = c20, sal = i4)")
        session.execute("range of e is emp")
        probe = session.prepare("retrieve (e.sal) where e.name = $name")
        for row in probe.execute(params={"name": "ahn"}):
            ...

``connect`` accepts three target forms (plus the ``REPRO_CONNECT``
environment variable when no target is given):

* a bare name (``"payroll"``) -- a fresh in-memory database;
* ``"file:DIR"`` -- a durable database: loaded from DIR's journaled
  checkpoint when one exists, created empty otherwise;
  :meth:`Session.commit` checkpoints back into DIR;
* ``"tcp://host:port"`` -- a :class:`~repro.server.client.RemoteSession`
  speaking the wire protocol to a :mod:`repro.server` instance, with the
  same Session/PreparedStatement/Result surface.

**Thread-safety contract.**  A :class:`Session` (and its prepared
statements) belongs to one thread at a time; it is not internally
synchronized.  Concurrency comes from *many sessions over one engine*:
open one session per thread with :meth:`TemporalDatabase.session` (or
one remote session per connection) and the engine coordinates them --
statements take per-relation read/write latches, every page access is
attributed to the issuing session, and transaction-time versioning gives
each reader a consistent snapshot (see :mod:`repro.engine.concurrency`
and ``docs/server.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.engine.concurrency import SessionContext
from repro.engine.database import _ANALYZED, TemporalDatabase
from repro.errors import ExecutionError, TQuelSemanticError, UnknownRelationError


class PreparedStatement:
    """One statement text, compiled once and executable many times.

    ``prepare`` lexes, parses and semantically analyzes the text up
    front; each :meth:`execute` afterwards goes straight to planning and
    execution (re-analyzing only if DDL changed the catalog in between).
    The entry is pinned here, so it survives plan-cache eviction.

    Multi-statement scripts whose later statements depend on earlier DDL
    (``create`` then ``retrieve``) cannot be analyzed up front; their
    analysis is deferred to execution, one statement at a time.
    """

    def __init__(
        self,
        database: TemporalDatabase,
        text: str,
        session: "Session | None" = None,
    ):
        self._db = database
        self._session = session
        self.text = text
        with self._scope():
            self._entry = entry = database._plan_entry(text)
            plan_scope = database._plan_scope()
            for index, kind in enumerate(entry.kinds):
                if kind not in _ANALYZED:
                    continue
                try:
                    database._analysis_for(entry, index, plan_scope)
                except (TQuelSemanticError, UnknownRelationError):
                    if len(entry.statements) == 1:
                        raise
                    # Dependent script: analyze this one lazily at execution.
                    break

    def _scope(self):
        if self._session is not None:
            return self._db._session_scope(self._session._ctx)
        from contextlib import nullcontext

        return nullcontext()

    def execute(
        self,
        params: "dict | None" = None,
        trace_context: "dict | None" = None,
    ):
        """Run the prepared statement(s); Result or list of Results."""
        db = self._db
        db.metrics.inc("plancache.prepared_executions")
        with self._scope():
            return db._execute(self.text, self._entry, params, trace_context)

    def executemany(self, param_sets) -> list:
        """Run once per parameter set; the compiled plan is reused."""
        return [self.execute(params) for params in param_sets]

    def explain(self, analyze: bool = False) -> str:
        """The plan narration (and measured span tree with *analyze*)."""
        with self._scope():
            return self._db.explain(self.text, analyze=analyze)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.text!r})"


class Session:
    """A facade over one temporal database: execute, prepare, explain.

    Sessions are context managers; closing flushes the session's
    buffered pages and rejects further statements.  The underlying
    engine stays reachable as ``session.db`` for catalog-level
    operations (``create_index``, ``vacuum_relation``, ``save`` ...).

    Each session carries its own identity in the engine: an id that
    labels its page I/O in the shared meter, optionally a private
    range-variable table (``shared_ranges=False``, the default for
    :meth:`TemporalDatabase.session`), and a pinnable transaction-time
    watermark (:meth:`pin` / :meth:`snapshot`) under which every
    retrieve sees the committed state as of that moment, regardless of
    concurrent writers.

    A session instance must only be used from one thread at a time; for
    concurrency, open one session per thread over the same database.
    """

    def __init__(
        self,
        database: "TemporalDatabase | None" = None,
        shared_ranges: bool = True,
        **kwargs,
    ):
        self.db = (
            database if database is not None else TemporalDatabase(**kwargs)
        )
        self.session_id = f"s{next(self.db._session_ids)}"
        self._ctx = SessionContext(
            self.session_id, ranges=None if shared_ranges else {}
        )
        with self.db._sessions_guard:
            self.db._open_sessions.add(self.session_id)
        self._closed = False

    # -- statement execution -------------------------------------------------

    def execute(
        self,
        text: str,
        params: "dict | None" = None,
        trace_context: "dict | None" = None,
    ):
        """Run TQuel text; one Result, or a list for multi-statement input.

        *trace_context* joins the statement to a remote caller's trace
        (see :meth:`TemporalDatabase.execute`); the server passes the
        context it received on the wire through here.
        """
        self._check_open()
        with self.db._session_scope(self._ctx):
            return self.db.execute(
                text, params=params, trace_context=trace_context
            )

    def executemany(self, text: str, param_sets) -> list:
        """Prepare *text* once, execute it per parameter set."""
        self._check_open()
        return self.prepare(text).executemany(param_sets)

    def prepare(self, text: str) -> PreparedStatement:
        """Compile *text* now; execute it later (repeatedly, with params)."""
        self._check_open()
        return PreparedStatement(self.db, text, session=self)

    def explain(self, text: str, analyze: bool = False) -> str:
        """Plan narration for a retrieve; *analyze* executes it under the
        tracer and appends the measured span tree."""
        self._check_open()
        with self.db._session_scope(self._ctx):
            return self.db.explain(text, analyze=analyze)

    # -- snapshot reads ------------------------------------------------------

    def pin(self, at=None):
        """Pin the session's transaction-time read point (snapshot reads).

        Every subsequent retrieve runs ``as of`` the pinned watermark --
        *at* (a chronon or temporal string), default the clock's *stable*
        point: the newest time every writer at or before has completed,
        so the watermark can never cover a write still in flight -- and
        the session sees exactly the committed state at that moment no
        matter what concurrent writers do.  While pinned the session is
        read-only: updates and DDL raise
        :class:`~repro.errors.ExecutionError`.  Returns the watermark.
        """
        self._check_open()
        if at is None:
            watermark = self.db.clock.stable()
        elif isinstance(at, str):
            watermark = self.db.parse_temporal_text(at)
        else:
            watermark = at
        self._ctx.watermark = watermark
        return watermark

    def unpin(self) -> None:
        """Return to reading (and writing) at the live clock."""
        self._ctx.watermark = None

    @property
    def pinned(self):
        """The pinned watermark, or None when reading at the live clock."""
        return self._ctx.watermark

    @contextmanager
    def snapshot(self, at=None):
        """``with session.snapshot(): ...`` -- pin for the block's duration."""
        previous = self._ctx.watermark
        self.pin(at)
        try:
            yield self
        finally:
            self._ctx.watermark = previous

    # -- durability ----------------------------------------------------------

    def commit(self, path=None) -> int:
        """Checkpoint the database through the group committer.

        Concurrent committers are coalesced into one journaled save (see
        :class:`~repro.engine.concurrency.GroupCommitter`).  *path*
        defaults to the directory the database was connected to
        (``file:`` URIs); without either, raises ``ExecutionError``.
        Returns the commit group number.
        """
        self._check_open()
        return self.db.group_commit(path)

    # -- state inspection ------------------------------------------------------

    def relation_names(self) -> "list[str]":
        """Sorted names of the user relations currently in the catalog."""
        self._check_open()
        return self.db.relation_names()

    def relation_rows(self, name: str) -> "list[tuple]":
        """Every stored version of *name*, full width, in storage order.

        This is the raw stored state -- implicit attributes included, no
        transaction- or valid-time filtering -- which is what differential
        harnesses (``repro.sim``) compare against an oracle's state.
        """
        self._check_open()
        with self.db._session_scope(self._ctx):
            return self.db.relation(name).all_rows()

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self):
        """The database's statement tracer (``tracer.enable()`` ...)."""
        return self.db.tracer

    @property
    def metrics(self):
        """The database's metrics registry."""
        return self.db.metrics

    @property
    def recorder(self):
        """The database's flight recorder (``recorder.dump()`` ...)."""
        return self.db.recorder

    @property
    def heatmap(self):
        """The database's page-access heatmap (``heatmap.enable()`` ...)."""
        return self.db.heatmap

    def last_trace(self):
        """The most recent statement's span tree (None if tracing is off)."""
        return self.db.tracer.last

    def query_stats(self, n: "int | None" = 10) -> dict:
        """The query-statistics store's top-*n* snapshot (JSON-safe).

        The same shape travels over the wire for remote sessions, so
        the monitor's ``\\stats`` renders identically on every
        transport.
        """
        self._check_open()
        return self.db.query_stats.snapshot(n)

    def io_totals(self):
        """This session's lifetime page I/O, as an
        :class:`~repro.storage.iostats.IODelta` (other sessions' accesses
        to the same relations are not included)."""
        return self.db.stats.totals(self.session_id)

    def export_telemetry(self, path) -> "dict[str, str]":
        """Write the session's telemetry into directory *path*.

        Produces a Chrome-trace JSON of the tracer's span history, the
        metrics registry in Prometheus text and JSON form, the flight
        recorder as JSON Lines, and (when enabled) the page heatmap.
        Returns ``{artifact: file path}``.  Exporting only reads the
        collected state -- no page access is issued, so page counts are
        unaffected.
        """
        from repro.observe.export import export_telemetry

        return export_telemetry(self.db, path)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush this session's buffered pages and reject further statements.

        The last session to close flushes every pool (leaving the
        database fully on "disk"); earlier closers flush only the files
        they touched, so sibling sessions' resident pages -- and their
        page accounting -- are left alone.  Closing also retires the
        session's I/O attribution scope.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        with self.db._sessions_guard:
            self.db._open_sessions.discard(self.session_id)
            last_out = not self.db._open_sessions
        if last_out:
            self.db.pool.flush_all()
        else:
            with self.db.stats.scoped(self.session_id):
                self.db.pool.flush_statement()
        self.db.stats.drop_scope(self.session_id)

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is closed")

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session({self.db.name!r}, {self.session_id}, {state})"


# -- connect ---------------------------------------------------------------


def _open_file_database(spec: str, **kwargs) -> TemporalDatabase:
    """Load (or create) the durable database in directory *spec*."""
    import pathlib

    from repro.engine import persist

    root = pathlib.Path(spec)
    root_, tmp, old = persist._journal_paths(root)
    if persist._manifest_ok(root_):
        db = TemporalDatabase.load(root)
    elif persist._manifest_ok(tmp) or persist._manifest_ok(old):
        # An interrupted save left a complete journal; promote it first.
        persist.recover_checkpoint(root)
        db = TemporalDatabase.load(root)
    else:
        db = TemporalDatabase(name=root.name or "tdb", **kwargs)
    db.checkpoint_dir = str(root)
    return db


def connect(
    target: "str | None" = None,
    clock=None,
    buffers_per_relation: int = 1,
    database: "TemporalDatabase | None" = None,
    name: "str | None" = None,
    token: "str | None" = None,
    timeout: "float | None" = None,
    retries: int = 0,
):
    """Open a session on a local, durable, or remote temporal database.

    *target* selects the database:

    * ``None`` -- the ``REPRO_CONNECT`` environment variable if set,
      else a fresh in-memory database named ``"tdb"``;
    * a bare name -- a fresh in-memory database with that name;
    * ``"file:DIR"`` -- a durable database in directory DIR (loaded from
      its journaled checkpoint when one exists, created empty
      otherwise); ``session.commit()`` checkpoints back into DIR;
    * ``"tcp://host:port"`` -- a :class:`~repro.server.client.RemoteSession`
      over the wire protocol, presenting the same
      Session/PreparedStatement/Result interface.

    *database* supplies an existing engine instead (overrides *target*).
    *clock* and *buffers_per_relation* configure a locally created
    engine; they are ignored for ``tcp://`` targets (the server's engine
    was configured at server start).  *token*, *timeout* and *retries* apply
    only to ``tcp://`` targets: the server's authentication token, the
    per-operation socket timeout in seconds, and how many times a lost
    connection is re-dialed and the request resent (safe for writes:
    the server dedupes retried statements; see ``docs/server.md``).
    """
    if database is not None:
        return Session(database)
    if target is None:
        target = os.environ.get("REPRO_CONNECT") or name or "tdb"
    if target.startswith("tcp://"):
        from repro.server.client import RemoteSession

        return RemoteSession.open(
            target, token=token, timeout=timeout, retries=retries
        )
    if target.startswith("file:"):
        db = _open_file_database(
            target[len("file:"):],
            clock=clock,
            buffers_per_relation=buffers_per_relation,
        )
        return Session(db)
    return Session(
        name=target, clock=clock, buffers_per_relation=buffers_per_relation
    )
