"""The prototype temporal DBMS: the public entry point.

A :class:`TemporalDatabase` owns the buffer pool, I/O meter, logical clock,
system catalog, user relations and range-variable table, and executes TQuel
statements::

    db = TemporalDatabase("bench")
    db.execute('create persistent interval emp (name = c20, sal = i4)')
    db.execute('modify emp to hash on name where fillfactor = 100')
    db.execute('append to emp (name = "ahn", sal = 30000)')
    db.execute('range of e is emp')
    result = db.execute('retrieve (e.name, e.sal) when e overlap "now"')
    result.rows, result.input_pages

Every statement result carries the paper's metric: user-relation page reads
(``input_pages``) and writes (``output_pages``), with exactly one buffer
page per user relation.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext

from repro.access.base import StructureKind
from repro.access.secondary import IndexLevels
from repro.access.twolevel import HistoryLayout
from repro.catalog.schema import DatabaseType, RelationKind, RelationSchema
from repro.catalog.system import SystemCatalog
from repro.engine import mutate
from repro.engine.concurrency import GroupCommitter, LatchTable
from repro.engine.partition import PartitionedRelation
from repro.engine.relation import StoredRelation
from repro.engine.result import Result
from repro.engine.temporary import TemporaryFactory
from repro.engine.undo import statement_scope
from repro.errors import (
    CatalogError,
    DuplicateRelationError,
    ExecutionError,
    TQuelSemanticError,
    UnknownRelationError,
)
from repro.observe import events as observe_events
from repro.observe.events import FlightRecorder
from repro.observe.heatmap import PageHeatmap
from repro.observe.metrics import MetricsRegistry
from repro.observe.span import NULL_SPAN
from repro.observe.stats import (
    QueryStatsStore,
    SlowQueryLog,
    fingerprint as statement_fingerprint,
    growth_rate_for,
)
from repro.observe.trace import Tracer
from repro.storage.buffer import BufferPool
from repro.storage.record import AttributeType, FieldSpec
from repro.temporal.chronon import Chronon, Clock
from repro.temporal.format import Resolution, format_chronon
from repro.temporal.parse import parse_temporal
from repro.tquel import ast
from repro.tquel.interpreter import Executor
from repro.tquel.lexer import tokenize
from repro.tquel.parser import parse_tokens
from repro.tquel.semantics import Analyzer

PLAN_CACHE_CAPACITY = 64


class _PlanEntry:
    """One statement text's cached compilation.

    ``statements`` holds the parsed ASTs (parsing is pure, so they stay
    valid forever); ``analyses`` holds, per statement, ``(epoch,
    Analysis)`` once semantic analysis has run.  A cached analysis is
    reused only while the database's catalog epoch is unchanged -- any
    DDL or range-table change bumps the epoch and forces re-analysis.
    """

    __slots__ = ("text", "statements", "analyses", "_fingerprints")

    def __init__(self, text: str, statements: list):
        self.text = text
        self.statements = statements
        self.analyses: "list[tuple[int, object] | None]" = (
            [None] * len(statements)
        )
        self._fingerprints: "list[str] | None" = None

    def fingerprint(self, index: int) -> str:
        """The stats-store key for statement *index* (cached with the
        plan, so a fingerprint is computed once per distinct text)."""
        if self._fingerprints is None:
            base = statement_fingerprint(self.text)
            if len(self.statements) == 1:
                self._fingerprints = [base]
            else:
                self._fingerprints = [
                    f"{base}#{i}" for i in range(len(self.statements))
                ]
        return self._fingerprints[index]

_STRUCTURES = {
    "heap": StructureKind.HEAP,
    "hash": StructureKind.HASH,
    "isam": StructureKind.ISAM,
    "btree": StructureKind.BTREE,
    "twolevel": StructureKind.TWO_LEVEL,
}


class _SystemRelationAdapter:
    """Read-only query access to a system-catalog relation."""

    read_only = True

    def __init__(self, schema, heap):
        self.schema = schema
        self._heap = heap
        self.is_two_level = False

    def can_key_lookup(self, attribute_position: int) -> bool:
        return False

    def index_for(self, attribute_position: int):
        return None

    def scan_with_rids(
        self, current_only: bool = False, asof_max: "int | None" = None
    ):
        yield from self._heap.scan()

    def scan_batches(
        self, current_only: bool = False, asof_max: "int | None" = None,
        ahead: bool = False,
    ):
        for _, rows in self._heap.scan_batches(ahead=ahead):
            yield rows

    def lookup_with_rids(self, key, current_only: bool = False):
        raise ExecutionError("system relations have no keyed access")

    def lookup_batches(self, key, current_only=False, ahead=False):
        raise ExecutionError("system relations have no keyed access")


class TemporalDatabase:
    """A database holding static, rollback, historical and temporal
    relations, queried and updated through TQuel."""

    def __init__(
        self,
        name: str = "tdb",
        clock: "Clock | None" = None,
        buffers_per_relation: int = 1,
        batch_execution: "bool | None" = None,
        atomic_statements: bool = True,
        optimizer: "bool | None" = None,
    ):
        self.name = name
        self.clock = clock if clock is not None else Clock()
        # Statement-level atomicity (the default): update statements run
        # inside an undo scope so a mid-statement failure rolls back every
        # physical write.  ``False`` disables the scope entirely -- used by
        # the observe-neutrality tests to show the undo path never moves a
        # page count.
        self.atomic_statements = bool(atomic_statements)
        # Page-at-a-time batch execution (the default).  ``False`` selects
        # the retained tuple-at-a-time reference path -- same rows, same
        # page accounting, used by the differential tests.  ``None``
        # defers to the interpreter module's default (overridable with the
        # REPRO_BATCH_EXECUTION environment variable, so subprocess
        # benchmark workers inherit the choice).
        if batch_execution is None:
            from repro.tquel import interpreter

            batch_execution = interpreter.DEFAULT_BATCH_EXECUTION
        self.batch_execution = bool(batch_execution)
        # The cost-based optimizer (repro.engine.planner): per statement
        # variable the planner prices every feasible access path with the
        # paper's Fig. 9 law and picks the cheapest.  ``False`` restores
        # the fixed keyed-probe/index/scan strategy -- the differential
        # tests compare the two.  ``None`` defers to the planner module's
        # default (overridable with REPRO_OPTIMIZER, so subprocess
        # benchmark workers inherit the choice).
        if optimizer is None:
            from repro.engine import planner as planner_module

            optimizer = planner_module.DEFAULT_OPTIMIZER
        self.optimizer_enabled = bool(optimizer)
        from repro.engine.planner import Planner

        self.planner = Planner(self)
        self.pool = BufferPool(default_buffers=buffers_per_relation)
        self.catalog = SystemCatalog(self.pool)
        self.temporaries = TemporaryFactory(self.pool)
        self.ranges: "dict[str, str]" = {}
        self._relations: "dict[str, StoredRelation]" = {}
        self._analyzer = Analyzer(self)
        # Observability: the tracer wraps statements in span trees when
        # enabled; the metrics registry is always on (pure Python counters
        # over numbers IOStats already maintains -- never a page access);
        # the flight recorder keeps a bounded ring of engine events
        # (always on, info level and up); the page heatmap is opt-in.
        self.tracer = Tracer(self.pool.stats)
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder()
        self.heatmap = PageHeatmap()
        self.pool.attach_observers(
            metrics=self.metrics,
            recorder=self.recorder,
            heatmap=self.heatmap,
        )
        # Query statistics (pg_stat_statements-style) and the slow-query
        # log; both are unmetered pure-Python aggregation over numbers
        # the pipeline already computed.  ``_update_counts`` tracks the
        # paper's n -- update statements applied per relation -- feeding
        # the store's Fig. 9 predicted-page model.
        self.query_stats = QueryStatsStore()
        self.slowlog = SlowQueryLog()
        self._update_counts: "dict[str, int]" = {}
        # Fault-tolerance counters are pre-registered at zero so the
        # Prometheus export always exposes the series, not only after
        # the first failure.
        for counter in (
            "exec.degraded",
            "exec.worker_failures",
            "partition.degraded",
        ):
            self.metrics.counter(counter)
        # Prepared-statement/plan cache: text -> _PlanEntry (LRU).
        self._plan_cache: "OrderedDict[str, _PlanEntry]" = OrderedDict()
        self._plan_cache_capacity = PLAN_CACHE_CAPACITY
        self._catalog_epoch = 0
        # Statistics epoch: bumped whenever catalog statistics move
        # enough to invalidate planner decisions (DDL, bulk load,
        # vacuum).  Part of every plan key, so a bump means no stale
        # plan is ever served; persisted in checkpoint manifests.
        self._stats_epoch = 0
        # Multi-session concurrency (see repro.engine.concurrency):
        # per-relation read/write latches plus the catalog latch order
        # physical page access; the ambient SessionContext -- installed
        # per thread while a Session runs a statement -- carries the
        # session id (I/O attribution), range table and pinned watermark;
        # the group committer coalesces concurrent checkpoint requests.
        self.latches = LatchTable()
        self._ambient = threading.local()
        self._session_ids = itertools.count(1)
        self._open_sessions: "set[str]" = set()
        self._sessions_guard = threading.Lock()
        self._group_committer = GroupCommitter(self.metrics)
        self.checkpoint_dir = None

    # -- infrastructure the language layer uses ------------------------------

    @property
    def stats(self):
        """The database-wide I/O meter."""
        return self.pool.stats

    # -- session plumbing ------------------------------------------------------

    @property
    def session_context(self):
        """The SessionContext installed on this thread, or None."""
        return getattr(self._ambient, "ctx", None)

    @contextmanager
    def _session_scope(self, ctx):
        """Install *ctx* as this thread's ambient session context."""
        previous = getattr(self._ambient, "ctx", None)
        self._ambient.ctx = ctx
        try:
            yield
        finally:
            self._ambient.ctx = previous

    @property
    def current_ranges(self) -> "dict[str, str]":
        """The range-variable table statements bind against: the ambient
        session's private table when it has one, else the shared table."""
        ctx = self.session_context
        if ctx is not None and ctx.ranges is not None:
            return ctx.ranges
        return self.ranges

    def statement_now(self) -> Chronon:
        """The one instant the current statement executes at.

        Inside :meth:`_run` this is the statement's timestamp, fixed
        once under the statement's latches: for updates the stamp
        atomically allocated by ``clock.begin_statement()`` (so every
        write of the statement carries it), for queries the pinned
        watermark or the clock's stable point.  Outside a statement it
        falls back to the watermark or the live clock.  Pinning never
        affects the timestamps updates write (pinned sessions are
        read-only), only the default as-of period.
        """
        stamp = getattr(self._ambient, "statement_time", None)
        if stamp is not None:
            return stamp
        ctx = self.session_context
        if ctx is not None and ctx.watermark is not None:
            return ctx.watermark
        return self.clock.now()

    def session(self, shared_ranges: bool = False):
        """Open a new concurrent :class:`~repro.engine.session.Session`.

        Each session gets a fresh id (I/O attribution scope) and, by
        default, a private range-variable table, so concurrent sessions
        can bind the same variable names to different relations.
        """
        from repro.engine.session import Session

        return Session(self, shared_ranges=shared_ranges)

    def group_commit(self, path=None) -> int:
        """Checkpoint through the group committer; returns the group.

        Concurrent callers are coalesced: one journaled save (under the
        exclusive catalog latch, so no statement is mid-flight) covers
        every session whose request preceded its start.
        """
        target = path if path is not None else self.checkpoint_dir
        if target is None:
            raise ExecutionError(
                "no checkpoint directory: connect with a 'file:' URI or "
                "pass group_commit(path)"
            )

        def _save():
            with self.latches.statement((), ddl=True):
                self.save(target)

        return self._group_committer.commit(_save)

    def parse_temporal_text(self, text: str) -> Chronon:
        """Resolve a temporal string constant against this database's clock."""
        return parse_temporal(text, clock=self.clock)

    # ``compile_temporal`` calls this under the name ``clock.parse``.
    parse = parse_temporal_text

    def relation(self, name: str):
        """Look up a user relation (or a system relation, read-only)."""
        if name in self._relations:
            return self._relations[name]
        if name == "relations":
            return _SystemRelationAdapter(
                self.catalog.relations_schema, self.catalog.relations
            )
        if name == "attributes":
            return _SystemRelationAdapter(
                self.catalog.attributes_schema, self.catalog.attributes
            )
        if name == "partitions":
            return _SystemRelationAdapter(
                self.catalog.partitions_schema, self.catalog.partitions
            )
        raise UnknownRelationError(f"relation {name!r} does not exist")

    def relation_names(self) -> "list[str]":
        return sorted(self._relations)

    # -- DDL ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        columns,
        persistent: bool = False,
        kind: "str | None" = None,
    ) -> StoredRelation:
        """``create``: define a relation; its type follows the keywords."""
        if name in self._relations or name in (
            "relations",
            "attributes",
            "partitions",
        ):
            raise DuplicateRelationError(f"relation {name!r} already exists")
        fields = [FieldSpec.parse(col, text) for col, text in columns]
        db_type = DatabaseType.from_flags(persistent, kind is not None)
        schema = RelationSchema(
            name,
            fields,
            type=db_type,
            kind=(
                RelationKind.EVENT if kind == "event" else RelationKind.INTERVAL
            ),
        )
        relation = StoredRelation(schema, self.pool, clock=self.clock)
        self._relations[name] = relation
        self.catalog.record_create(schema)
        self._invalidate_plans()
        return relation

    def modify_relation(
        self,
        name: str,
        structure: str,
        key: "str | None" = None,
        fillfactor: int = 100,
        primary: str = "hash",
        history: str = "simple",
        zonemap: int = 0,
    ) -> StoredRelation:
        """``modify``: rebuild a relation's storage structure."""
        relation = self._require_user_relation(name)
        kind = _STRUCTURES.get(structure)
        if kind is None:
            raise CatalogError(f"unknown storage structure {structure!r}")
        if kind is StructureKind.TWO_LEVEL and not (
            relation.schema.type.has_transaction_time
            or relation.schema.type.has_valid_time
        ):
            raise CatalogError(
                f"{name}: a two-level store needs a versioned relation"
            )
        primary_kind = _STRUCTURES.get(primary)
        if primary_kind not in (StructureKind.HASH, StructureKind.ISAM):
            raise CatalogError(
                f"two-level primary store must be hash or isam, got "
                f"{primary!r}"
            )
        try:
            layout = HistoryLayout(history)
        except ValueError:
            raise CatalogError(
                f"history layout must be simple or clustered, got "
                f"{history!r}"
            ) from None
        relation.rebuild(
            kind,
            key_attribute=key,
            fillfactor=fillfactor,
            primary=primary_kind,
            history=layout,
        )
        if zonemap:
            relation.enable_zone_map()
        else:
            relation.disable_zone_map()
        self.pool.flush_all()
        self.catalog.record_modify(name, structure, key or "", fillfactor)
        self._invalidate_plans()
        return relation

    def create_index(
        self,
        relation_name: str,
        index_name: str,
        attribute: str,
        structure: str = "hash",
        levels: int = 1,
        fillfactor: int = 100,
    ):
        """``index``: build a Section-6 secondary index."""
        relation = self._require_user_relation(relation_name)
        kind = _STRUCTURES.get(structure)
        if kind not in (StructureKind.HEAP, StructureKind.HASH):
            raise CatalogError(
                f"index structure must be heap or hash, got {structure!r}"
            )
        if levels not in (1, 2):
            raise CatalogError(f"index levels must be 1 or 2, got {levels}")
        index = relation.create_index(
            index_name,
            attribute,
            structure=kind,
            levels=IndexLevels(levels),
            fillfactor=fillfactor,
        )
        self.pool.flush_all()
        self._invalidate_plans()
        return index

    def partition_relation(
        self,
        name: str,
        method: str,
        attribute: str,
        count: int,
        parallel: str = "serial",
        bounds: "str | list | None" = None,
    ):
        """``partition``: spread a relation over N routed stores.

        The existing tuples are read out (metered, like a ``modify``),
        routed and bulk-loaded into per-partition stores that keep the
        relation's current structure, key and fillfactor.  ``count = 1``
        collapses a partitioned relation back to a single store.
        """
        relation = self._require_user_relation(name)
        count = int(count)
        if count < 1:
            raise CatalogError(f"{name}: partition count must be >= 1")
        if relation.indexes:
            raise CatalogError(
                f"{name}: drop the secondary indexes before partitioning "
                "(a tid cannot address N stores)"
            )
        if relation.is_two_level or relation.structure in (
            StructureKind.TWO_LEVEL,
            StructureKind.BTREE,
        ):
            raise CatalogError(
                f"{name}: partitioning supports heap, hash and isam "
                "structures; modify the relation first"
            )
        bound_values = None
        if bounds is not None and not (
            isinstance(bounds, str) and not bounds.strip()
        ):
            bound_values = self._parse_partition_bounds(
                relation.schema, attribute, bounds
            )
        rows = relation.all_rows()
        structure = relation.structure
        key = relation.key_attribute
        fillfactor = relation.fillfactor
        zoned = relation.zone_map is not None
        if isinstance(relation, PartitionedRelation):
            relation.release()
            for child_name in relation.file_names():
                self.pool.drop_file(child_name)
        else:
            self.pool.drop_file(name)
        if count == 1:
            replacement = StoredRelation(
                relation.schema, self.pool, clock=self.clock
            )
            replacement.rebuild(
                structure, key_attribute=key, fillfactor=fillfactor,
                rows=rows,
            )
            if zoned:
                replacement.zone_map = replacement.zone_map_from_pages()
            self._relations[name] = replacement
            self.catalog.record_unpartition(name)
        else:
            facade = PartitionedRelation(
                relation.schema,
                self.pool,
                clock=self.clock,
                method=method,
                attribute=attribute,
                count=count,
                bounds=bound_values,
                parallel=parallel,
                metrics=self.metrics,
                tracer=self.tracer,
                recorder=self.recorder,
                heatmap=self.heatmap,
            )
            facade.rebuild(
                structure, key_attribute=key, fillfactor=fillfactor,
                rows=rows,
            )
            if zoned:
                for child in facade.children:
                    child.zone_map = child.zone_map_from_pages()
            self._relations[name] = facade
            self.catalog.record_partition(
                name, method, attribute, count, parallel
            )
        self.pool.flush_all()
        self._invalidate_plans()
        return self._relations[name]

    def _parse_partition_bounds(self, schema, attribute: str, bounds):
        """Range-partition cut values, typed by the partition attribute."""
        if isinstance(bounds, (list, tuple)):
            return list(bounds)
        spec = schema.field_for(attribute)
        parts = [p.strip() for p in str(bounds).split(",") if p.strip()]
        if spec.type is AttributeType.CHAR:
            return parts
        if spec.type is AttributeType.TIME:
            return [self.parse_temporal_text(p) for p in parts]
        if spec.type in (AttributeType.F4, AttributeType.F8):
            return [float(p) for p in parts]
        return [int(p) for p in parts]

    def vacuum_relation(self, name: str, before: "Chronon | str") -> int:
        """``vacuum``: physically discard versions superseded before a
        cutoff, rebuilding the relation's structure without them.

        Only versions whose transaction period ended before the cutoff can
        go -- they are exactly the versions no ``as of`` later than the
        cutoff can see.  Requires transaction time (a historical relation's
        versions carry no record of when they were superseded).  Returns
        the number of versions discarded.
        """
        relation = self._require_user_relation(name)
        schema = relation.schema
        if not schema.type.has_transaction_time:
            raise TQuelSemanticError(
                f"{name}: vacuum requires transaction time (rollback or "
                "temporal)"
            )
        if isinstance(before, str):
            cutoff = self.parse_temporal_text(before)
        else:
            cutoff = before
        stop_position = schema.position("transaction_stop")
        rows = relation.all_rows()
        kept = [row for row in rows if row[stop_position] > cutoff]
        removed = len(rows) - len(kept)
        if removed:
            relation.rebuild(
                relation.structure,
                key_attribute=relation.key_attribute,
                fillfactor=relation.fillfactor,
                primary=(
                    relation.storage.primary.kind
                    if relation.is_two_level
                    else StructureKind.HASH
                ),
                history=relation.history_layout or HistoryLayout.SIMPLE,
                rows=kept,
            )
            self.pool.flush_all()
            self.bump_stats_epoch()
        return removed

    def destroy_relation(self, name: str) -> None:
        """``destroy``: drop a relation and its indexes."""
        relation = self._require_user_relation(name)
        for index_name in list(relation.indexes):
            relation.drop_index(index_name)
        if isinstance(relation, PartitionedRelation):
            relation.release()
            for child_name in relation.file_names():
                self.pool.drop_file(child_name)
        self.pool.drop_file(name)
        self.pool.drop_file(f"{name}.primary")
        self.pool.drop_file(f"{name}.history")
        del self._relations[name]
        self.catalog.record_destroy(name)
        self.ranges = {
            var: rel for var, rel in self.ranges.items() if rel != name
        }
        ctx = self.session_context
        if ctx is not None and ctx.ranges is not None:
            for var in [v for v, rel in ctx.ranges.items() if rel == name]:
                del ctx.ranges[var]
        self._invalidate_plans()

    def _require_user_relation(self, name: str) -> StoredRelation:
        if name not in self._relations:
            raise UnknownRelationError(f"relation {name!r} does not exist")
        return self._relations[name]

    # -- bulk loading -------------------------------------------------------------

    def copy_in(self, name: str, rows) -> int:
        """Programmatic ``copy ... from``: bulk-load rows.

        Rows are user-width (time attributes defaulted) or full-width
        (explicit time attributes, as the benchmark's generator supplies).
        """
        relation = self._require_user_relation(name)
        with self._atomic_scope():
            count = mutate.load_rows(relation, list(rows), self.statement_now())
        self.pool.flush_statement()
        # A bulk load moves tuple counts wholesale; expire cached
        # planner decisions so the next execution re-prices its paths.
        self.bump_stats_epoch()
        return count

    def copy_out(self, name: str) -> "list[tuple]":
        """Programmatic ``copy ... into``: dump every stored version."""
        relation = self._require_user_relation(name)
        rows = relation.all_rows()
        self.pool.flush_statement()
        return rows

    def explain(self, text: str, analyze: bool = False) -> str:
        """Describe the plan for a retrieve; with *analyze*, also execute
        it under the tracer and render the measured span tree."""
        from repro.tquel.explain import explain

        return explain(self, text, analyze=analyze)

    # -- persistence ------------------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint the database into directory *path*.

        Page images are saved exactly, so a restored database answers
        queries with the same rows and the same page counts.
        """
        from repro.engine import persist

        persist.save(self, path)

    @classmethod
    def load(cls, path, salvage: bool = False) -> "TemporalDatabase":
        """Restore a database checkpointed with :meth:`save`.

        With ``salvage=True`` damaged relations are skipped instead of
        failing the whole load; ``db.salvage_report`` describes what was
        recovered and what was dropped.
        """
        from repro.engine import persist

        return persist.load(path, database_class=cls, salvage=salvage)

    # -- statement execution ---------------------------------------------------------

    def execute(
        self,
        text: str,
        params: "dict | None" = None,
        trace_context: "dict | None" = None,
    ):
        """Parse and run TQuel; one Result, or a list for multi-statement
        input.

        *params* binds ``$name`` statement parameters, e.g.
        ``db.execute("retrieve (h.seq) where h.id = $id", params={"id":
        500})``.  Compilation (lex, parse, semantic analysis) is cached
        per statement text, so re-executing the same text -- with the same
        or different parameters -- skips straight to execution.

        *trace_context* is a remote caller's ``{"trace_id": ...,
        "span_id": ...}``; when present the statement is traced into the
        caller's trace regardless of the local tracer setting and the
        finished span is retrievable with
        ``tracer.take_adopted(trace_id)``.
        """
        with self.trace_scope():
            with self.tracer.statement(text, context=trace_context) as span:
                cached = text in self._plan_cache
                entry = self._plan_entry(text, span)
                return self._run_entry(
                    entry, span, params, plan_cache_hit=cached
                )

    def trace_scope(self):
        """Forced-tracing scope while the slow-query log is armed.

        A statement only reveals itself as slow after it finishes, so
        the full span tree the log captures must already exist; arming
        the log (``REPRO_SLOW_QUERY_MS``) therefore bypasses the
        sampling knob the way ``EXPLAIN ANALYZE`` does.
        """
        if self.slowlog.enabled:
            return self.tracer.force()
        return nullcontext()

    def prepare(self, text: str):
        """Compile *text* into a reusable :class:`PreparedStatement`.

        Lexing, parsing and (for query/update statements) semantic
        analysis happen now; each ``.execute(params)`` afterwards goes
        straight to planning and execution.
        """
        from repro.engine.session import PreparedStatement

        return PreparedStatement(self, text)

    def executemany(
        self, text: str, param_sets: "list[dict]"
    ) -> "list":
        """Prepare *text* once and execute it per parameter set."""
        return self.prepare(text).executemany(param_sets)

    def _atomic_scope(self):
        """An undo scope for one update statement (or a no-op context)."""
        if self.atomic_statements:
            return statement_scope(self.pool)
        return nullcontext()

    def _invalidate_plans(self) -> None:
        """DDL or range-table change: cached semantic analyses are stale."""
        self._catalog_epoch += 1
        # DDL moves catalog statistics too (structures rebuilt, indexes
        # added, partitions created), so planner decisions expire with
        # the analyses.
        self.bump_stats_epoch()

    @property
    def stats_epoch(self) -> int:
        """The catalog-statistics epoch planner decisions are keyed on."""
        return self._stats_epoch

    def bump_stats_epoch(self) -> None:
        """Catalog statistics moved: expire cached planner decisions."""
        self._stats_epoch += 1

    def relation_stats(self, name: str) -> dict:
        """The catalog statistics the planner feeds the Fig. 9 model.

        Unmetered structure metadata: logical page/row volumes, the
        update count (the paper's *n*), fillfactor, access method,
        indexes, and -- for partitioned relations -- partition count and
        per-partition transaction-time lower bounds.
        """
        relation = self._require_user_relation(name)
        stats = {
            "structure": relation.structure.value,
            "pages": relation.page_count,
            "rows": relation.row_count,
            "updates": self._update_counts.get(name, 0),
            "fillfactor": relation.fillfactor,
            "key": relation.key_attribute,
            "indexes": sorted(relation.indexes),
            "stats_epoch": self._stats_epoch,
        }
        if getattr(relation, "is_partitioned", False):
            stats["partitions"] = relation.partition_count
            stats["parallel"] = relation.parallel
            stats["tx_min"] = list(relation.tx_min)
        if getattr(relation, "is_two_level", False):
            stats["tuples"] = relation.storage.primary.row_count
        return stats

    def _plan_entry(self, text: str, span=NULL_SPAN) -> _PlanEntry:
        """The plan-cache entry for *text*, lexing and parsing on a miss."""
        entry = self._plan_cache.get(text)
        if entry is not None:
            self._plan_cache.move_to_end(text)
            self.metrics.inc("plancache.hits")
            span.annotate(plan_cache="hit")
            return entry
        self.metrics.inc("plancache.misses")
        with span.stage("lex"):
            tokens = tokenize(text)
        with span.stage("parse"):
            statements = parse_tokens(tokens)
        entry = _PlanEntry(text, statements)
        self._plan_cache[text] = entry
        while len(self._plan_cache) > self._plan_cache_capacity:
            evicted_text, _ = self._plan_cache.popitem(last=False)
            self.metrics.inc("plancache.evictions")
            self.recorder.record(
                "plancache.evict", text=evicted_text[:120]
            )
        return entry

    def _ranges_key(self) -> tuple:
        """The visible range table as a hashable cache key (tiny)."""
        return tuple(sorted(self.current_ranges.items()))

    def _analysis_for(self, entry: _PlanEntry, index: int, span=NULL_SPAN):
        """The (possibly cached) semantic analysis of one statement.

        Analysis binds relations and range variables, so a cached result
        is valid only at the catalog epoch -- and under the range table --
        it was computed at (sessions may hold private range tables).
        Returns ``None`` for statements that are not analyzed (DDL,
        copy, ...).
        """
        statement = entry.statements[index]
        if isinstance(statement, ast.RetrieveStmt):
            analyze = self._analyzer.analyze_retrieve
        elif isinstance(
            statement, (ast.AppendStmt, ast.DeleteStmt, ast.ReplaceStmt)
        ):
            analyze = self._analyzer.analyze_update
        else:
            return None
        ranges_key = self._ranges_key()
        cached = entry.analyses[index]
        if (
            cached is not None
            and cached[0] == self._catalog_epoch
            and cached[1] == ranges_key
        ):
            span.annotate(analysis="cached")
            return cached[2]
        with span.stage("semantics"):
            analysis = analyze(statement)
        entry.analyses[index] = (self._catalog_epoch, ranges_key, analysis)
        return analysis

    def _run_entry(
        self, entry: _PlanEntry, span, params, plan_cache_hit: bool = False
    ) -> "Result | list":
        if not entry.statements:
            raise ExecutionError("no statement to execute")
        results = [
            self._run(entry, index, span, params, plan_cache_hit)
            for index in range(len(entry.statements))
        ]
        if len(results) == 1:
            return results[0]
        return results

    def _run(
        self,
        entry: _PlanEntry,
        index: int,
        span,
        params,
        plan_cache_hit: bool = False,
    ) -> Result:
        started = time.perf_counter()
        statement = entry.statements[index]
        ctx = self.session_context
        scope = ctx.session_id if ctx is not None else None
        is_query = isinstance(statement, ast.RetrieveStmt)
        is_update = isinstance(
            statement,
            (ast.AppendStmt, ast.DeleteStmt, ast.ReplaceStmt, ast.CopyStmt),
        )
        if (
            ctx is not None
            and ctx.watermark is not None
            and not (is_query or isinstance(statement, ast.RangeStmt))
        ):
            raise ExecutionError(
                "session is pinned (read-only snapshot): unpin before "
                "running updates or DDL"
            )
        self.recorder.record(
            "statement.start",
            level=observe_events.DEBUG,
            text=entry.text[:120],
        )
        # Latch order (global, deadlock-free): the catalog latch -- shared
        # for queries and updates, exclusive for DDL -- then the statement's
        # relation latches in sorted name order, shared for queries and
        # exclusive for updates.  Analysis runs under the catalog latch
        # (it binds against the catalog) and determines the relation set.
        analyzed = is_query or isinstance(
            statement, (ast.AppendStmt, ast.DeleteStmt, ast.ReplaceStmt)
        )
        ddl = not (is_query or is_update)
        catalog_latch = self.latches.catalog
        if ddl:
            catalog_latch.acquire_exclusive()
        else:
            catalog_latch.acquire_shared()
        held: "list" = []
        stamp = None
        statement_names: "set[str]" = set()
        previous_time = getattr(self._ambient, "statement_time", None)
        degraded_before = self.metrics.counter_value("exec.degraded")
        try:
            analysis = None
            if analyzed:
                analysis = self._analysis_for(entry, index, span)
                names = self._statement_relations(statement, analysis)
                statement_names = names
                for name in sorted(names):
                    latch = self.latches.latch_for(name)
                    if is_update:
                        latch.acquire_exclusive()
                    else:
                        latch.acquire_shared()
                    held.append(latch)
            elif isinstance(statement, ast.CopyStmt):
                latch = self.latches.latch_for(statement.relation)
                latch.acquire_exclusive()
                held.append(latch)
            # The statement's timestamp, fixed exactly once and only now
            # that the latches are held.  Updates atomically advance the
            # clock and hold their stamp in flight until the finally
            # block, so no concurrent statement can share it and no
            # pin() can capture a watermark covering these writes before
            # they complete.  Queries read at the pinned watermark, or
            # at the clock's stable point (newest fully-committed time)
            # -- raised to the session's own last write stamp, which
            # stable() can lag while an unrelated writer holds an older
            # stamp in flight; the query's shared latches exclude
            # in-flight writers on every relation it reads, so the
            # higher read point is still prefix-consistent.
            if is_update:
                stamp = self.clock.begin_statement()
                self._ambient.statement_time = stamp
                if ctx is not None:
                    ctx.last_write = stamp
            elif is_query:
                if ctx is not None and ctx.watermark is not None:
                    read_at = ctx.watermark
                else:
                    read_at = self.clock.stable()
                    if ctx is not None and ctx.last_write is not None:
                        read_at = max(read_at, ctx.last_write)
                self._ambient.statement_time = read_at
            with self.stats.scoped(scope):
                before = self.stats.checkpoint(scope)
                runner = self._planned_runner(
                    entry, index, span, params, analysis
                )
                try:
                    with span.stage("execute"):
                        if is_update:
                            # Update statements are atomic: any failure
                            # inside the runner rolls back every physical
                            # write before the exception escapes.  The
                            # trailing flush stays outside the scope -- once
                            # the runner returned, the statement's effects
                            # are complete and a failure while flushing
                            # leaves the post-state.
                            with self._atomic_scope():
                                result = runner()
                        else:
                            result = runner()
                        self.pool.flush_statement()
                except BaseException as error:
                    self.recorder.record(
                        "statement.error",
                        level=observe_events.ERROR,
                        text=entry.text[:120],
                        error=f"{type(error).__name__}: {error}",
                    )
                    self.query_stats.record_error(
                        entry.fingerprint(index), entry.text
                    )
                    raise
                result.io = self.stats.delta(before, scope)
        finally:
            self._ambient.statement_time = previous_time
            if stamp is not None:
                self.clock.end_statement(stamp)
            elif is_update:
                # An update refused before its stamp was allocated
                # (analysis failure, say) still consumes its tick: the
                # clock counts update *attempts*, so the timestamps of
                # later statements do not depend on whether an earlier
                # one was accepted.  Nothing is written at this chronon.
                self.clock.advance()
            while held:
                latch = held.pop()
                if is_update or isinstance(statement, ast.CopyStmt):
                    latch.release_exclusive()
                else:
                    latch.release_shared()
            if ddl:
                catalog_latch.release_exclusive()
            else:
                catalog_latch.release_shared()
        self.metrics.inc(f"statements.{result.kind}")
        self.metrics.observe("statement.input_pages", result.io.input_pages)
        self.metrics.observe("statement.output_pages", result.io.output_pages)
        self.recorder.record(
            "statement.end",
            statement=result.kind,
            input_pages=result.io.input_pages,
            output_pages=result.io.output_pages,
            rows=len(result.rows),
        )
        # Update statements advance the per-relation update count -- the
        # paper's n, which the stats store's Fig. 9 model predicts with.
        if isinstance(
            statement, (ast.AppendStmt, ast.DeleteStmt, ast.ReplaceStmt)
        ):
            for name in statement_names:
                self._update_counts[name] = (
                    self._update_counts.get(name, 0) + 1
                )
        elapsed = time.perf_counter() - started
        degraded = (
            self.metrics.counter_value("exec.degraded") > degraded_before
        )
        self._record_statement_stats(
            entry, index, statement, result, span, elapsed,
            plan_cache_hit, degraded,
        )
        return result

    def _record_statement_stats(
        self, entry, index, statement, result, span, elapsed,
        plan_cache_hit, degraded,
    ) -> None:
        """Fold one finished statement into the query-statistics store
        (and the slow-query log past its threshold).

        Pure-Python aggregation over the Result's already-metered I/O --
        recording never touches a page, preserving observe neutrality.
        """
        io = result.io
        update_count = growth = None
        if isinstance(statement, ast.RetrieveStmt) and io.input_pages > 0:
            update_count, growth = self._prediction_inputs(io)
        fp = entry.fingerprint(index)
        predicted = self.query_stats.record(
            fp,
            text=entry.text,
            kind=result.kind,
            elapsed=elapsed,
            rows=len(result.rows),
            input_pages=io.input_pages,
            output_pages=io.output_pages,
            pages_by_method=self._pages_by_method(io),
            plan_cache_hit=plan_cache_hit,
            degraded=degraded,
            update_count=update_count,
            growth_rate=growth,
        )
        if predicted is not None and span.enabled:
            span.annotate(
                predicted_pages=round(predicted, 2),
                actual_pages=io.input_pages,
            )
        if self.slowlog.should_log(elapsed):
            trace = None
            if span.enabled:
                trace = span.as_dict()
                # The root span is still open (it finishes when the
                # statement context exits); stamp the measured elapsed
                # time so the logged tree is complete.
                trace["duration_ms"] = elapsed * 1000.0
            plan = None
            if isinstance(statement, ast.RetrieveStmt):
                try:
                    plan = self.explain(entry.text)
                except Exception:
                    plan = None
            self.slowlog.record(
                text=entry.text,
                fingerprint=fp,
                kind=result.kind,
                elapsed_ms=elapsed * 1000.0,
                rows=len(result.rows),
                input_pages=io.input_pages,
                output_pages=io.output_pages,
                io=io.as_dict(),
                trace=trace,
                plan=plan,
            )

    def _relation_base(self, name: str) -> str:
        """Strip partition (``#N``) and file-role (``.primary``, ...)
        suffixes from a metered file name."""
        return name.split("#", 1)[0].split(".", 1)[0]

    def _pages_by_method(self, io) -> "dict[str, int]":
        """Group a delta's page reads by the relation's access method."""
        pages: "dict[str, int]" = {}
        for name, counters in io.by_relation.items():
            if counters.reads <= 0:
                continue
            relation = self._relations.get(self._relation_base(name))
            if relation is not None:
                method = relation.structure.value
            elif name in ("relations", "attributes", "partitions"):
                method = "system"
            else:
                method = "temporary"
            pages[method] = pages.get(method, 0) + counters.reads
        return pages

    def _prediction_inputs(self, io):
        """(update count n, growth rate g) for a query's Fig. 9 model.

        *n* sums the update statements applied to the user relations the
        query read; *g* follows the paper's law for the dominant (most
        pages read) relation's type and loading factor.
        """
        read_bases: "dict[str, int]" = {}
        for name, counters in io.by_relation.items():
            if counters.reads <= 0:
                continue
            base = self._relation_base(name)
            if base in self._relations:
                read_bases[base] = read_bases.get(base, 0) + counters.reads
        if not read_bases:
            return None, None
        n = sum(self._update_counts.get(base, 0) for base in read_bases)
        primary = max(read_bases.items(), key=lambda item: item[1])[0]
        relation = self._relations[primary]
        growth = growth_rate_for(
            relation.schema.type.value, relation.fillfactor
        )
        return n, growth

    @staticmethod
    def _statement_relations(statement, analysis) -> "set[str]":
        """The relation names an analyzed statement reads or writes."""
        names = {
            info.relation.schema.name for info in analysis.vars.values()
        }
        if isinstance(statement, ast.AppendStmt):
            names.add(statement.relation)
        return names

    def _planned_runner(
        self, entry: _PlanEntry, index: int, span, params, analysis=None
    ):
        """Resolve one statement to a zero-argument execution callable.

        Query and update statements are analyzed (span stage
        ``semantics``, cached across executions) and planned (stage
        ``plan``: Executor construction resolves the as-of period and
        access-path state); everything else dispatches directly.
        """
        statement = entry.statements[index]
        if isinstance(
            statement,
            (ast.RetrieveStmt, ast.AppendStmt, ast.DeleteStmt,
             ast.ReplaceStmt),
        ):
            if analysis is None:
                analysis = self._analysis_for(entry, index, span)
            with span.stage("plan"):
                # The plan cache keys on (fingerprint, range table,
                # catalog epoch, stats epoch): the planner's cached
                # access-path decisions expire whenever DDL or bulk
                # loads move the statistics they priced.
                plan_key = (
                    entry.fingerprint(index),
                    self._ranges_key(),
                    self._catalog_epoch,
                    self._stats_epoch,
                )
                executor = Executor(
                    self, analysis, params=params, plan_key=plan_key
                )
            if isinstance(statement, ast.RetrieveStmt):
                return executor.run_retrieve
            if isinstance(statement, ast.AppendStmt):
                return executor.run_append
            if isinstance(statement, ast.DeleteStmt):
                return executor.run_delete
            return executor.run_replace
        return lambda: self._dispatch(statement)

    def _dispatch(self, statement) -> Result:
        if isinstance(statement, ast.RangeStmt):
            self.relation(statement.relation)  # must exist
            self.current_ranges[statement.var] = statement.relation
            self._invalidate_plans()
            return Result(
                kind="range",
                message=f"{statement.var} ranges over {statement.relation}",
            )
        if isinstance(statement, ast.CreateStmt):
            self.create_relation(
                statement.relation,
                statement.columns,
                persistent=statement.persistent,
                kind=statement.kind,
            )
            return Result(kind="create", message=statement.relation)
        if isinstance(statement, ast.ModifyStmt):
            options = dict(statement.options)
            self.modify_relation(
                statement.relation,
                statement.structure,
                key=statement.key,
                fillfactor=int(options.pop("fillfactor", 100)),
                primary=str(options.pop("primary", "hash")),
                history=str(options.pop("history", "simple")),
                zonemap=int(options.pop("zonemap", 0)),
            )
            if options:
                raise TQuelSemanticError(
                    f"unknown modify options: {sorted(options)}"
                )
            return Result(kind="modify", message=statement.relation)
        if isinstance(statement, ast.IndexStmt):
            options = dict(statement.options)
            self.create_index(
                statement.relation,
                statement.index_name,
                statement.attribute,
                structure=str(options.pop("structure", "hash")),
                levels=int(options.pop("levels", 1)),
                fillfactor=int(options.pop("fillfactor", 100)),
            )
            if options:
                raise TQuelSemanticError(
                    f"unknown index options: {sorted(options)}"
                )
            return Result(kind="index", message=statement.index_name)
        if isinstance(statement, ast.PartitionStmt):
            options = dict(statement.options)
            parallel = str(options.pop("parallel", "serial"))
            bounds = options.pop("bounds", None)
            if options:
                raise TQuelSemanticError(
                    f"unknown partition options: {sorted(options)}"
                )
            self.partition_relation(
                statement.relation,
                statement.method,
                statement.attribute,
                statement.count,
                parallel=parallel,
                bounds=bounds,
            )
            return Result(kind="partition", message=statement.relation)
        if isinstance(statement, ast.DestroyStmt):
            for name in statement.relations:
                self.destroy_relation(name)
            return Result(
                kind="destroy", message=", ".join(statement.relations)
            )
        if isinstance(statement, ast.CopyStmt):
            return self._run_copy(statement)
        if isinstance(statement, ast.VacuumStmt):
            if not isinstance(statement.before, ast.TempConst):
                raise TQuelSemanticError(
                    "vacuum's cutoff must be a temporal constant"
                )
            removed = self.vacuum_relation(
                statement.relation, statement.before.text
            )
            return Result(kind="vacuum", count=removed)
        raise ExecutionError(f"cannot execute {statement!r}")

    # -- file copy -----------------------------------------------------------------------

    def _run_copy(self, statement: ast.CopyStmt) -> Result:
        relation = self._require_user_relation(statement.relation)
        schema = relation.schema
        if statement.direction == "from":
            rows = []
            with open(statement.path, "r", encoding="ascii") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    rows.append(
                        self._parse_copy_line(schema, line, line_number)
                    )
            count = mutate.load_rows(relation, rows, self.statement_now())
            return Result(kind="copy", count=count)
        with open(statement.path, "w", encoding="ascii") as handle:
            count = 0
            for row in relation.all_rows():
                handle.write(self._format_copy_line(schema, row) + "\n")
                count += 1
        return Result(kind="copy", count=count)

    def _parse_copy_line(self, schema, line: str, line_number: int):
        parts = line.split("\t")
        if len(parts) == len(schema.user_fields):
            fields = schema.user_fields
        elif len(parts) == len(schema.fields):
            fields = schema.fields
        else:
            raise ExecutionError(
                f"copy line {line_number}: expected "
                f"{len(schema.user_fields)} or {len(schema.fields)} fields, "
                f"got {len(parts)}"
            )
        values = []
        for spec, text in zip(fields, parts):
            if spec.type is AttributeType.CHAR:
                values.append(text)
            elif spec.type is AttributeType.TIME:
                values.append(self.parse_temporal_text(text))
            elif spec.type in (AttributeType.F4, AttributeType.F8):
                values.append(float(text))
            else:
                values.append(int(text))
        return tuple(values)

    @staticmethod
    def _format_copy_line(schema, row) -> str:
        parts = []
        for spec, value in zip(schema.fields, row):
            if spec.type is AttributeType.TIME:
                parts.append(format_chronon(value, Resolution.SECOND))
            else:
                parts.append(str(value))
        return "\t".join(parts)
