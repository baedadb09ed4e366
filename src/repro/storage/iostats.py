"""Disk-access accounting.

The benchmark "focused solely on the number of disk accesses per query at a
granularity of a page" and "counted only disk accesses to user relations"
(Section 5.1).  :class:`IOStats` is the single meter a database shares across
all of its files; every buffered file reports its reads and writes here,
tagged with the relation name and whether the relation is a user or a system
relation.

Queries are measured with checkpoints::

    before = stats.checkpoint()
    ...run the query...
    delta = stats.delta(before)     # IODelta with user/system reads/writes

Concurrent sessions share the meter but must not share each other's
numbers, so the meter also attributes every access to a *scope* -- the
session id of the statement running on the recording thread, installed
with :meth:`scoped`.  ``checkpoint(scope)`` / ``delta(since, scope)``
then measure one session's I/O alone, even while other sessions read and
write the same files.  With no scope argument both methods keep their
historical process-wide behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IOCounters:
    """Immutable (reads, writes) pair."""

    reads: int = 0
    writes: int = 0

    def __add__(self, other: "IOCounters") -> "IOCounters":
        return IOCounters(self.reads + other.reads, self.writes + other.writes)

    def __sub__(self, other: "IOCounters") -> "IOCounters":
        return IOCounters(self.reads - other.reads, self.writes - other.writes)


@dataclass(frozen=True)
class IODelta:
    """I/O performed between two checkpoints.

    ``user`` aggregates user relations (the paper's metric); ``system``
    aggregates system-catalog relations; ``by_relation`` breaks user and
    system I/O down per relation name.
    """

    user: IOCounters
    system: IOCounters
    by_relation: "dict[str, IOCounters]" = field(default_factory=dict)

    @property
    def input_pages(self) -> int:
        """The paper's "input cost": user-relation page reads."""
        return self.user.reads

    @property
    def output_pages(self) -> int:
        """The paper's "output cost": user-relation page writes."""
        return self.user.writes

    def as_dict(self) -> dict:
        """Stable JSON-safe form for programmatic consumption.

        ``{"user": {"reads": .., "writes": ..}, "system": {...},
        "by_relation": {name: {"reads": .., "writes": ..}, ...}}``
        """
        return {
            "user": {"reads": self.user.reads, "writes": self.user.writes},
            "system": {
                "reads": self.system.reads,
                "writes": self.system.writes,
            },
            "by_relation": {
                name: {"reads": counters.reads, "writes": counters.writes}
                for name, counters in sorted(self.by_relation.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IODelta":
        """Rebuild a delta from :meth:`as_dict` output (wire transfer)."""
        return cls(
            user=IOCounters(**data["user"]),
            system=IOCounters(**data["system"]),
            by_relation={
                name: IOCounters(**counters)
                for name, counters in data.get("by_relation", {}).items()
            },
        )

    @classmethod
    def from_scope_export(cls, exported: dict) -> "IODelta":
        """Build a delta from an :meth:`IOStats.export_scope` snapshot.

        Workers ship their metered I/O in export_scope form; the trace
        layer rebuilds it as an :class:`IODelta` so worker spans carry
        the same per-relation accounting as coordinator spans.
        """
        reads = exported.get("reads", {})
        writes = exported.get("writes", {})
        system_names = set(exported.get("system", ()))
        by_relation: "dict[str, IOCounters]" = {}
        user = system = IOCounters()
        for name in sorted(set(reads) | set(writes)):
            counters = IOCounters(reads.get(name, 0), writes.get(name, 0))
            by_relation[name] = counters
            if name in system_names:
                system = system + counters
            else:
                user = user + counters
        return cls(user=user, system=system, by_relation=by_relation)


# Shared zero delta for the (very common) nothing-happened case.
# IODelta is frozen and consumers only read it, so one instance serves.
_ZERO_IO = IOCounters()
_EMPTY_DELTA = IODelta(user=_ZERO_IO, system=_ZERO_IO)


class _ScopeState(threading.local):
    scope = None


class IOStats:
    """Mutable per-database I/O meter with per-scope attribution."""

    def __init__(self):
        self._reads: "dict[str, int]" = {}
        self._writes: "dict[str, int]" = {}
        self._system_names: "set[str]" = set()
        # scope -> {name: count}; populated only while a scope is active.
        self._scoped_reads: "dict[object, dict[str, int]]" = {}
        self._scoped_writes: "dict[object, dict[str, int]]" = {}
        # Every counter update bumps _version; snapshot() memoizes its
        # last copy against it, so the span tree's frequent snapshots
        # (one per pipeline stage) are shared-tuple reads unless pages
        # were actually touched in between.
        self._version = 0
        self._snap: "tuple[int, dict, dict] | None" = None
        self._snap_version = -1
        # Touch log: while a traced statement runs (touch_begin), every
        # *switch* of accessed relation appends (name, reads-before,
        # writes-before).  A run of accesses to one relation -- the
        # shape of every scan -- costs a single entry, so span deltas
        # walk the relations a span touched, not every registered name.
        self._touch_log: "list[tuple[str, int, int]] | None" = None
        self._touch_refs = 0
        self._touch_last: "str | None" = None
        self._local = _ScopeState()
        # Counter updates are read-modify-write; concurrent readers of
        # one relation hold only shared latches, so the meter needs its
        # own lock to keep process-wide totals exact.
        self._guard = threading.Lock()

    def register(self, name: str, system: bool = False) -> None:
        """Declare a relation so its class (user/system) is known."""
        with self._guard:
            self._reads.setdefault(name, 0)
            self._writes.setdefault(name, 0)
            self._version += 1
            if system:
                self._system_names.add(name)
            else:
                self._system_names.discard(name)

    # -- scope attribution ---------------------------------------------------

    @property
    def active_scope(self):
        """The scope accesses on this thread are attributed to (or None)."""
        return self._local.scope

    def scoped(self, scope):
        """Context manager attributing this thread's accesses to *scope*.

        Scopes nest by replacement: the innermost scope wins, and the
        previous one is restored on exit.  ``scope=None`` is a no-op.
        """
        return _ScopeGuard(self._local, scope)

    def record_read(self, name: str, pages: int = 1) -> None:
        """Count *pages* page reads against relation *name*."""
        scope = self._local.scope
        with self._guard:
            count = self._reads.get(name, 0) + pages
            self._reads[name] = count
            self._version += 1
            # Identity-first: the hot path re-reads the same interned
            # relation name; a rare equal-but-distinct string merely
            # appends a duplicate entry, which delta_touched's
            # first-seen rule ignores.
            if self._touch_log is not None and name is not self._touch_last:
                self._touch_log.append(
                    (name, count - pages, self._writes.get(name, 0))
                )
                self._touch_last = name
            if scope is not None:
                counters = self._scoped_reads.setdefault(scope, {})
                counters[name] = counters.get(name, 0) + pages

    def record_write(self, name: str, pages: int = 1) -> None:
        """Count *pages* page writes against relation *name*."""
        scope = self._local.scope
        with self._guard:
            count = self._writes.get(name, 0) + pages
            self._writes[name] = count
            self._version += 1
            if self._touch_log is not None and name is not self._touch_last:
                self._touch_log.append(
                    (name, self._reads.get(name, 0), count - pages)
                )
                self._touch_last = name
            if scope is not None:
                counters = self._scoped_writes.setdefault(scope, {})
                counters[name] = counters.get(name, 0) + pages

    def is_system(self, name: str) -> bool:
        """Whether *name* was registered as a system relation."""
        return name in self._system_names

    def _counter_maps(self, scope):
        if scope is None:
            return self._reads, self._writes
        return (
            self._scoped_reads.get(scope, {}),
            self._scoped_writes.get(scope, {}),
        )

    def checkpoint(self, scope=None) -> "dict[str, IOCounters]":
        """Snapshot current counters (pass to :meth:`delta` later).

        With *scope*, snapshot only that scope's attributed counters.
        """
        with self._guard:
            reads, writes = self._counter_maps(scope)
            names = set(reads) | set(writes)
            return {
                name: IOCounters(reads.get(name, 0), writes.get(name, 0))
                for name in names
            }

    def touch_begin(self) -> None:
        """Start (or join) touch-log accounting for a traced statement.

        Nestable and shared across threads: the log stays alive until
        every :meth:`touch_end` arrived, so concurrent traced
        statements observe process-wide I/O -- the same semantics
        checkpoints give.
        """
        with self._guard:
            self._touch_refs += 1
            if self._touch_log is None:
                self._touch_log = []
                self._touch_last = None

    def touch_end(self) -> None:
        """Leave touch-log accounting; drops the log on the last exit."""
        with self._guard:
            self._touch_refs -= 1
            if self._touch_refs <= 0:
                self._touch_refs = 0
                self._touch_log = None
                self._touch_last = None

    def touch_mark(self) -> "int | None":
        """Current touch-log position, or None when the log is off.

        Resets the run-length memory so the first access after the
        mark always logs its before-counts, whatever came before it.
        Lock-free: list length and attribute stores are GIL-atomic,
        and a lost run-length reset merely costs a duplicate log entry
        (which :meth:`delta_touched`'s first-seen rule ignores).
        """
        log = self._touch_log
        if log is None:
            return None
        self._touch_last = None
        return len(log)

    def delta_touched(self, mark: int) -> IODelta:
        """I/O performed since :meth:`touch_mark` position *mark*.

        The span-tree fast path: walks only the relations touched
        since the mark (one log entry per switch of relation), diffing
        their logged before-counts against the live counters.
        Lock-free by design -- every read here is GIL-atomic, and the
        result carries checkpoint semantics (process-wide I/O as of
        roughly now), which concurrent recorders cannot corrupt, only
        advance.
        """
        log = self._touch_log
        if log is None or len(log) <= mark:
            return _EMPTY_DELTA
        entries = log[mark:]
        reads_map = self._reads
        writes_map = self._writes
        if len(entries) == 1:
            # The overwhelmingly common shape: a span touched one
            # relation (or one unbroken run of them).
            name, reads_before, writes_before = entries[0]
            reads = reads_map.get(name, 0) - reads_before
            writes = writes_map.get(name, 0) - writes_before
            if reads == 0 and writes == 0:
                return _EMPTY_DELTA
            counters = IOCounters(reads, writes)
            if name in self._system_names:
                return IODelta(
                    user=_ZERO_IO,
                    system=counters,
                    by_relation={name: counters},
                )
            return IODelta(
                user=counters,
                system=_ZERO_IO,
                by_relation={name: counters},
            )
        first_touch: "dict[str, tuple[int, int]]" = {}
        for name, reads_before, writes_before in entries:
            if name not in first_touch:
                first_touch[name] = (reads_before, writes_before)
        user_reads = user_writes = system_reads = system_writes = 0
        by_relation: "dict[str, IOCounters]" = {}
        for name, (reads_before, writes_before) in first_touch.items():
            reads = reads_map.get(name, 0) - reads_before
            writes = writes_map.get(name, 0) - writes_before
            if reads == 0 and writes == 0:
                continue
            by_relation[name] = IOCounters(reads, writes)
            if name in self._system_names:
                system_reads += reads
                system_writes += writes
            else:
                user_reads += reads
                user_writes += writes
        if not by_relation:
            return _EMPTY_DELTA
        return IODelta(
            user=IOCounters(user_reads, user_writes),
            system=IOCounters(system_reads, system_writes),
            by_relation=by_relation,
        )

    def snapshot(self, scope=None) -> "tuple[int, dict, dict]":
        """Raw ``(version, reads, writes)`` view of the counters.

        The cheap sibling of :meth:`checkpoint` for hot callers that
        snapshot far more often than they diff: a span tree opens one
        snapshot per pipeline stage.  The copy is memoized against the
        meter's version counter, so consecutive snapshots with no page
        access in between share one tuple -- the common case for lex,
        parse and plan stages on a warm cache.  Treat the returned
        dicts as immutable; pass the tuple to :meth:`delta_since`.
        """
        with self._guard:
            if scope is None:
                if self._snap_version != self._version:
                    self._snap = (
                        self._version, dict(self._reads), dict(self._writes)
                    )
                    self._snap_version = self._version
                return self._snap
            reads, writes = self._counter_maps(scope)
            return self._version, dict(reads), dict(writes)

    def delta_since(self, since: "tuple[int, dict, dict]",
                    scope=None) -> IODelta:
        """I/O performed since a :meth:`snapshot` (raw counterpart of
        :meth:`delta`)."""
        version, before_reads, before_writes = since
        with self._guard:
            # Most pipeline stages (lex, parse, plan on a warm cache)
            # touch no pages at all; one integer compare skips the
            # copies and the scan.  The version also moves on writes
            # to *other* scopes, so scoped deltas fall through to the
            # dict comparison -- the fast path stays exact.
            if scope is None and version == self._version:
                return _EMPTY_DELTA
            reads, writes = self._counter_maps(scope)
            if reads == before_reads and writes == before_writes:
                return _EMPTY_DELTA
            now_reads, now_writes = dict(reads), dict(writes)
        user_reads = user_writes = system_reads = system_writes = 0
        by_relation: "dict[str, IOCounters]" = {}
        for name in now_reads.keys() | now_writes.keys():
            reads = now_reads.get(name, 0) - before_reads.get(name, 0)
            writes = now_writes.get(name, 0) - before_writes.get(name, 0)
            if reads == 0 and writes == 0:
                continue
            by_relation[name] = IOCounters(reads, writes)
            if name in self._system_names:
                system_reads += reads
                system_writes += writes
            else:
                user_reads += reads
                user_writes += writes
        return IODelta(
            user=IOCounters(user_reads, user_writes),
            system=IOCounters(system_reads, system_writes),
            by_relation=by_relation,
        )

    def delta(self, since: "dict[str, IOCounters]", scope=None) -> IODelta:
        """I/O performed since the *since* checkpoint."""
        user = IOCounters()
        system = IOCounters()
        by_relation: "dict[str, IOCounters]" = {}
        for name, now in self.checkpoint(scope).items():
            before = since.get(name, IOCounters())
            diff = now - before
            if diff.reads == 0 and diff.writes == 0:
                continue
            by_relation[name] = diff
            if name in self._system_names:
                system = system + diff
            else:
                user = user + diff
        return IODelta(user=user, system=system, by_relation=by_relation)

    def totals(self, scope=None) -> IODelta:
        """Lifetime I/O (delta from an empty checkpoint).

        With *scope*, the lifetime I/O attributed to that scope alone.
        """
        return self.delta({}, scope)

    def export_scope(self, scope=None) -> dict:
        """Serialize a scope's counters for transfer across processes.

        A process-pool worker meters its partition I/O on its own
        :class:`IOStats` (page files shipped to the worker are invisible
        to the coordinator's meter), then ships this JSON-safe snapshot
        back.  ``scope=None`` exports the worker's process-wide counters
        -- the usual case, since a worker runs exactly one task.
        Zero-count registrations are dropped: merging the export must
        add precisely the I/O that happened, nothing else.
        """
        with self._guard:
            reads, writes = self._counter_maps(scope)
            return {
                "reads": {
                    name: count
                    for name, count in sorted(reads.items())
                    if count
                },
                "writes": {
                    name: count
                    for name, count in sorted(writes.items())
                    if count
                },
                "system": sorted(
                    self._system_names
                    & (set(reads) | set(writes))
                ),
            }

    def merge_scope(self, scope, exported: dict) -> None:
        """Fold a worker's :meth:`export_scope` snapshot into this meter.

        Counts are added to the process-wide totals and, when *scope* is
        not ``None``, to that scope's attributed counters -- exactly as
        if the pages had been touched on a thread running under
        ``scoped(scope)``.  Merging is commutative and deterministic:
        names are applied in sorted order and only by addition, so any
        arrival order of worker results yields identical totals.
        """
        with self._guard:
            self._version += 1
            for name in exported.get("system", ()):
                self._system_names.add(name)
            for kind, totals, scoped in (
                ("reads", self._reads, self._scoped_reads),
                ("writes", self._writes, self._scoped_writes),
            ):
                for name, count in sorted(exported.get(kind, {}).items()):
                    totals[name] = totals.get(name, 0) + count
                    if scope is not None:
                        counters = scoped.setdefault(scope, {})
                        counters[name] = counters.get(name, 0) + count

    def drop_scope(self, scope) -> None:
        """Forget a closed session's attributed counters."""
        with self._guard:
            self._scoped_reads.pop(scope, None)
            self._scoped_writes.pop(scope, None)

    def reset(self) -> None:
        """Zero all counters (relation registrations are kept)."""
        with self._guard:
            self._version += 1
            for name in self._reads:
                self._reads[name] = 0
            for name in self._writes:
                self._writes[name] = 0
            self._scoped_reads.clear()
            self._scoped_writes.clear()


class _ScopeGuard:
    __slots__ = ("_local", "_scope", "_previous")

    def __init__(self, local, scope):
        self._local = local
        self._scope = scope
        self._previous = None

    def __enter__(self):
        self._previous = self._local.scope
        if self._scope is not None:
            self._local.scope = self._scope
        return self

    def __exit__(self, exc_type, exc, tb):
        self._local.scope = self._previous
