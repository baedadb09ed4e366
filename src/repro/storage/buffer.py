"""Per-file buffer pools and metered file access.

The paper "allocated only 1 buffer for each user relation so that a page
resides in main memory only until another page from the same relation is
brought in" (Section 5.1).  :class:`BufferedFile` implements exactly that: a
small LRU pool (default one slot) in front of a
:class:`~repro.storage.pager.PagedFile`, reporting page reads and writes to
the shared :class:`~repro.storage.iostats.IOStats` meter.

Accounting rules:

* a :meth:`read` that misses the pool costs one page read; a hit is free;
  :meth:`read_run` costs exactly what one :meth:`read` per page would;
* a freshly :meth:`allocate`-d page enters the pool dirty with no read cost;
* dirty pages cost one page write when they leave the pool (eviction or
  :meth:`flush`);
* mutating a page requires it to be resident: call :meth:`read` (or
  :meth:`allocate`), mutate the returned page immediately, then call
  :meth:`mark_dirty` before any other pool operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import fault
from repro.errors import StorageError
from repro.observe.events import DEBUG as _EVENT_DEBUG
from repro.storage.iostats import IOStats
from repro.storage.page import Page
from repro.storage.pager import PagedFile


class BufferedFile:
    """A paged file fronted by its own (tiny) buffer pool."""

    def __init__(
        self,
        name: str,
        record_size: int,
        stats: IOStats,
        buffers: int = 1,
        system: bool = False,
    ):
        if buffers < 1:
            raise StorageError(f"need at least 1 buffer, got {buffers}")
        self._name = name
        self._file = PagedFile(record_size)
        self._stats = stats
        self._capacity = buffers
        # page_id -> dirty flag; insertion order tracks recency (LRU first).
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        # The statement undo log currently capturing pre-images of this
        # file's pages, or None (set by BufferPool.begin_undo).
        self._undo = None
        # Observability hooks (set by BufferPool.attach_observers): a
        # MetricsRegistry counting pool hits/misses, a FlightRecorder for
        # eviction events, a PageHeatmap for per-page access counts.
        # All three record through plain unmetered Python -- they never
        # issue a page access, so page accounting is unaffected.
        self._metrics = None
        self._recorder = None
        self._heatmap = None
        # Statement touch tracking (set by BufferPool.create_file): called
        # whenever a page enters this file's pool, so end-of-statement
        # flushing can cover exactly the files the statement touched
        # instead of every file in the database -- a concurrent session's
        # resident pages must not be evicted by someone else's statement.
        self._on_touch = None
        stats.register(name, system=system)

    @property
    def name(self) -> str:
        return self._name

    @property
    def record_size(self) -> int:
        return self._file.record_size

    @property
    def page_count(self) -> int:
        return self._file.page_count

    @property
    def buffers(self) -> int:
        """Size of this file's buffer pool in pages."""
        return self._capacity

    def resize_pool(self, buffers: int) -> None:
        """Change the pool size (flushes first so accounting stays exact).

        Requesting the current capacity is a no-op: flushing anyway would
        spuriously evict resident pages and perturb the read accounting of
        whatever runs next.
        """
        if buffers < 1:
            raise StorageError(f"need at least 1 buffer, got {buffers}")
        if buffers == self._capacity:
            return
        self.flush()
        self._capacity = buffers

    def _evict_to(self, capacity: int) -> None:
        while len(self._resident) > capacity:
            fault.point("buffer.evict")
            page_id, dirty = self._resident.popitem(last=False)
            recorder = self._recorder
            if recorder is not None and recorder.min_level <= _EVENT_DEBUG:
                recorder.record(
                    "buffer.evict",
                    level=_EVENT_DEBUG,
                    file=self._name,
                    page=page_id,
                    dirty=dirty,
                )
            if dirty:
                fault.point("pager.write")
                self._stats.record_write(self._name)
                if self._heatmap is not None and self._heatmap.enabled:
                    self._heatmap.record_write(self._name, page_id)

    def read(self, page_id: int) -> Page:
        """Fetch a page, counting a disk read unless it is resident."""
        if self._undo is not None:
            self._undo.note_page(self, page_id)
        if self._on_touch is not None:
            self._on_touch(self._name)
        if page_id in self._resident:
            if self._metrics is not None:
                self._metrics.inc("buffer.hits")
            self._resident.move_to_end(page_id)
            return self._file.page(page_id)
        if self._metrics is not None:
            self._metrics.inc("buffer.misses")
        self._stats.record_read(self._name)
        if self._heatmap is not None and self._heatmap.enabled:
            self._heatmap.record_read(self._name, page_id)
        self._evict_to(self._capacity - 1)
        self._resident[page_id] = False
        return self._file.page(page_id)

    def read_run(self, page_ids) -> "list[Page]":
        """Fetch *page_ids* in order, metered exactly like
        ``[self.read(i) for i in page_ids]``.

        The run replays read's hit/miss/evict/write-back sequence on the
        pool, then reports it once: one touch, one read and one write
        count to the meter, one hits and one misses increment.  Sinks
        that observe single accesses -- an undo log, an enabled heatmap,
        a debug-level recorder, active failpoints -- get the per-page
        loop instead, so they see every event they see today.
        """
        heatmap, recorder = self._heatmap, self._recorder
        if (
            self._undo is not None
            or fault.is_active()
            or (heatmap is not None and heatmap.enabled)
            or (recorder is not None and recorder.min_level <= _EVENT_DEBUG)
        ):
            return [self.read(page_id) for page_id in page_ids]
        if not page_ids:
            return []
        if self._on_touch is not None:
            self._on_touch(self._name)
        resident, capacity = self._resident, self._capacity
        misses = writes = 0
        for page_id in page_ids:
            if page_id in resident:
                resident.move_to_end(page_id)
                continue
            misses += 1
            while len(resident) >= capacity:
                writes += resident.popitem(last=False)[1]
            resident[page_id] = False
        hits = len(page_ids) - misses
        if misses:
            self._stats.record_read(self._name, misses)
        if writes:
            self._stats.record_write(self._name, writes)
        if self._metrics is not None:
            if hits:
                self._metrics.inc("buffer.hits", hits)
            if misses:
                self._metrics.inc("buffer.misses", misses)
        page = self._file.page
        return [page(page_id) for page_id in page_ids]

    def allocate(self, record_size: "int | None" = None) -> "tuple[int, Page]":
        """Allocate a fresh page; it enters the pool dirty (no read cost)."""
        if self._undo is not None:
            self._undo.note_allocate(self)
        if self._on_touch is not None:
            self._on_touch(self._name)
        page_id = self._file.allocate(record_size)
        self._evict_to(self._capacity - 1)
        self._resident[page_id] = True
        return page_id, self._file.page(page_id)

    def mark_dirty(self, page_id: int) -> None:
        """Record that the resident page *page_id* was mutated."""
        if page_id not in self._resident:
            raise StorageError(
                f"page {page_id} of {self._name} is not resident; read it "
                "before mutating"
            )
        self._resident[page_id] = True
        self._resident.move_to_end(page_id)

    def is_resident(self, page_id: int) -> bool:
        """Whether *page_id* currently occupies a buffer slot."""
        return page_id in self._resident

    def flush(self) -> None:
        """Write out dirty pages and empty the pool."""
        self._evict_to(0)

    def peek(self, page_id: int) -> Page:
        """Unmetered access for tests and integrity checks only."""
        return self._file.page(page_id)

    # -- statement undo support (repro.engine.undo) ------------------------

    def capture_page(self, page_id: int) -> "tuple[bytes, bool]":
        """Pre-image and dirty flag of one page (unmetered, for undo)."""
        return (
            self._file.page(page_id).to_bytes(),
            self._resident.get(page_id, False),
        )

    def restore_pages(
        self,
        images: "dict[int, tuple[bytes, bool]]",
        page_count: int,
    ) -> None:
        """Roll back to captured pre-images and truncate grown pages.

        Unmetered by design: a rollback models recovery, not disk work
        the paper's benchmark would count.  Captured pages get their
        exact byte image and pre-statement dirty flag back; pages
        allocated after the capture point are dropped, including their
        buffer slots (no write is recorded for them).
        """
        for page_id, (image, dirty) in images.items():
            if page_id < page_count:
                self._file.page(page_id).restore_image(image)
                if page_id in self._resident:
                    self._resident[page_id] = dirty
        self._file.truncate(page_count)
        for page_id in [
            resident for resident in self._resident if resident >= page_count
        ]:
            del self._resident[page_id]

    def dump_pages(self):
        """Yield (record_size, image) for every page (persistence)."""
        self.flush()
        for page_id in range(self._file.page_count):
            page = self._file.page(page_id)
            yield page.record_size, page.to_bytes()

    def load_pages(self, pairs) -> None:
        """Restore pages from (record_size, image) pairs (persistence)."""
        if self._file.page_count:
            raise StorageError("load_pages requires an empty file")
        for record_size, image in pairs:
            self._file.append_image(image, record_size)

    def __repr__(self) -> str:
        return (
            f"BufferedFile({self._name!r}, pages={self.page_count}, "
            f"buffers={self._capacity})"
        )


class BufferPool:
    """Factory tying files of one database to a shared I/O meter.

    Keeps the paper's convention in one place: user relations get one buffer
    page each (overridable per file), system relations are metered separately.
    """

    def __init__(self, stats: "IOStats | None" = None, default_buffers: int = 1):
        self._stats = stats if stats is not None else IOStats()
        self._default_buffers = default_buffers
        self._files: "dict[str, BufferedFile]" = {}
        self._undo = None
        # Files touched per attribution scope since the scope's last
        # statement flush (see note_touch / flush_statement).
        self._touched: "dict[object, set[str]]" = {}
        # Update statements capture page pre-images through a pool-global
        # undo log; concurrent writers must take turns with it.
        self.undo_mutex = threading.Lock()
        self.metrics = None
        self.recorder = None
        self.heatmap = None

    @property
    def stats(self) -> IOStats:
        return self._stats

    def attach_observers(
        self, metrics=None, recorder=None, heatmap=None
    ) -> None:
        """Wire observability sinks into every file (current and future).

        *metrics* counts pool hits/misses, *recorder* receives eviction
        events (at debug level), *heatmap* captures per-page access
        counts.  Passing ``None`` leaves the corresponding sink as is.
        """
        if metrics is not None:
            self.metrics = metrics
        if recorder is not None:
            self.recorder = recorder
        if heatmap is not None:
            self.heatmap = heatmap
        for buffered in self._files.values():
            buffered._metrics = self.metrics
            buffered._recorder = self.recorder
            buffered._heatmap = self.heatmap

    @property
    def undo(self):
        """The active statement undo log, or None."""
        return self._undo

    def begin_undo(self, log) -> None:
        """Route page reads/allocations of every file through *log*.

        Files created while the log is active are covered too (an update
        never creates files today, but the hook keeps that invariant
        local).  Nested logs are refused: statement scopes never nest.
        """
        if self._undo is not None:
            raise StorageError("an undo scope is already active")
        self._undo = log
        for buffered in self._files.values():
            buffered._undo = log

    def end_undo(self) -> None:
        """Detach the active undo log (after commit or rollback)."""
        self._undo = None
        for buffered in self._files.values():
            buffered._undo = None

    def create_file(
        self,
        name: str,
        record_size: int,
        buffers: "int | None" = None,
        system: bool = False,
    ) -> BufferedFile:
        """Create (or replace) the file backing relation *name*."""
        buffered = BufferedFile(
            name,
            record_size,
            self._stats,
            buffers=buffers if buffers is not None else self._default_buffers,
            system=system,
        )
        replaced = self._files.get(name)
        if replaced is not None:
            replaced._undo = None
        self._files[name] = buffered
        buffered._undo = self._undo
        buffered._metrics = self.metrics
        buffered._recorder = self.recorder
        buffered._heatmap = self.heatmap
        buffered._on_touch = self.note_touch
        return buffered

    def drop_file(self, name: str) -> None:
        """Forget the file for *name* (its counters are retained)."""
        self._files.pop(name, None)

    def file(self, name: str) -> BufferedFile:
        if name not in self._files:
            raise StorageError(f"no file for relation {name!r}")
        return self._files[name]

    def note_touch(self, name: str) -> None:
        """Record that the active scope brought a page of *name* into its
        pool (called by the files themselves on read/allocate)."""
        scope = self._stats.active_scope
        touched = self._touched.get(scope)
        if touched is None:
            touched = self._touched[scope] = set()
        touched.add(name)

    def flush_statement(self) -> None:
        """Flush the files the active scope touched since its last flush.

        Observably identical to :meth:`flush_all` for a single session --
        a file can only hold resident pages if some statement touched it
        since that file's last flush -- but under concurrent sessions it
        leaves other sessions' resident pages alone, so their page
        accounting is not perturbed by this session's statements.
        """
        touched = self._touched.pop(self._stats.active_scope, None)
        if not touched:
            return
        for name in touched:
            buffered = self._files.get(name)
            if buffered is not None:
                buffered.flush()

    def flush_all(self) -> None:
        """Flush every file (checkpointing, DDL, explicit barriers)."""
        self._touched.clear()
        for buffered in self._files.values():
            buffered.flush()
