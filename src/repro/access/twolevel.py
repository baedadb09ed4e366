"""The two-level store of Section 6.

"We adopt a two level store with two storage areas to separate history data
from current data.  The primary store contains current versions which can
satisfy all non-temporal queries ...  The history store holds the remaining
history versions."  (Section 6, citing [Ahn 1986].)

* The **primary store** is a conventional keyed structure (hash or ISAM)
  holding one record per logical tuple -- its current version.  A `replace`
  overwrites that record *in place*, so the primary store never grows and
  non-temporal queries keep their update-count-0 cost forever (Figure 10's
  "2-Level Store" column).
* The **history store** is an append-only area receiving superseded
  versions.  Two layouts are provided:

  - ``SIMPLE``: versions are appended heap-style in arrival order; each
    logical tuple's versions are threaded on a per-tuple version chain, so
    a version scan reads one page per scattered history version;
  - ``CLUSTERED``: "clustering history versions of the same tuple into a
    minimum number of pages, e.g. 28 history versions into 4 pages"
    (Section 6) -- each tuple's versions pack into pages dedicated to it.

Record ids in a two-level store carry a store tag: ``("p", page, slot)``
for the primary store, ``("h", page, slot)`` for the history store.

The paper *estimated* the two-level store's costs (Figure 10); this module
implements it, so the benchmark measures them.
"""

from __future__ import annotations

import enum

from repro.access.base import (
    DecodeCache,
    RowView,
    StructureKind,
    fetch_batches,
)
from repro.access.hashfile import HashFile
from repro.access.heap import HeapFile
from repro.access.isam import IsamFile
from repro.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.record import RecordCodec


class HistoryLayout(enum.Enum):
    """How the history store arranges superseded versions."""

    SIMPLE = "simple"
    CLUSTERED = "clustered"


class _ClusteredHistory:
    """History pages dedicated per logical tuple (the Clustered column)."""

    def __init__(self, file, codec: RecordCodec):
        self._file = file
        self._codec = codec
        self._cache = DecodeCache(codec)
        self._pages_by_key: "dict[object, list[int]]" = {}
        self._row_count = 0

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        return self._file.page_count

    def append(self, key, row: tuple) -> tuple:
        record = self._codec.encode(row)
        pages = self._pages_by_key.setdefault(key, [])
        if pages:
            page_id = pages[-1]
            page = self._file.read(page_id)
            if page.count < page.capacity:
                slot = page.append(record)
                self._file.mark_dirty(page_id)
                self._row_count += 1
                return ("h", page_id, slot)
        page_id, page = self._file.allocate()
        pages.append(page_id)
        slot = page.append(record)
        self._file.mark_dirty(page_id)
        self._row_count += 1
        return ("h", page_id, slot)

    def snapshot_meta(self) -> dict:
        return {
            "row_count": self._row_count,
            "pages_by_key": [
                [key, list(pages)]
                for key, pages in self._pages_by_key.items()
            ],
        }

    def restore_meta(self, meta: dict) -> None:
        self._row_count = int(meta["row_count"])
        self._pages_by_key = {
            key: [int(p) for p in pages]
            for key, pages in meta["pages_by_key"]
        }

    def _batches(self, pages, ahead):
        for page_id, slots, rows in fetch_batches(
            self._file, self._cache, pages, ahead
        ):
            yield ("h", page_id), slots, rows

    def scan_batches(self, ahead=False):
        return self._batches(range(self._file.page_count), ahead)

    def version_batches(self, key, ahead=False):
        """*key*'s versions, oldest first, page by page (clustered pages
        are dedicated to one tuple, so a whole page is one batch)."""
        return self._batches(self._pages_by_key.get(key, []), ahead)

    def read(self, page_id: int, slot: int) -> tuple:
        page = self._file.read(page_id)
        return self._cache.rows(page_id, page)[slot]


class _SimpleHistory:
    """Heap-ordered history with per-tuple version chains (Simple column)."""

    def __init__(self, file, codec: RecordCodec):
        self._heap = HeapFile(file, codec)
        self._heap.build([])
        self._rids_by_key: "dict[object, list[tuple]]" = {}

    @property
    def row_count(self) -> int:
        return self._heap.row_count

    @property
    def page_count(self) -> int:
        return self._heap.page_count

    def append(self, key, row: tuple) -> tuple:
        page_id, slot = self._heap.insert(row)
        rid = ("h", page_id, slot)
        self._rids_by_key.setdefault(key, []).append(rid)
        return rid

    def snapshot_meta(self) -> dict:
        return {
            "heap": self._heap.snapshot_meta(),
            "rids_by_key": [
                [key, [[rid[1], rid[2]] for rid in rids]]
                for key, rids in self._rids_by_key.items()
            ],
        }

    def restore_meta(self, meta: dict) -> None:
        self._heap.restore_meta(meta["heap"])
        self._rids_by_key = {
            key: [("h", int(p), int(s)) for p, s in rids]
            for key, rids in meta["rids_by_key"]
        }

    def scan_batches(self, ahead=False):
        for page_id, slots, rows in self._heap.scan_batches(ahead=ahead):
            yield ("h", page_id), slots, rows

    def version_batches(self, key, ahead=False):
        """Follow the per-tuple version chain: one single-version batch
        and one metered read per version (deduplicated only by the
        buffer pool, as a chain walk would be)."""
        rids = self._rids_by_key.get(key, [])
        pages = [page_id for _, page_id, _ in rids]
        batches = self._heap._batches(pages, ahead)
        for (_, page_id, slot), (_, _, rows) in zip(rids, batches):
            yield ("h", page_id), (slot,), [rows[slot]]

    def read(self, page_id: int, slot: int) -> tuple:
        return self._heap.read_rid((page_id, slot))


class TwoLevelStore(RowView):
    """Primary store (current versions) + history store (the rest)."""

    kind = StructureKind.TWO_LEVEL

    def __init__(
        self,
        pool: BufferPool,
        name: str,
        codec: RecordCodec,
        key_index: int,
        primary_kind: StructureKind = StructureKind.HASH,
        layout: HistoryLayout = HistoryLayout.SIMPLE,
    ):
        if key_index is None:
            raise AccessMethodError("a two-level store requires a key")
        self._codec = codec
        self._key_index = key_index
        self._layout = layout
        primary_file = pool.create_file(f"{name}.primary", codec.record_size)
        if primary_kind is StructureKind.HASH:
            self._primary = HashFile(primary_file, codec, key_index)
        elif primary_kind is StructureKind.ISAM:
            self._primary = IsamFile(primary_file, codec, key_index)
        else:
            raise AccessMethodError(
                f"primary store must be hash or isam, not {primary_kind}"
            )
        history_file = pool.create_file(f"{name}.history", codec.record_size)
        if layout is HistoryLayout.CLUSTERED:
            self._history = _ClusteredHistory(history_file, codec)
        else:
            self._history = _SimpleHistory(history_file, codec)

    # -- metadata ----------------------------------------------------------

    @property
    def codec(self) -> RecordCodec:
        return self._codec

    @property
    def key_index(self) -> int:
        return self._key_index

    @property
    def layout(self) -> HistoryLayout:
        return self._layout

    @property
    def primary(self):
        """The primary store's access method (current versions)."""
        return self._primary

    @property
    def row_count(self) -> int:
        return self._primary.row_count + self._history.row_count

    @property
    def page_count(self) -> int:
        return self._primary.page_count + self._history.page_count

    @property
    def primary_pages(self) -> int:
        return self._primary.page_count

    @property
    def history_pages(self) -> int:
        return self._history.page_count

    def keyed_on(self, attribute_index: int) -> bool:
        return self._primary.keyed_on(attribute_index)

    def snapshot_meta(self) -> dict:
        """Structure metadata for the persistence layer (JSON-safe)."""
        return {
            "primary_kind": self._primary.kind.value,
            "primary": self._primary.snapshot_meta(),
            "layout": self._layout.value,
            "history": self._history.snapshot_meta(),
        }

    def restore_meta(self, meta: dict) -> None:
        """Reinstate metadata; both backing files must hold their pages."""
        self._primary.restore_meta(meta["primary"])
        self._history.restore_meta(meta["history"])

    # -- loading & mutation -------------------------------------------------

    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        """Bulk-load *rows* as current versions into the primary store."""
        self._primary.build(rows, fillfactor)

    def insert_current(self, row: tuple) -> tuple:
        """Append a brand-new logical tuple (TQuel ``append``)."""
        page_id, slot = self._primary.insert(row)
        return ("p", page_id, slot)

    def overwrite_current(self, rid: tuple, row: tuple) -> None:
        """Replace the current version in place (primary store only)."""
        store, page_id, slot = rid
        if store != "p":
            raise AccessMethodError(
                "only primary-store records can be overwritten"
            )
        self._primary.update((page_id, slot), row)

    def append_history(self, key, row: tuple) -> tuple:
        """Move a superseded version into the history store."""
        return self._history.append(key, row)

    # -- reads ---------------------------------------------------------------
    #
    # Batch addresses carry the store tag: ``("p", page)`` for the
    # primary store, ``("h", page)`` for the history store.
    # *current_only* reads the primary store alone -- Section 6's fast
    # path for non-temporal queries.

    def rid_at(self, addr, slot: int) -> tuple:
        store, page_id = addr
        return (store, page_id, slot)

    def scan_batches(self, ahead=False, current_only=False):
        """Per-page batches: primary store, then history store."""
        for page_id, slots, rows in self._primary.scan_batches(ahead=ahead):
            yield ("p", page_id), slots, rows
        if not current_only:
            yield from self._history.scan_batches(ahead)

    def lookup_batches(self, key, ahead=False, current_only=False):
        """Version scan in per-page batches: current, then history."""
        for page_id, slots, rows in self._primary.lookup_batches(key, ahead):
            yield ("p", page_id), slots, rows
        if not current_only:
            yield from self._history.version_batches(key, ahead)

    def read_rid(self, rid: tuple) -> tuple:
        store, page_id, slot = rid
        if store == "p":
            return self._primary.read_rid((page_id, slot))
        return self._history.read(page_id, slot)
