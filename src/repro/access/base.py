"""Common machinery for access methods.

An access method owns one :class:`~repro.storage.buffer.BufferedFile` and
knows how to *build* (bulk load, as ``modify`` does), *scan*, *lookup* by
key, *insert*, and *update in place*.  Records are Python tuples in schema
attribute order; the record codec turns them into page bytes.

Record ids (RIDs) are ``(page_id, slot)`` pairs.  Slots are stable: the
version semantics of the prototype never delete or move records.

Decoded-tuple caching: decoding a page is pure function of its byte image,
so each access method keeps a small cache ``page_id -> (page.version,
rows)``.  This changes nothing about I/O accounting (the page is still
fetched through the buffer pool first) but makes the pure-Python engine fast
enough to run the paper's full benchmark.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterator

from repro.errors import AccessMethodError
from repro.storage.buffer import BufferedFile
from repro.storage.page import NO_PAGE, Page
from repro.storage.record import RecordCodec

RID = tuple
"""Record id: a ``(page_id, slot)`` pair."""


class StructureKind(enum.Enum):
    """Storage-structure names as used in ``modify`` statements."""

    HEAP = "heap"
    HASH = "hash"
    ISAM = "isam"
    BTREE = "btree"
    TWO_LEVEL = "twolevel"


def effective_capacity(page_capacity: int, fillfactor: int) -> int:
    """Records initially placed per page under *fillfactor* percent.

    Ingres's ``fillfactor`` leaves free space in primary/data pages at
    ``modify`` time; with the paper's parameters this gives 8 tuples per
    page at 100 % and 4 at 50 % for the versioned relations.
    """
    if not 1 <= fillfactor <= 100:
        raise AccessMethodError(
            f"fillfactor must be 1..100, got {fillfactor}"
        )
    return max(1, (page_capacity * fillfactor) // 100)


class DecodeCache:
    """Cache of decoded rows per page, keyed by the page's version stamp."""

    __slots__ = ("_codec", "_entries")

    def __init__(self, codec: RecordCodec):
        self._codec = codec
        self._entries: "dict[int, tuple[int, list[tuple]]]" = {}

    def rows(self, page_id: int, page: Page) -> "list[tuple]":
        """Decoded rows of *page* (page must already be buffer-fetched)."""
        entry = self._entries.get(page_id)
        if entry is not None and entry[0] == page.version:
            return entry[1]
        rows = self._codec.decode_page(page)
        self._entries[page_id] = (page.version, rows)
        return rows

    def clear(self) -> None:
        self._entries.clear()


def fetch_batches(file: BufferedFile, cache: DecodeCache, page_ids, ahead):
    """Yield ``(page_id, rows)`` for *page_ids* in order: the one place
    batch walks fetch pages.

    With *ahead* the pages are fetched as one metered run before the
    first batch is yielded; the caller (the query plan) allows that only
    when nothing reads this file while the batches are consumed, so the
    read sequence is the per-page one.  Without it, or for a single
    page, each page is read when its batch is due.
    """
    rows = cache.rows
    if ahead and len(page_ids) > 1:
        for page_id, page in zip(page_ids, file.read_run(page_ids)):
            yield page_id, rows(page_id, page)
    else:
        read = file.read
        for page_id in page_ids:
            yield page_id, rows(page_id, read(page_id))


class AccessMethod(ABC):
    """Base class: one storage structure over one buffered file."""

    kind: StructureKind

    def __init__(
        self,
        file: BufferedFile,
        codec: RecordCodec,
        key_index: "int | None" = None,
    ):
        self._file = file
        self._codec = codec
        self._key_index = key_index
        self._cache = DecodeCache(codec)
        self._row_count = 0

    @property
    def file(self) -> BufferedFile:
        return self._file

    @property
    def codec(self) -> RecordCodec:
        return self._codec

    @property
    def key_index(self) -> "int | None":
        """Attribute position of the structure's key (None for heaps)."""
        return self._key_index

    @property
    def row_count(self) -> int:
        """Number of stored records (all versions)."""
        return self._row_count

    @property
    def page_count(self) -> int:
        """Total pages occupied -- the paper's space metric."""
        return self._file.page_count

    def keyed_on(self, attribute_index: int) -> bool:
        """Whether equality on *attribute_index* can use keyed access."""
        return self._key_index is not None and attribute_index == self._key_index

    def _page_rows(self, page_id: int) -> "list[tuple]":
        """Fetch (metered) and decode one page."""
        page = self._file.read(page_id)
        return self._cache.rows(page_id, page)

    def _chain_ids(self, head: int) -> "list[int]":
        """Page ids of the overflow chain starting at *head*, from the
        in-memory overflow pointers (unmetered: the caller then fetches
        every one of these pages through the pool)."""
        ids = []
        peek = self._file.peek
        while head != NO_PAGE:
            ids.append(head)
            head = peek(head).overflow
        return ids

    def _page_ids(self, page_filter=None, skip=range(0)) -> "list[int]":
        """Page ids in file order, minus *skip* and the pages
        *page_filter* (page_id -> bool) rejects without reading them."""
        return [
            page_id
            for page_id in range(self.page_count)
            if page_id not in skip
            and (page_filter is None or page_filter(page_id))
        ]

    def _batches(self, page_ids, ahead: bool):
        return fetch_batches(self._file, self._cache, page_ids, ahead)

    def read_rid(self, rid: RID) -> tuple:
        """Fetch the record at *rid* (metered page read)."""
        page_id, slot = rid
        rows = self._page_rows(page_id)
        if not 0 <= slot < len(rows):
            raise AccessMethodError(f"invalid rid {rid}")
        return rows[slot]

    def update(self, rid: RID, row: tuple) -> None:
        """Overwrite the record at *rid* in place (metered read + write)."""
        page_id, slot = rid
        page = self._file.read(page_id)
        page.write(slot, self._codec.encode(row))
        self._file.mark_dirty(page_id)

    def delete(self, rid: RID) -> None:
        """Physically remove the record at *rid* (static relations only).

        The page's last record slides into the hole; callers with several
        deletions on one page must delete in descending slot order.
        """
        page_id, slot = rid
        page = self._file.read(page_id)
        page.delete(slot)
        self._file.mark_dirty(page_id)
        self._row_count -= 1

    # -- persistence --------------------------------------------------------

    def snapshot_meta(self) -> dict:
        """Structure metadata for the persistence layer (JSON-safe)."""
        return {"row_count": self._row_count}

    def restore_meta(self, meta: dict) -> None:
        """Reinstate metadata saved by :meth:`snapshot_meta`.

        The backing file must already hold the restored pages.
        """
        self._row_count = int(meta["row_count"])

    # -- structure-specific operations ------------------------------------

    @abstractmethod
    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        """Bulk-load *rows* into a freshly created structure."""

    @abstractmethod
    def insert(self, row: tuple) -> RID:
        """Insert one record; return its rid."""

    @abstractmethod
    def scan(self) -> "Iterator[tuple[RID, tuple]]":
        """Yield every record in physical page order (metered)."""

    @abstractmethod
    def lookup(self, key) -> "Iterator[tuple[RID, tuple]]":
        """Yield every record whose key equals *key* (metered).

        Heaps raise :class:`AccessMethodError`; callers must check
        :meth:`keyed_on` first.
        """

    # -- batch access (the page-at-a-time execution kernel) ----------------
    #
    # Every structure implements ``scan_batches(page_filter=None,
    # ahead=False)`` yielding ``(page_id, rows)`` per page in :meth:`scan`
    # order, and keyed ones ``lookup_batches(key, ahead=False)`` yielding
    # the matching rows of each page :meth:`lookup` visits.  Both list
    # their page ids first and fetch them through :func:`fetch_batches`;
    # *ahead* is the plan's decision that the run may be fetched at once.

    def lookup_batches(self, key, ahead: bool = False):
        """Keyed structures override this; the others have no keyed
        access path."""
        return self.lookup(key)
