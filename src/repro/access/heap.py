"""Heap files: unordered storage in arrival order.

The default structure of a freshly created relation in Ingres.  Records fill
each page completely before a new page is allocated; a keyed lookup is not
available, so every qualification is a sequential scan.
"""

from __future__ import annotations

from typing import Iterator

from repro.access.base import RID, AccessMethod, StructureKind, effective_capacity
from repro.errors import AccessMethodError


class HeapFile(AccessMethod):
    """Unordered heap of records."""

    kind = StructureKind.HEAP

    def __init__(self, file, codec, key_index=None):
        # Heaps have no key; a key_index may still be recorded so callers
        # can rebuild a keyed structure later, but lookups are refused.
        super().__init__(file, codec, key_index)
        self._tail = -1  # page id receiving inserts, -1 when file empty

    def keyed_on(self, attribute_index: int) -> bool:
        return False

    def snapshot_meta(self) -> dict:
        meta = super().snapshot_meta()
        meta["tail"] = self._tail
        return meta

    def restore_meta(self, meta: dict) -> None:
        super().restore_meta(meta)
        self._tail = int(meta["tail"])

    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        """Load *rows* in order, filling pages to *fillfactor*."""
        if self.page_count:
            raise AccessMethodError("build requires an empty file")
        encode = self._codec.encode
        page_id, page = -1, None
        per_page = None
        for row in rows:
            if page is None or page.count >= per_page:
                if page is not None:
                    self._file.mark_dirty(page_id)
                page_id, page = self._file.allocate()
                per_page = effective_capacity(page.capacity, fillfactor)
            page.append(encode(row))
            self._row_count += 1
        if page is not None:
            self._file.mark_dirty(page_id)
            self._tail = page_id
        self._file.flush()

    def insert(self, row: tuple) -> RID:
        """Append at the tail page, allocating a new page when full."""
        record = self._codec.encode(row)
        if self._tail >= 0:
            page = self._file.read(self._tail)
            if page.count < page.capacity:
                slot = page.append(record)
                self._file.mark_dirty(self._tail)
                self._row_count += 1
                return (self._tail, slot)
        page_id, page = self._file.allocate()
        slot = page.append(record)
        self._file.mark_dirty(page_id)
        self._tail = page_id
        self._row_count += 1
        return (page_id, slot)

    def scan(self, page_filter=None) -> "Iterator[tuple[RID, tuple]]":
        for page_id in range(self.page_count):
            if page_filter is not None and not page_filter(page_id):
                continue
            rows = self._page_rows(page_id)
            for slot, row in enumerate(rows):
                yield (page_id, slot), row

    def scan_batches(self, page_filter=None, ahead=False):
        yield from self._batches(self._page_ids(page_filter), ahead)

    def lookup(self, key) -> "Iterator[tuple[RID, tuple]]":
        raise AccessMethodError("heap files have no keyed access path")
