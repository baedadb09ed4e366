"""ISAM files (``modify ... to isam on key``).

The Ingres ISAM structure: records are sorted on the key at ``modify`` time
and packed into *data pages* (honouring the fillfactor), above which sits a
static multi-level *directory* whose entries are the first key of each page
of the level below.  The directory never changes after ``modify``; records
added later go into per-data-page overflow chains, exactly like hash
buckets.  File layout: data pages first (ids ``0..ndata-1``), then the
directory levels (leaf level first, root page last), then overflow pages as
they are allocated.

A keyed lookup descends ``height`` directory pages, then reads the owner
data page and its whole overflow chain.  At the paper's scale this gives the
directory heights it reports: 128 data pages need a single directory page
(fixed cost 1 per ISAM access at 100 % loading), 256 data pages need two
levels (fixed cost 2 at 50 % loading -- why Q10's fixed cost doubles from
1024 to 2048 pages).

A sequential scan reads data and overflow pages but skips the directory,
matching the paper (Q04 reads 3712 of the 3713-page temporal relation).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.access.base import (
    RID,
    AccessMethod,
    DecodeCache,
    StructureKind,
    effective_capacity,
)
from repro.errors import AccessMethodError
from repro.storage.page import NO_PAGE, records_per_page
from repro.storage.record import FieldSpec, RecordCodec


class IsamFile(AccessMethod):
    """ISAM: sorted data pages + static directory + overflow chains."""

    kind = StructureKind.ISAM

    def __init__(self, file, codec, key_index: int):
        if key_index is None:
            raise AccessMethodError("ISAM files require a key attribute")
        super().__init__(file, codec, key_index)
        key_field = codec.fields[key_index]
        self._key_codec = RecordCodec(
            [FieldSpec("key", key_field.type, key_field.width)]
        )
        self._dir_cache = DecodeCache(self._key_codec)
        self._data_pages = 0
        # Directory levels, leaf level first; each is a list of page ids.
        self._levels: "list[list[int]]" = []
        # Directory accesses, exposed so the benchmark can identify the
        # paper's "fixed cost" component (Section 5.3).
        self.dir_reads = 0
        self._entries_per_dir_page = records_per_page(
            self._key_codec.record_size
        )

    @property
    def data_pages(self) -> int:
        """Number of primary data pages."""
        return self._data_pages

    @property
    def directory_pages(self) -> int:
        """Total directory pages across all levels."""
        return sum(len(level) for level in self._levels)

    @property
    def directory_height(self) -> int:
        """Directory levels read per keyed access."""
        return len(self._levels)

    def snapshot_meta(self) -> dict:
        meta = super().snapshot_meta()
        meta["data_pages"] = self._data_pages
        meta["levels"] = [list(level) for level in self._levels]
        return meta

    def restore_meta(self, meta: dict) -> None:
        super().restore_meta(meta)
        self._data_pages = int(meta["data_pages"])
        self._levels = [[int(p) for p in level] for level in meta["levels"]]

    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        if self.page_count:
            raise AccessMethodError("build requires an empty file")
        key_index = self._key_index
        ordered = sorted(rows, key=lambda row: row[key_index])
        capacity = records_per_page(self._file.record_size)
        quota = effective_capacity(capacity, fillfactor)
        encode = self._codec.encode

        # Data pages, filled to the fillfactor quota.
        first_keys = []
        self._data_pages = max(1, math.ceil(len(ordered) / quota))
        for index in range(self._data_pages):
            page_id, page = self._file.allocate()
            chunk = ordered[index * quota : (index + 1) * quota]
            first_keys.append(
                chunk[0][key_index] if chunk else None
            )
            for row in chunk:
                page.append(encode(row))
                self._row_count += 1
            self._file.mark_dirty(page_id)
        if first_keys and first_keys[0] is None:
            # Empty relation: a single empty data page whose directory entry
            # is the minimal key of the key type.
            key_field = self._key_codec.fields[0]
            if key_field.type.value == "c":
                first_keys[0] = ""
            elif key_field.type.value in ("f4", "f8"):
                first_keys[0] = 0.0
            else:
                width_bits = {"i1": 7, "i2": 15}.get(key_field.type.value, 31)
                first_keys[0] = -(2**width_bits)

        # Directory levels, bottom-up, until one root page.
        entry_encode = self._key_codec.encode
        per_dir = self._entries_per_dir_page
        level_keys = first_keys
        while True:
            level_ids = []
            next_keys = []
            for index in range(0, len(level_keys), per_dir):
                page_id, page = self._file.allocate(
                    self._key_codec.record_size
                )
                chunk = level_keys[index : index + per_dir]
                for key in chunk:
                    page.append(entry_encode((key,)))
                self._file.mark_dirty(page_id)
                level_ids.append(page_id)
                next_keys.append(chunk[0])
            self._levels.append(level_ids)
            if len(level_ids) == 1:
                break
            level_keys = next_keys
        self._file.flush()

    def _dir_keys(self, page_id: int) -> list:
        self.dir_reads += 1
        page = self._file.read(page_id)
        return [row[0] for row in self._dir_cache.rows(page_id, page)]

    def _locate(self, key) -> "tuple[int, int]":
        """Descend the directory; return the (first, last) candidate data
        page range for *key* (usually a single page).

        Metered: reads ``height`` directory pages (plus extra leaf pages
        only when a run of duplicate keys spans a page boundary).
        """
        per_dir = self._entries_per_dir_page
        lo = hi = 0  # candidate page-index range within the current level
        for level in range(len(self._levels) - 1, -1, -1):
            page_ids = self._levels[level]
            first_keys = self._dir_keys(page_ids[lo])
            start = max(0, bisect_left(first_keys, key) - 1)
            new_lo = lo * per_dir + start
            if hi != lo:
                first_keys = self._dir_keys(page_ids[hi])
            end = bisect_right(first_keys, key) - 1
            if end < 0:
                hi_children = new_lo
            else:
                hi_children = hi * per_dir + end
            lo, hi = new_lo, max(new_lo, hi_children)
        return lo, hi

    def owner_page(self, key) -> int:
        """The data page that receives inserts for *key* (metered descent)."""
        _, hi = self._locate(key)
        return hi

    def build_quota(self) -> int:
        """Record capacity of a full page (inserts ignore the fillfactor)."""
        return records_per_page(self._file.record_size)

    def insert(self, row: tuple) -> RID:
        if not self._levels:
            raise AccessMethodError("ISAM file was never built")
        record = self._codec.encode(row)
        page_id = self.owner_page(row[self._key_index])
        while True:
            page = self._file.read(page_id)
            if page.count < page.capacity:
                slot = page.append(record)
                self._file.mark_dirty(page_id)
                self._row_count += 1
                return (page_id, slot)
            if page.overflow == NO_PAGE:
                break
            page_id = page.overflow
        tail_id = page_id
        new_id, new_page = self._file.allocate()
        slot = new_page.append(record)
        self._file.mark_dirty(new_id)
        tail = self._file.read(tail_id)
        tail.set_overflow(new_id)
        self._file.mark_dirty(tail_id)
        self._row_count += 1
        return (new_id, slot)

    def scan(self, page_filter=None) -> "Iterator[tuple[RID, tuple]]":
        """Sequential scan: data and overflow pages, skipping the directory."""
        dir_start = self._data_pages
        dir_end = dir_start + self.directory_pages
        for page_id in range(self.page_count):
            if dir_start <= page_id < dir_end:
                continue
            if page_filter is not None and not page_filter(page_id):
                continue
            rows = self._page_rows(page_id)
            for slot, row in enumerate(rows):
                yield (page_id, slot), row

    def scan_batches(self, page_filter=None, ahead=False):
        """Per-page batches over data and overflow pages (no directory)."""
        directory = range(
            self._data_pages, self._data_pages + self.directory_pages
        )
        yield from self._batches(
            self._page_ids(page_filter, skip=directory), ahead
        )

    def lookup(self, key) -> "Iterator[tuple[RID, tuple]]":
        """Directory descent, then the owner page(s) and their chains."""
        if not self._levels:
            raise AccessMethodError("ISAM file was never built")
        key_index = self._key_index
        first, last = self._locate(key)
        for data_page in range(first, last + 1):
            page_id = data_page
            while page_id != NO_PAGE:
                page = self._file.read(page_id)
                rows = self._cache.rows(page_id, page)
                for slot, row in enumerate(rows):
                    if row[key_index] == key:
                        yield (page_id, slot), row
                page_id = page.overflow

    def lookup_batches(self, key, ahead=False):
        """Per-page batches of matching rows (same metered walk as lookup)."""
        if not self._levels:
            raise AccessMethodError("ISAM file was never built")
        key_index = self._key_index
        first, last = self._locate(key)
        chains = [
            page_id
            for data_page in range(first, last + 1)
            for page_id in self._chain_ids(data_page)
        ]
        for _, rows in self._batches(chains, ahead):
            yield [row for row in rows if row[key_index] == key]
