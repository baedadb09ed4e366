"""Static hashing with overflow chains (``modify ... to hash on key``).

``modify`` fixes the number of primary pages (buckets); every record is
placed in the bucket its key hashes to.  A bucket that outgrows its primary
page grows an *overflow chain*; chains never shrink, which is exactly the
degradation the paper measures ("access methods such as hashing and ISAM ...
suffer from rapid degradation in performance due to ever-growing overflow
chains", Section 6).

Placement rules reproduce the paper's observed behaviour:

* ``modify`` fills primary pages only up to the fillfactor, so a 50 %
  loading leaves half of every bucket free -- later inserts fill that free
  space before the first overflow page appears (the "jagged lines" of
  Figure 8 (b));
* inserts go to the first free slot along the bucket's chain; when the
  chain is full a new overflow page is appended at the end of the chain
  (finding the end costs a walk of the chain -- the source of the paper's
  O(n^2) cost for updating one tuple n times, Section 5.4);
* the bucket count is ``ceil(rows / records_per_page_at_fillfactor) + 1``,
  which reproduces the paper's relation sizes (129 primary pages for the
  1024-tuple versioned relations at 100 % loading, 257 at 50 %).

Integer keys hash by value modulo the bucket count, University-Ingres style;
the paper's sequential ids then spread perfectly over the benchmark bucket
counts, matching its clean per-update growth.  String keys use a byte
checksum.
"""

from __future__ import annotations

import math

from repro.access.base import (
    RID,
    AccessMethod,
    StructureKind,
    effective_capacity,
)
from repro.errors import AccessMethodError
from repro.storage.page import NO_PAGE, records_per_page


def hash_key(key, buckets: int) -> int:
    """Map *key* to a bucket in ``[0, buckets)``.

    Ints hash by value modulo *buckets*; strings by a 31-polynomial byte
    checksum.  Other key types are rejected -- Quel keys are ints or chars.
    """
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise AccessMethodError(
            f"cannot hash key of type {type(key).__name__}"
        )
    if isinstance(key, int):
        return key % buckets
    checksum = 0
    for byte in key.encode("ascii", errors="replace"):
        checksum = (checksum * 31 + byte) & 0x7FFFFFFF
    return checksum % buckets


class HashFile(AccessMethod):
    """Statically hashed file with per-bucket overflow chains."""

    kind = StructureKind.HASH

    def __init__(self, file, codec, key_index: int):
        if key_index is None:
            raise AccessMethodError("hash files require a key attribute")
        super().__init__(file, codec, key_index)
        self._buckets = 0

    @property
    def buckets(self) -> int:
        """Number of primary pages."""
        return self._buckets

    def snapshot_meta(self) -> dict:
        meta = super().snapshot_meta()
        meta["buckets"] = self._buckets
        return meta

    def restore_meta(self, meta: dict) -> None:
        super().restore_meta(meta)
        self._buckets = int(meta["buckets"])

    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        if self.page_count:
            raise AccessMethodError("build requires an empty file")
        capacity = records_per_page(self._file.record_size)
        quota = effective_capacity(capacity, fillfactor)
        self._buckets = max(1, math.ceil(max(len(rows), 1) / quota)) + 1
        for _ in range(self._buckets):
            self._file.allocate()
        key_index = self._key_index
        encode = self._codec.encode
        for row in rows:
            bucket = hash_key(row[key_index], self._buckets)
            self._place(bucket, encode(row), primary_quota=quota)
            self._row_count += 1
        self._file.flush()

    def _place(self, bucket: int, record: bytes, primary_quota: int) -> RID:
        """Put *record* in the first free slot along *bucket*'s chain."""
        page_id = bucket
        quota = primary_quota
        while True:
            page = self._file.read(page_id)
            if page.count < min(quota, page.capacity):
                slot = page.append(record)
                self._file.mark_dirty(page_id)
                return (page_id, slot)
            if page.overflow == NO_PAGE:
                break
            page_id = page.overflow
            quota = page.capacity  # overflow pages fill completely
        # Chain exhausted: extend it with a fresh overflow page.
        tail_id = page_id
        new_id, new_page = self._file.allocate()
        slot = new_page.append(record)
        self._file.mark_dirty(new_id)
        tail = self._file.read(tail_id)
        tail.set_overflow(new_id)
        self._file.mark_dirty(tail_id)
        return (new_id, slot)

    def insert(self, row: tuple) -> RID:
        if not self._buckets:
            raise AccessMethodError("hash file was never built")
        bucket = hash_key(row[self._key_index], self._buckets)
        rid = self._place(
            bucket, self._codec.encode(row), primary_quota=10**9
        )
        self._row_count += 1
        return rid

    def scan_batches(self, page_filter=None, ahead=False):
        """Physical page order (primary then overflow); *page_filter*
        lets metadata-driven enhancements (transaction-time zone maps)
        skip pages without reading them."""
        yield from self._batches(self._page_ids(page_filter), ahead)

    def lookup_batches(self, key, ahead=False):
        """The key's whole bucket chain, page by page, with the matching
        rows of each.

        The whole chain is read even if matches appear early: versions
        are unordered, so the prototype cannot stop short -- this is why
        a "most recent version" query (Q05) costs the same as a version
        scan (Q01) on conventional structures.
        """
        if not self._buckets:
            raise AccessMethodError("hash file was never built")
        chain = self._chain_ids(hash_key(key, self._buckets))
        return self._key_matches(chain, key, ahead)
