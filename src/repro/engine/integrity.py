"""Storage integrity checking: an ``fsck`` for the database.

``check_relation`` / ``check_database`` walk every structure unmetered
(through :meth:`BufferedFile.peek`) and report :class:`Problem` records for
anything inconsistent:

* page images that do not round-trip, or record counts beyond capacity;
* overflow chains that cycle or point outside the file;
* records that fail to decode, or hash/ISAM records stored under the
  wrong bucket / data page;
* structure metadata out of sync with the stored records (row counts,
  bucket counts, directory coverage);
* temporal invariants: time attributes in range, periods well-ordered,
  and at most one fully-current version per key in interval relations;
* secondary-index entries whose tid does not resolve.

The monitor exposes this as ``\\check``; tests use it as a deep assertion
after property-based workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.base import StructureKind
from repro.access.hashfile import hash_key
from repro.access.secondary import unpack_tid
from repro.catalog.schema import (
    TRANSACTION_START,
    TRANSACTION_STOP,
    VALID_TO,
    RelationKind,
)
from repro.errors import RecordCodecError, StorageError
from repro.storage.page import NO_PAGE, Page
from repro.temporal.chronon import CHRONON_MAX, CHRONON_MIN, FOREVER


@dataclass(frozen=True)
class Problem:
    """One detected inconsistency."""

    relation: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.relation}: {self.kind}: {self.detail}"


def _file_pages(buffered):
    for page_id in range(buffered.page_count):
        yield page_id, buffered.peek(page_id)


def _check_pages(name, buffered, problems) -> None:
    """Image round-trips, counts, and overflow pointer sanity."""
    for page_id, page in _file_pages(buffered):
        if page.count > page.capacity:
            problems.append(
                Problem(name, "page-overfull",
                        f"page {page_id} holds {page.count} records "
                        f"(capacity {page.capacity})")
            )
        try:
            clone = Page.from_bytes(page.to_bytes(), page.record_size)
            if clone.records() != page.records():
                problems.append(
                    Problem(name, "page-roundtrip",
                            f"page {page_id} image does not round-trip")
                )
        except StorageError as error:
            problems.append(
                Problem(name, "page-corrupt", f"page {page_id}: {error}")
            )
        if page.overflow != NO_PAGE and not (
            0 <= page.overflow < buffered.page_count
        ):
            problems.append(
                Problem(name, "bad-overflow-pointer",
                        f"page {page_id} points at {page.overflow}")
            )


def _check_chain(name, buffered, head, problems) -> "list[int]":
    """Walk one overflow chain; returns its page ids (cycle-safe)."""
    seen = []
    page_id = head
    while page_id != NO_PAGE:
        if page_id in seen:
            problems.append(
                Problem(name, "overflow-cycle",
                        f"chain from page {head} revisits page {page_id}")
            )
            break
        if not 0 <= page_id < buffered.page_count:
            break  # already reported by _check_pages
        seen.append(page_id)
        page_id = buffered.peek(page_id).overflow
    return seen


def _decode_page(name, codec, page_id, page, problems):
    rows = []
    for slot in range(page.count):
        try:
            rows.append(codec.decode(page.read(slot)))
        except RecordCodecError as error:
            problems.append(
                Problem(name, "record-undecodable",
                        f"page {page_id} slot {slot}: {error}")
            )
    return rows


def _check_hash(name, storage, problems) -> int:
    buffered = storage.file
    codec = storage.codec
    key_index = storage.key_index
    buckets = storage.buckets
    if buckets > buffered.page_count:
        problems.append(
            Problem(name, "metadata",
                    f"{buckets} buckets but only {buffered.page_count} "
                    "pages")
        )
        return 0
    counted = 0
    chained = set()
    for bucket in range(buckets):
        for page_id in _check_chain(name, buffered, bucket, problems):
            chained.add(page_id)
            page = buffered.peek(page_id)
            for row in _decode_page(name, codec, page_id, page, problems):
                counted += 1
                if hash_key(row[key_index], buckets) != bucket:
                    problems.append(
                        Problem(name, "misplaced-record",
                                f"key {row[key_index]!r} stored in bucket "
                                f"{bucket}")
                    )
    orphans = set(range(buffered.page_count)) - chained
    for page_id in sorted(orphans):
        if buffered.peek(page_id).count:
            problems.append(
                Problem(name, "orphan-page",
                        f"page {page_id} holds records but no bucket "
                        "chain reaches it")
            )
    return counted


def _check_isam(name, storage, problems) -> int:
    buffered = storage.file
    codec = storage.codec
    key_index = storage.key_index
    counted = 0
    boundaries = []
    for data_page in range(storage.data_pages):
        page = buffered.peek(data_page)
        rows = _decode_page(name, codec, data_page, page, problems)
        boundaries.append(rows[0][key_index] if rows else None)
    for data_page in range(storage.data_pages):
        upper = None
        for later in boundaries[data_page + 1 :]:
            if later is not None:
                upper = later
                break
        for page_id in _check_chain(name, buffered, data_page, problems):
            page = buffered.peek(page_id)
            for row in _decode_page(name, codec, page_id, page, problems):
                counted += 1
                key = row[key_index]
                if upper is not None and key > upper:
                    problems.append(
                        Problem(name, "misplaced-record",
                                f"key {key!r} stored in data page "
                                f"{data_page} whose successor starts at "
                                f"{upper!r}")
                    )
    return counted


def _check_heap(name, storage, problems) -> int:
    counted = 0
    for page_id, page in _file_pages(storage.file):
        counted += len(
            _decode_page(name, storage.codec, page_id, page, problems)
        )
    return counted


def _check_btree(name, storage, problems) -> int:
    """Leaf-chain coverage, per-leaf and global key order."""
    buffered = storage.file
    key_index = storage.key_index
    counted = 0
    previous_key = None
    seen = set(storage._internal)
    page_id = storage.root
    while page_id in storage._internal:
        page_id = buffered.peek(page_id).overflow
    while page_id != NO_PAGE:
        if page_id in seen:
            problems.append(
                Problem(name, "leaf-chain-cycle",
                        f"leaf chain revisits page {page_id}")
            )
            break
        seen.add(page_id)
        page = buffered.peek(page_id)
        rows = _decode_page(name, storage.codec, page_id, page, problems)
        keys = [row[key_index] for row in rows]
        if keys != sorted(keys):
            problems.append(
                Problem(name, "unsorted-leaf",
                        f"leaf {page_id} keys out of order")
            )
        if keys and previous_key is not None and keys[0] < previous_key:
            problems.append(
                Problem(name, "leaf-order",
                        f"leaf {page_id} starts below its predecessor")
            )
        if keys:
            previous_key = keys[-1]
        counted += len(rows)
        page_id = page.overflow
    orphans = set(range(buffered.page_count)) - seen
    for orphan in sorted(orphans):
        if buffered.peek(orphan).count:
            problems.append(
                Problem(name, "orphan-page",
                        f"page {orphan} unreachable from the leaf chain "
                        "or directory")
            )
    return counted


def _check_temporal_rows(relation, problems) -> None:
    schema = relation.schema
    has_tx = schema.type.has_transaction_time
    has_valid = schema.type.has_valid_time
    if not has_tx and not has_valid:
        return
    current_by_key: "dict[object, int]" = {}
    key_position = relation.key_position
    for _, row in relation.storage.scan():
        for value in row[schema.user_count:]:
            if not CHRONON_MIN <= value <= CHRONON_MAX:
                problems.append(
                    Problem(schema.name, "chronon-range",
                            f"time attribute out of range: {value}")
                )
        if has_tx:
            start = row[schema.position(TRANSACTION_START)]
            stop = row[schema.position(TRANSACTION_STOP)]
            if stop < start:
                problems.append(
                    Problem(schema.name, "inverted-period",
                            f"transaction [{start}, {stop}]")
                )
        if (
            has_valid
            and schema.kind is RelationKind.INTERVAL
            and key_position is not None
        ):
            fully_current = row[schema.position(VALID_TO)] == FOREVER and (
                not has_tx
                or row[schema.position(TRANSACTION_STOP)] == FOREVER
            )
            if fully_current:
                key = row[key_position]
                current_by_key[key] = current_by_key.get(key, 0) + 1
    for key, count in current_by_key.items():
        if count > 1:
            problems.append(
                Problem(schema.name, "duplicate-current",
                        f"key {key!r} has {count} fully-current versions")
            )


def _check_indexes(relation, problems) -> None:
    for index in relation.indexes.values():
        stores = [index._current]
        if index._history is not None:
            stores.append(index._history)
        for store in stores:
            if not store._built:
                continue
            for _, (value, tid) in store._store.scan():
                history, page, slot = unpack_tid(tid)
                try:
                    relation.read_tid(tid)
                except Exception:
                    problems.append(
                        Problem(relation.name, "dangling-index-entry",
                                f"index {index.name}: tid "
                                f"({history}, {page}, {slot}) does not "
                                "resolve")
                    )


def check_relation(relation) -> "list[Problem]":
    """Deep-check one relation; returns the problems found (empty = ok)."""
    problems: "list[Problem]" = []
    storage = relation.storage
    if relation.is_two_level:
        primary = storage.primary
        _check_pages(f"{relation.name}.primary", primary.file, problems)
        counted = _dispatch_structure(
            f"{relation.name}.primary", primary, problems
        )
        history_file = storage._history._heap.file if hasattr(
            storage._history, "_heap"
        ) else storage._history._file
        _check_pages(f"{relation.name}.history", history_file, problems)
        history_count = sum(
            len(rows) for _, _, rows in storage._history.scan_batches()
        )
        if counted + history_count != storage.row_count:
            problems.append(
                Problem(relation.name, "row-count",
                        f"metadata says {storage.row_count} rows, found "
                        f"{counted + history_count}")
            )
    else:
        _check_pages(relation.name, storage.file, problems)
        counted = _dispatch_structure(relation.name, storage, problems)
        if counted != storage.row_count:
            problems.append(
                Problem(relation.name, "row-count",
                        f"metadata says {storage.row_count} rows, found "
                        f"{counted}")
            )
    _check_temporal_rows(relation, problems)
    _check_indexes(relation, problems)
    return problems


def _dispatch_structure(name, storage, problems) -> int:
    if storage.kind is StructureKind.HASH:
        return _check_hash(name, storage, problems)
    if storage.kind is StructureKind.ISAM:
        return _check_isam(name, storage, problems)
    if storage.kind is StructureKind.BTREE:
        return _check_btree(name, storage, problems)
    return _check_heap(name, storage, problems)


def check_database(db) -> "list[Problem]":
    """Deep-check every user relation of *db*."""
    problems: "list[Problem]" = []
    for name in db.relation_names():
        problems.extend(check_relation(db.relation(name)))
    return problems
