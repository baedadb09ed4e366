"""Unit tests for the two-level store (Section 6)."""

import pytest

from repro.access.base import StructureKind
from repro.access.twolevel import HistoryLayout, TwoLevelStore
from repro.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.record import FieldSpec, RecordCodec

FIELDS = [("id", "i4"), ("payload", "c112")]  # 8 records per page


def make_store(rows, layout=HistoryLayout.SIMPLE,
               primary=StructureKind.HASH):
    codec = RecordCodec([FieldSpec.parse(n, t) for n, t in FIELDS])
    pool = BufferPool()
    store = TwoLevelStore(
        pool, "rel", codec, 0, primary_kind=primary, layout=layout
    )
    store.build(rows)
    pool.flush_all()
    pool.stats.reset()
    return store, pool


def rows(n):
    return [(i, "x") for i in range(1, n + 1)]


def current_rows(batches):
    """The rows of primary-store batches, checking their store tag."""
    found = []
    for (store, _), _, batch_rows in batches:
        assert store == "p"
        found.extend(batch_rows)
    return found


class TestStructure:
    def test_primary_holds_current(self):
        store, _ = make_store(rows(64))
        assert store.primary.row_count == 64
        assert store.history_pages == 0

    def test_isam_primary(self):
        store, _ = make_store(rows(64), primary=StructureKind.ISAM)
        assert store.primary.kind is StructureKind.ISAM

    def test_heap_primary_rejected(self):
        codec = RecordCodec([FieldSpec.parse(n, t) for n, t in FIELDS])
        with pytest.raises(AccessMethodError):
            TwoLevelStore(
                BufferPool(), "rel", codec, 0,
                primary_kind=StructureKind.HEAP,
            )

    def test_requires_key(self):
        codec = RecordCodec([FieldSpec.parse(n, t) for n, t in FIELDS])
        with pytest.raises(AccessMethodError):
            TwoLevelStore(BufferPool(), "rel", codec, None)


class TestOverwriteAndHistory:
    def test_overwrite_keeps_primary_size(self):
        store, _ = make_store(rows(64))
        primary_pages = store.primary_pages
        rid, _ = next(store.lookup(10))  # the current version comes first
        for round_number in range(20):
            store.append_history(10, (10, f"old{round_number}"))
            store.overwrite_current(rid, (10, f"new{round_number}"))
        assert store.primary_pages == primary_pages

    def test_overwrite_requires_primary_rid(self):
        store, _ = make_store(rows(8))
        store.append_history(1, (1, "old"))
        with pytest.raises(AccessMethodError):
            store.overwrite_current(("h", 0, 0), (1, "new"))

    def test_lookup_returns_current_then_history(self):
        store, _ = make_store(rows(8))
        store.append_history(1, (1, "old1"))
        store.append_history(1, (1, "old2"))
        found = [row for _, row in store.lookup(1)]
        assert found[0] == (1, "x")
        assert (1, "old1") in found and (1, "old2") in found

    def test_current_only_lookup_skips_history(self):
        store, _ = make_store(rows(8))
        store.append_history(1, (1, "old"))
        assert current_rows(store.lookup_batches(1, current_only=True)) == [
            (1, "x")
        ]

    def test_current_only_scan_cost_stays_flat(self):
        store, pool = make_store(rows(64))
        for key in range(1, 65):
            store.append_history(key, (key, "old"))
        pool.flush_all()
        pool.stats.reset()
        list(store.scan_batches(current_only=True))
        assert pool.stats.totals().user.reads == store.primary_pages

    def test_full_scan_reads_both_stores(self):
        store, _ = make_store(rows(8))
        store.append_history(1, (1, "old"))
        assert len(list(store.scan())) == 9


class TestClustered:
    def test_versions_pack_per_tuple(self):
        store, pool = make_store(rows(64), layout=HistoryLayout.CLUSTERED)
        # 28 history versions of one tuple -> 4 dedicated pages (8 per
        # page), the paper's example.
        for v in range(28):
            store.append_history(10, (10, f"v{v}"))
        pool.flush_all()
        pool.stats.reset()
        found = list(store.lookup(10))
        assert len(found) == 29
        assert pool.stats.totals().user.reads == 1 + 4

    def test_simple_layout_scatters_interleaved_versions(self):
        store, pool = make_store(rows(64), layout=HistoryLayout.SIMPLE)
        # Interleave versions of many tuples: tuple 10's versions land on
        # different heap pages.
        for v in range(4):
            for key in range(1, 65):
                store.append_history(key, (key, f"v{v}"))
        pool.flush_all()
        pool.stats.reset()
        list(store.lookup(10))
        reads = pool.stats.totals().user.reads
        assert reads >= 1 + 4  # primary + one page per scattered version

    def test_clustered_read_rid(self):
        store, _ = make_store(rows(8), layout=HistoryLayout.CLUSTERED)
        rid = store.append_history(1, (1, "old"))
        assert store.read_rid(rid) == (1, "old")


class TestCounts:
    def test_row_and_page_counts_combine_stores(self):
        store, _ = make_store(rows(8))
        store.append_history(1, (1, "old"))
        assert store.row_count == 9
        assert store.page_count == store.primary_pages + store.history_pages

    def test_insert_current_appends_to_primary(self):
        store, _ = make_store(rows(8))
        rid = store.insert_current((100, "new"))
        assert rid[0] == "p"
        assert current_rows(
            store.lookup_batches(100, current_only=True)
        ) == [(100, "new")]

    def test_keyed_on_delegates_to_primary(self):
        store, _ = make_store(rows(8))
        assert store.keyed_on(0)
        assert not store.keyed_on(1)
