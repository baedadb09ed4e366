"""Integration tests: B-tree relations through the full engine."""

import random

import pytest

from repro.engine.integrity import check_relation
from repro.errors import CatalogError


@pytest.fixture
def btree_db(db):
    db.execute("create persistent interval r (id = i4, v = i4, pad = c100)")
    db.copy_in("r", [(i, 0, "p") for i in range(1, 33)])
    db.execute("modify r to btree on id where fillfactor = 100")
    db.execute("range of x is r")
    return db


class TestBTreeRelations:
    def test_keyed_lookup(self, btree_db):
        result = btree_db.execute("retrieve (x.v) where x.id = 20")
        assert [row[0] for row in result.rows] == [0]

    def test_evolution_and_version_scan(self, btree_db):
        for _ in range(4):
            btree_db.execute("replace x (v = x.v + 1)")
        result = btree_db.execute("retrieve (x.id, x.v) where x.id = 20")
        assert len(result.rows) == 5  # current + 4 closing versions
        current = btree_db.execute(
            'retrieve (x.v) where x.id = 20 when x overlap "now"'
        )
        assert [row[0] for row in current.rows] == [4]

    def test_keyed_access_degrades_gently(self, btree_db):
        base = btree_db.execute(
            "retrieve (x.v) where x.id = 20"
        ).input_pages
        for _ in range(6):
            btree_db.execute("replace x (v = x.v + 1)")
        grown = btree_db.execute(
            "retrieve (x.v) where x.id = 20"
        ).input_pages
        # It degrades (the paper's point)...
        assert grown > base
        # ...but stays below the hash file's 1 + 2n law (the clustering).
        assert grown < base + 2 * 6

    def test_integrity_after_evolution(self, btree_db):
        for _ in range(5):
            btree_db.execute("replace x (v = x.v + 1)")
        assert check_relation(btree_db.relation("r")) == []

    def test_scan_ordered_by_key(self, btree_db):
        btree_db.execute("replace x (v = 9) where x.id = 5")
        rows = btree_db.execute(
            'retrieve (x.id) as of "beginning" through "forever"'
        ).rows
        keys = [row[0] for row in rows]
        assert keys == sorted(keys)

    def test_checkpoint_roundtrip(self, btree_db, tmp_path):
        from repro import TemporalDatabase

        for _ in range(3):
            btree_db.execute("replace x (v = x.v + 1)")
        btree_db.save(tmp_path / "ck")
        restored = TemporalDatabase.load(tmp_path / "ck")
        query = "retrieve (x.id, x.v) where x.id = 20"
        assert sorted(restored.execute(query).rows) == sorted(
            btree_db.execute(query).rows
        )
        assert (
            restored.execute(query).input_pages
            == btree_db.execute(query).input_pages
        )

    def test_vacuum_on_btree(self, btree_db):
        from repro import format_chronon

        for _ in range(4):
            btree_db.execute("replace x (v = x.v + 1)")
        cutoff = format_chronon(btree_db.clock.now())
        removed = btree_db.execute(f'vacuum r before "{cutoff}"')
        assert removed.count == 32 * 4
        assert check_relation(btree_db.relation("r")) == []


class TestBTreeDeletion:
    def test_static_bulk_delete_keeps_order(self, db):
        db.execute("create s (id = i4, v = i4)")
        db.execute("modify s to btree on id")
        db.execute("range of x is s")
        for i in range(1, 41):
            db.execute(f"append to s (id = {i}, v = {i % 5})")
        result = db.execute("delete x where x.v = 2")
        assert result.count == 8
        keys = [row[0] for row in db.execute("retrieve (x.id)").rows]
        assert keys == sorted(keys)
        assert len(keys) == 32
        # Keyed lookups still work on survivors and miss the deleted.
        assert db.execute("retrieve (x.v) where x.id = 3").rows == [(3,)]
        assert db.execute("retrieve (x.v) where x.id = 2").rows == []

    def test_historical_event_bulk_delete(self, db):
        # Multiple physical removals from the same page must not corrupt
        # the rids of targets still pending (regression: per-target
        # deletion reshuffled slots mid-statement).
        db.execute("create event m (probe = c8, value = i4)")
        db.execute("range of e is m")
        for i in range(12):
            db.execute(f'append to m (probe = "p{i}", value = {i % 3})')
        result = db.execute("delete e where e.value = 0")
        assert result.count == 4
        survivors = db.execute("retrieve (e.probe, e.value)").rows
        assert len(survivors) == 8
        assert all(row[1] != 0 for row in survivors)


class TestBTreeGrowth:
    def test_internal_nodes_split_below_the_root(self, db):
        """A c200 key leaves room for 4 entries per internal page, so
        300 appends in shuffled key order split internal nodes under
        the root as well as the root itself."""
        db.execute("create wide (k = c200, v = i4)")
        db.execute("modify wide to btree on k")
        db.execute("range of w is wide")
        numbers = list(range(300))
        random.Random(40).shuffle(numbers)
        for n in numbers:
            db.execute(f'append to wide (k = "k{n:03d}", v = {n})')
        assert db.relation("wide").storage.height >= 3
        for n in range(0, 300, 7):
            result = db.execute(f'retrieve (w.v) where w.k = "k{n:03d}"')
            assert [row[0] for row in result.rows] == [n]
        rows = db.execute("retrieve (w.k, w.v)").rows
        assert [row[1] for row in rows] == list(range(300))
        assert check_relation(db.relation("wide")) == []


class TestBTreeRestrictions:
    def test_secondary_index_rejected(self, btree_db):
        with pytest.raises(CatalogError):
            btree_db.execute("index on r is v_idx (v)")

    def test_modify_to_btree_with_index_rejected(self, db):
        db.execute("create persistent interval r (id = i4, v = i4)")
        db.execute("modify r to hash on id")
        db.execute("index on r is v_idx (v)")
        with pytest.raises(CatalogError):
            db.execute("modify r to btree on id")

    def test_zone_map_rejected(self, btree_db):
        with pytest.raises(CatalogError):
            btree_db.execute(
                "modify r to btree on id where zonemap = 1"
            )

    def test_modify_drops_zone_map_quietly(self, db):
        db.execute("create persistent interval r (id = i4)")
        db.execute("modify r to hash on id where zonemap = 1")
        assert db.relation("r").zone_map is not None
        db.execute("modify r to btree on id")
        assert db.relation("r").zone_map is None
