"""Unit tests for the partitioning layer and the page-fold kernel."""

from __future__ import annotations

import json

import pytest

from repro.errors import CatalogError
from repro.engine.partition import route_hash, route_range
from repro.exec.scan import compile_page_fold, merge_partials
from repro.tquel.parser import parse_statement
from repro.tquel.unparse import unparse
from tests.conftest import make_db


class TestRouting:
    def test_hash_is_stable_and_in_range(self):
        for value in (0, 1, 7, -3, 10**9, "abc", "g0", 3.5):
            pid = route_hash(value, 4)
            assert 0 <= pid < 4
            assert pid == route_hash(value, 4)

    def test_hash_spreads_keys(self):
        counts = [0] * 4
        for key in range(1000):
            counts[route_hash(key, 4)] += 1
        # No partition should be empty or hold everything.
        assert min(counts) > 100
        assert max(counts) < 500

    def test_range_respects_cuts(self):
        cuts = [10, 20, 30]
        assert route_range(5, cuts) == 0
        assert route_range(10, cuts) == 1  # cuts[k-1] <= v < cuts[k]
        assert route_range(19, cuts) == 1
        assert route_range(20, cuts) == 2
        assert route_range(30, cuts) == 3
        assert route_range(999, cuts) == 3


class TestPartitionStatement:
    def test_parser_roundtrip(self):
        texts = (
            "partition r by hash on id into 4",
            'partition r by range on id into 3 where bounds = "10, 20"',
            'partition r by hash on id into 8 where parallel = "process"',
        )
        for text in texts:
            stmt = parse_statement(text)
            assert parse_statement(unparse(stmt)) == stmt

    def test_into_one_collapses(self):
        db = make_db()
        db.execute("create r (id = i4, v = i4)")
        db.execute("range of x is r")
        for i in range(8):
            db.execute(f"append to r (id = {i}, v = {i * 10})")
        db.execute("partition r by hash on id into 4")
        assert db.relation("r").is_partitioned
        db.execute("partition r by hash on id into 1")
        assert not getattr(db.relation("r"), "is_partitioned", False)
        rows = db.execute("retrieve (x.id, x.v)").rows
        assert sorted(r[0] for r in rows) == list(range(8))

    def test_refuses_secondary_indexes(self):
        db = make_db()
        db.execute("create r (id = i4, v = i4)")
        db.execute("index on r is rv (v)")
        with pytest.raises(CatalogError):
            db.execute("partition r by hash on id into 4")

    def test_catalog_queryable_and_persistent(self):
        db = make_db()
        db.execute("create r (id = i4, v = i4)")
        db.execute(
            'partition r by hash on id into 4 where parallel = "process"'
        )
        db.execute("range of p is partitions")
        rows = db.execute(
            'retrieve (p.relname, p.method, p.parts, p.parallel) '
            'where p.relname = "r"'
        ).rows
        assert rows == [("r", "hash", 4, "process")]
        meta = db.catalog.partition_for("r")
        assert meta is not None
        db.execute("partition r by hash on id into 1")
        assert db.catalog.partition_for("r") is None

    def test_destroy_drops_child_files(self):
        db = make_db()
        db.execute("create r (id = i4)")
        db.execute("partition r by hash on id into 4")
        children = db.relation("r").file_names()
        assert len(children) == 4
        db.execute("destroy r")
        for name in children:
            assert name not in db.pool._files


PROCESS_2 = 'partition r by hash on id into 2 where parallel = "process"'


def _loaded(rows: int, pad: bool = False):
    db = make_db()
    db.execute(
        "create persistent interval r (id = i4, v = i4"
        + (", pad = c40)" if pad else ")")
    )
    db.execute("range of x is r")
    for i in range(rows):
        db.execute(f"append to r (id = {i}, v = {i * 10})")
    return db


def _partition_rows(db):
    db.execute("range of p is partitions")
    return db.execute(
        'retrieve (p.relname, p.parallel) where p.relname = "r"'
    ).rows


class TestParallelModes:
    """``parallel = serial | process``: thread gather is gone."""

    def test_thread_mode_refused_and_rows_kept(self):
        db = _loaded(6)
        before = sorted(db.execute("retrieve (x.id, x.v)").rows)
        with pytest.raises(CatalogError) as excinfo:
            db.execute(
                'partition r by hash on id into 2 where parallel = "thread"'
            )
        assert "serial" in str(excinfo.value)
        assert "process" in str(excinfo.value)
        assert sorted(db.execute("retrieve (x.id, x.v)").rows) == before

    def test_stored_thread_mode_loads_as_serial(self, tmp_path):
        from repro.engine import persist

        db = _loaded(12)
        db.execute(PROCESS_2)
        before = sorted(db.execute("retrieve (x.id, x.v)").rows)
        root = tmp_path / "ckpt"
        db.save(root)
        db.relation("r").release()
        # A checkpoint written while thread gather existed.
        manifest_path = root / persist.MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        (entry,) = [e for e in manifest["relations"] if "partition" in e]
        entry["partition"]["parallel"] = "thread"
        manifest_path.write_text(json.dumps(manifest), encoding="ascii")

        loaded = type(db).load(root)
        assert loaded.relation("r").parallel == "serial"
        assert _partition_rows(loaded) == [("r", "serial")]
        assert sorted(loaded.execute("retrieve (x.id, x.v)").rows) == before


class TestExplainNamesTheGather:
    """EXPLAIN says ``process gather`` only where the kernel scatters."""

    def test_kernel_aggregate_on_two_pages_says_process(self):
        db = _loaded(6)
        db.execute(PROCESS_2)
        try:
            assert db.relation("r").page_count == 2
            text = "retrieve (c = count(x.id))"
            plan = db.explain(text)
            assert "[2 hash partitions, process gather]" in plan
            before = db.metrics.counter_value("partition.kernel_pushdown")
            assert db.execute(text).rows == [(6,)]
            after = db.metrics.counter_value("partition.kernel_pushdown")
            assert after == before + 1
        finally:
            db.relation("r").release()

    def test_row_scan_on_process_relation_says_serial(self):
        db = _loaded(200, pad=True)
        db.execute(PROCESS_2)
        try:
            assert db.relation("r").page_count > 2
            plan = db.explain("retrieve (x.id, x.v) where x.v > 100")
            assert "[2 hash partitions, serial gather]" in plan
            assert "process gather" not in plan
        finally:
            db.relation("r").release()


class TestZoneMapMaintenance:
    def test_incremental_on_append(self):
        db = make_db()
        db.execute("create persistent interval r (id = i4, v = i4)")
        db.execute("range of x is r")
        db.execute("partition r by hash on id into 2")
        relation = db.relation("r")
        relation.enable_zone_map()
        before = dict(relation.zone_map)
        db.execute("append to r (id = 1, v = 10)")
        after = dict(relation.zone_map)
        # The map grew (or tightened) without a rebuild; every page the
        # relation holds has an entry.
        assert len(after) >= len(before)
        total_pages = sum(
            child.storage.page_count for child in relation.children
        )
        assert len(after) == total_pages


class TestPageFoldKernel:
    ROWS = [
        (1, b"g0      ", 10, 100, 2**62, 100, 2**62),
        (2, b"g1      ", 20, 100, 2**62, 100, 2**62),
        (3, b"g0      ", 30, 200, 2**62, 200, 2**62),
    ]

    def test_count_sum_min_max(self):
        aggs = [("count", 0), ("sum", 2), ("min", 2), ("max", 2)]
        fold = compile_page_fold([], aggs)
        selected, partials = fold(self.ROWS)
        assert selected == 3
        merged = merge_partials(aggs, [{"partials": partials}])
        assert merged == [3, 60, 10, 30]

    def test_char_filter_strips_padding(self):
        fold = compile_page_fold([("cmp", 1, "=", "g0")], [("count", 0)])
        assert fold(self.ROWS)[0] == 2

    def test_numeric_filter_ops(self):
        for op, expected in (("<", 1), ("<=", 2), (">", 1), (">=", 2), ("!=", 2)):
            fold = compile_page_fold([("cmp", 2, op, 20)], [("count", 0)])
            assert fold(self.ROWS)[0] == expected, op

    def test_asof_filter_includes_degenerate_interval(self):
        # A version whose stop <= start is treated as [start, start+1),
        # exactly like make_asof_filter in the interpreter.
        rows = [(1, b"g", 1, 100, 50, 100, 50)]
        fold = compile_page_fold([("asof", 3, 4, 99, 101)], [("count", 0)])
        assert fold(rows)[0] == 1
        fold = compile_page_fold([("asof", 3, 4, 101, 102)], [("count", 0)])
        assert fold(rows)[0] == 0

    def test_merge_avg_partials(self):
        aggs = [("avg", 2)]
        fold = compile_page_fold([], aggs)
        _, a = fold(self.ROWS[:2])
        _, b = fold(self.ROWS[2:])
        merged = merge_partials(aggs, [{"partials": a}, {"partials": b}])
        # avg partial is (total, count); the interpreter finishes it.
        assert merged == [(60, 3)]
