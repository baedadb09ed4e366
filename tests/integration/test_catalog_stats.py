"""Catalog-statistics invariants for the cost-based optimizer.

The planner prices plans from catalog statistics -- tuple counts, update
counts, the plan epoch (``stats_epoch``).  Two invariants keep those
statistics honest:

* they survive a checkpoint ``save`` -> ``load`` round trip, so a
  restored database plans with the same costs it had before the crash;
* advancing the epoch (DDL, range changes, bulk loads through
  ``copy_in`` or TQuel ``copy ... from``, vacuum) invalidates cached
  planner decisions, so no stale plan outlives the statistics that
  justified it.
"""

from __future__ import annotations

import pytest

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal
from repro.tquel.explain import explain

MAR1_1980 = parse_temporal("3/1/80")
JAN15_1980 = parse_temporal("1/15/80")


def _rows(first, last):
    return [
        (i, i % 8, "x", JAN15_1980 + 3600 * i, FOREVER,
         JAN15_1980 + 3600 * i, FOREVER)
        for i in range(first, last + 1)
    ]


@pytest.fixture
def db():
    db = TemporalDatabase("catstats", clock=Clock(start=MAR1_1980, tick=60))
    db.execute(
        "create persistent interval emp (id = i4, dept = i4, pad = c40)"
    )
    db.execute("modify emp to hash on id")
    db.copy_in("emp", _rows(1, 48))
    db.execute("range of e is emp")
    return db


def test_stats_survive_checkpoint_round_trip(db, tmp_path):
    for i in (1, 2, 3):
        db.execute(f"replace e (dept = 9) where e.id = {i}")
    before = db.relation_stats("emp")
    assert before["updates"] >= 3
    assert before["stats_epoch"] == db.stats_epoch

    db.save(tmp_path / "ckpt")
    restored = TemporalDatabase.load(tmp_path / "ckpt")
    assert restored.stats_epoch == db.stats_epoch
    restored.execute("range of e is emp")  # bumps the epoch (DDL)
    after = restored.relation_stats("emp")

    assert after["updates"] == before["updates"]
    assert after["rows"] == before["rows"]
    assert after["pages"] == before["pages"]
    # The restored database answers with the same rows and pages, so
    # the planner sees the same world.
    db.pool.flush_all()
    want = db.execute("retrieve (e.pad) where e.id = 7")
    restored.pool.flush_all()
    got = restored.execute("retrieve (e.pad) where e.id = 7")
    assert got.rows == want.rows
    assert got.io.input_pages == want.io.input_pages


def test_bulk_load_bumps_epoch_and_invalidates_plans(db):
    text = "retrieve (e.pad) where e.id = 7"
    db.execute(text)
    epoch = db.stats_epoch
    assert db.planner.cached_decisions >= 1

    db.copy_in("emp", _rows(49, 96))

    assert db.stats_epoch > epoch
    # Cached decisions keyed on the old epoch are unreachable: the next
    # execution re-plans (a cache miss, not a stale hit).
    misses = db.metrics.counter_value("planner.cache_misses")
    db.execute(text)
    assert db.metrics.counter_value("planner.cache_misses") == misses + 1


def test_ddl_and_vacuum_advance_stats_epoch(db):
    epoch = db.stats_epoch
    db.execute("index on emp is dix (dept)")
    assert db.stats_epoch > epoch

    epoch = db.stats_epoch
    for i in (10, 11):
        db.execute(f"delete e where e.id = {i}")
    db.vacuum_relation("emp", db.clock.now())
    assert db.stats_epoch > epoch


def test_tquel_copy_from_invalidates_plans(tmp_path):
    """A TQuel ``copy ... from`` is a bulk load like ``copy_in``: it
    advances the epoch, the next execution re-prices, and the path it
    runs is the one EXPLAIN prints."""
    db = TemporalDatabase("tqcopy", clock=Clock(start=MAR1_1980, tick=60))
    db.execute("create persistent interval r (k = i4, v = i4)")
    db.execute("modify r to isam on k")
    db.execute("range of x is r")
    db.execute("append to r (k = 1, v = 1)")
    text = "retrieve (x.v) where x.k = 5"
    # One row: the planner scans rather than descend the directory.
    assert "via sequential scan" in explain(db, text)
    db.execute(text)

    path = tmp_path / "rows.txt"
    path.write_text(
        "".join(f"{k}\t{k}\n" for k in range(2, 3000)), encoding="ascii"
    )
    epoch = db.stats_epoch
    db.execute(f'copy r from "{path}"')
    assert db.stats_epoch > epoch

    misses = db.metrics.counter_value("planner.cache_misses")
    ran_paths = []
    choose = db.planner.choose

    def recording_choose(executor, var, bound, plan_key):
        choice = choose(executor, var, bound, plan_key)
        ran_paths.append(choice.kind)
        return choice

    db.planner.choose = recording_choose
    db.pool.flush_all()
    ran = db.execute(text)
    del db.planner.choose
    assert db.metrics.counter_value("planner.cache_misses") == misses + 1
    assert ran_paths == ["keyed"]
    assert "via keyed isam access on k" in explain(db, text)
    assert [row[0] for row in ran.rows] == [5]


def test_update_counts_feed_relation_stats(db):
    before = db.relation_stats("emp")["updates"]
    db.execute("replace e (dept = 5) where e.id = 20")
    assert db.relation_stats("emp")["updates"] == before + 1
