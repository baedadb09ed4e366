"""EXPLAIN's ``cost:`` section: golden snapshots of the optimizer's
priced decisions -- chosen path, rejected alternatives with their
Fig. 9 predicted page reads, the partitioned-scan annotation, and the
ANALYZE predicted-vs-actual line.  Every snapshot must be stable across
repeated calls: planning is a pure function of the catalog statistics.
"""

from __future__ import annotations

import pytest

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal
from repro.tquel.explain import explain

MAR1_1980 = parse_temporal("3/1/80")
JAN15_1980 = parse_temporal("1/15/80")


@pytest.fixture
def db():
    db = TemporalDatabase("explaincost", clock=Clock(start=MAR1_1980, tick=60))
    db.execute(
        "create persistent interval emp (id = i4, dept = i4, pad = c40)"
    )
    db.execute("modify emp to hash on id")
    db.execute("index on emp is dix (dept)")
    rows = [
        (i, i % 8, "x", JAN15_1980 + 3600 * i, FOREVER,
         JAN15_1980 + 3600 * i, FOREVER)
        for i in range(1, 65)
    ]
    db.copy_in("emp", rows)
    db.execute("range of e is emp")
    return db


def test_cost_section_prices_chosen_and_rejected(db):
    plan = explain(db, "retrieve (e.pad) where e.id = 7")
    assert "via keyed hash access on id" in plan
    assert "cost:" in plan
    assert "e: chosen keyed hash access on id, predicted" in plan
    assert "e: rejected sequential scan, predicted" in plan
    # The probe is priced below the scan (that is why it won).
    chosen = next(
        line for line in plan.split("\n") if "chosen keyed" in line
    )
    rejected = next(
        line for line in plan.split("\n") if "rejected sequential" in line
    )

    def predicted(line):
        return float(line.rsplit("predicted ", 1)[1].split(" ")[0])

    assert predicted(chosen) < predicted(rejected)


def test_cost_section_prices_secondary_index(db):
    plan = explain(db, "retrieve (e.pad) where e.dept = 3")
    assert "e: chosen secondary index dix (hash, 1-level)" in plan
    assert "e: rejected sequential scan, predicted" in plan


def test_snapshot_is_stable_across_runs(db):
    text = "retrieve (e.pad) where e.id = 7"
    assert explain(db, text) == explain(db, text)
    probe = "retrieve (e.pad) where e.dept = 3"
    assert explain(db, probe) == explain(db, probe)


def test_fixed_strategy_probes_unpriced(db):
    db.planner.choose = db.planner.fixed_choice
    plan = explain(db, "retrieve (e.pad) where e.id = 7")
    assert "chosen" not in plan
    # The fixed strategy still probes; only the pricing is gone.
    assert "via keyed hash access on id" in plan


def test_partitioned_scan_line_shows_mode_and_pruning(db):
    db.execute("create persistent interval evt (id = i4, v = i4)")
    db.execute("range of ev is evt")
    rows = [
        (i, i * 10, JAN15_1980 + 86400 * i, FOREVER,
         JAN15_1980 + 86400 * i, FOREVER)
        for i in range(1, 33)
    ]
    db.copy_in("evt", rows)
    db.partition_relation("evt", "range", "id", 4, bounds=[9, 17, 25])
    plan = explain(db, "retrieve (ev.v) where ev.v >= 0")
    assert "[4 range partitions, serial gather]" in plan

    pruned = explain(db, 'retrieve (ev.v) as of "1/20/80"')
    assert "pruned by as-of bounds" in pruned
    assert pruned == explain(db, 'retrieve (ev.v) as of "1/20/80"')


def test_analyze_reports_predicted_versus_actual(db):
    db.pool.flush_all()
    plan = explain(db, "retrieve (e.pad) where e.dept < 0", analyze=True)
    assert "measured:" in plan
    line = next(
        (ln for ln in plan.split("\n") if "cost model:" in ln), None
    )
    assert line is not None, plan
    # A sequential scan's prediction is exact: ratio 1.00.
    assert "(ratio 1.00)" in line
