"""Plan-equivalence differential testing of the cost-based optimizer.

The optimizer (``repro.engine.planner``) chooses access paths from the
Fig. 9 cost model; the fixed strategy takes the keyed -> secondary-index
-> scan priority unconditionally.  Whatever the choice, the *answer*
must be identical: an access path is a physical decision, never a
semantic one.

Three layers of checking:

* Hypothesis scenarios across all five access methods, with and without
  partitioning and secondary indexes: every query returns identical
  rows under ``optimizer=True`` and ``optimizer=False``, mutations land
  identically, and the optimizer's metered pages stay within the model
  tolerance of the fixed strategy's (it may only beat it or tie, plus
  the allowed modeling slack).

* Seeded sim workloads replayed through the differential harness with
  the optimizer on and off: both runs must agree with the independent
  oracle on every statement.

* Predicted-vs-actual: for single-variable statements the Fig. 9
  prediction printed by EXPLAIN ANALYZE must match the metered pages
  within ``RATIO_TOLERANCE``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal
from repro.engine.cost import RATIO_TOLERANCE
from repro.sim.generator import generate_workload
from repro.sim.harness import QUICK_MATRIX, run_workload
from repro.tquel.explain import explain

MAR1_1980 = parse_temporal("3/1/80")
JAN15_1980 = parse_temporal("1/15/80")

STRUCTURES = ("heap", "hash", "isam", "btree", "twolevel")


def build(scenario, optimizer: bool) -> TemporalDatabase:
    db = TemporalDatabase(
        "odiff", clock=Clock(start=MAR1_1980, tick=60), optimizer=optimizer
    )
    n = scenario["tuples"]
    db.execute("create persistent interval r (id = i4, v = i4, pad = c40)")
    structure = scenario["structure"]
    if structure != "heap":
        db.execute(f"modify r to {structure} on id")
    if (
        scenario["index"]
        and structure != "btree"
        and not scenario["partitions"]
    ):
        # B-trees reject secondary indexes (splits relocate records);
        # partitioned relations reject them too (a tid cannot address
        # N stores).
        db.execute("index on r is vix (v)")
    rows = [
        (i, (i * 7) % 50, "p", JAN15_1980 + 3600 * i, FOREVER,
         JAN15_1980 + 3600 * i, FOREVER)
        for i in range(1, n + 1)
    ]
    db.copy_in("r", rows)
    db.execute("range of x is r")
    for step in range(scenario["updates"]):
        target = (step * 7) % n + 1
        db.execute(f"replace x (v = x.v + 100) where x.id = {target}")
    if scenario["partitions"] and structure in ("heap", "hash", "isam"):
        # Partitioning supports heap, hash and isam structures only.
        db.partition_relation(
            "r", "hash", "id", scenario["partitions"], parallel="serial"
        )
    return db


def queries(scenario) -> "list[str]":
    probe = scenario["probe"]
    threshold = scenario["threshold"]
    return [
        f"retrieve (x.id, x.v) where x.id = {probe}",
        f"retrieve (x.id, x.v) where x.v = {threshold}",
        f"retrieve (x.v) where x.v >= {threshold}",
        "retrieve (c = count(x.id), s = sum(x.v)) "
        f"where x.v >= {threshold}",
        'retrieve (x.id, x.v) as of "1/20/80"',
        f'retrieve (x.id) where x.id = {probe} as of "now"',
    ]


def run_query(db, text):
    """(sorted rows, input pages) for one query on a cold buffer pool."""
    db.pool.flush_all()
    result = db.execute(text)
    return sorted(result.rows), result.io.input_pages


def release(db) -> None:
    for relation in list(db._relations.values()):
        close = getattr(relation, "release", None)
        if close is not None:
            close()


@st.composite
def scenarios(draw):
    return {
        "structure": draw(st.sampled_from(STRUCTURES)),
        "index": draw(st.booleans()),
        "partitions": draw(st.sampled_from([0, 0, 2, 3])),
        "tuples": draw(st.integers(min_value=8, max_value=48)),
        "updates": draw(st.integers(min_value=0, max_value=6)),
        "probe": draw(st.integers(min_value=1, max_value=48)),
        "threshold": draw(st.integers(min_value=0, max_value=60)),
    }


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
# An equality probe that misses the index: index 3.2 vs scan 3.0
# predicted, 1 page vs 3 measured -- a near-tie the fixed order must win.
@example({
    "structure": "twolevel", "index": True, "partitions": 0, "tuples": 8,
    "updates": 5, "probe": 1, "threshold": 0,
})
def test_optimizer_on_off_rows_identical(scenario):
    planned = build(scenario, optimizer=True)
    fixed = build(scenario, optimizer=False)
    try:
        for text in queries(scenario):
            planned_rows, planned_pages = run_query(planned, text)
            fixed_rows, fixed_pages = run_query(fixed, text)
            assert planned_rows == fixed_rows, text
            # The optimizer only flips when the model says the new path
            # is strictly cheaper; metered pages may exceed the fixed
            # strategy's only by the allowed modeling slack.
            assert planned_pages <= fixed_pages * (1 + RATIO_TOLERANCE) + 1, (
                f"{text}: optimizer {planned_pages} pages vs fixed "
                f"{fixed_pages}"
            )
    finally:
        release(planned)
        release(fixed)


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_optimizer_on_off_mutations_identical(scenario):
    statements = [
        'append to r (id = 100, v = 1000, pad = "q")',
        f"replace x (v = x.v + 5) where x.id = {scenario['probe']}",
        f"delete x where x.id = {(scenario['probe'] % 5) + 1}",
    ]
    planned = build(scenario, optimizer=True)
    fixed = build(scenario, optimizer=False)
    try:
        for text in statements:
            planned.execute(text)
            fixed.execute(text)
        for text in queries(scenario):
            assert run_query(planned, text)[0] == run_query(fixed, text)[0]
        # The final states agree wholesale, not just per-query.
        assert run_query(planned, "retrieve (x.id, x.v, x.pad)") == (
            run_query(fixed, "retrieve (x.id, x.v, x.pad)")
        )
    finally:
        release(planned)
        release(fixed)


def test_sim_workloads_agree_with_oracle_both_ways():
    """Seeded sim workloads: optimizer on and off both match the
    independent oracle on every structure of the quick matrix."""
    for seed in (5, 11):
        workload = generate_workload(seed, ops=60)
        for config in QUICK_MATRIX:
            for optimizer in (True, False):
                report = run_workload(
                    workload,
                    dataclasses.replace(config, optimizer=optimizer),
                )
                assert report.divergence is None, (
                    f"seed {seed} {config.label} optimizer={optimizer}: "
                    f"{report.divergence}"
                )


def test_predictions_within_model_tolerance():
    """EXPLAIN ANALYZE's Fig. 9 prediction matches the metered pages
    within RATIO_TOLERANCE on every access method."""
    for structure in STRUCTURES:
        scenario = {
            "structure": structure, "index": False, "partitions": 0,
            "tuples": 40, "updates": 4, "probe": 7, "threshold": 21,
        }
        db = build(scenario, optimizer=True)
        try:
            for text in (
                "retrieve (x.id, x.v) where x.id = 7",
                "retrieve (x.v) where x.v >= 21",
            ):
                db.pool.flush_all()
                rendered = explain(db, text, analyze=True)
                line = next(
                    (ln for ln in rendered.split("\n")
                     if "cost model:" in ln),
                    None,
                )
                assert line is not None, rendered
                ratio = float(line.rsplit("(ratio ", 1)[1].rstrip(")"))
                assert abs(ratio - 1.0) <= RATIO_TOLERANCE, (
                    f"{structure}: {line}"
                )
        finally:
            release(db)
