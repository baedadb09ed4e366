"""Differential testing of partitioned scatter-gather execution.

Partitioning is a physical-layout change and scatter-gather an
execution-strategy change: neither may alter a single answer row.
Hypothesis generates temporal relations, version histories and query
mixes; each scenario runs on an unpartitioned reference database and on
a partitioned copy (hash or range, zone map on or off), and every
result must match row-for-row.

A second, deterministic test drives one partitioned database through
both gather modes (``serial``, ``process``) and asserts rows *and page
accounting* are identical -- the paper's entire
result set is page counts, so a worker that meters a read differently
is a regression even when the rows agree.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal

MAR1_1980 = parse_temporal("3/1/80")
JAN15_1980 = parse_temporal("1/15/80")


def build(scenario) -> TemporalDatabase:
    db = TemporalDatabase("pdiff", clock=Clock(start=MAR1_1980, tick=60))
    n = scenario["tuples"]
    db.execute("create persistent interval r (id = i4, v = i4, pad = c40)")
    rows = [
        (i, i * 10, "p", JAN15_1980 + 3600 * i, FOREVER,
         JAN15_1980 + 3600 * i, FOREVER)
        for i in range(1, n + 1)
    ]
    db.copy_in("r", rows)
    db.execute("range of x is r")
    db.execute("range of y is r")
    for step in range(scenario["updates"]):
        target = (step * 7) % n + 1
        db.execute(f"replace x (v = x.v + 100) where x.id = {target}")
    return db


def partition(db, scenario, parallel: str = "serial") -> None:
    n = scenario["tuples"]
    count = scenario["partitions"]
    if scenario["method"] == "hash":
        db.partition_relation("r", "hash", "id", count, parallel=parallel)
    else:
        step = max(1, n // count)
        cuts = [1 + step * k for k in range(1, count)]
        db.partition_relation(
            "r", "range", "id", count, parallel=parallel, bounds=cuts
        )
    if scenario["zonemap"]:
        db.relation("r").enable_zone_map()


def queries(scenario) -> "list[str]":
    probe = scenario["probe"]
    threshold = scenario["threshold"] * 10
    return [
        f"retrieve (x.id, x.v) where x.id = {probe}",
        f"retrieve (x.v) where x.v >= {threshold}",
        "retrieve (c = count(x.id), s = sum(x.v)) "
        f"where x.v >= {threshold}",
        'retrieve (x.id, x.v) as of "1/20/80"',
        'retrieve (x.id) as of "now"',
        f'retrieve (x.id) where x.id >= {probe} when x overlap "2/1/80"',
    ]


def run_query(db, text):
    """(sorted result rows, (input pages, output pages)) for one query."""
    db.pool.flush_all()
    result = db.execute(text)
    return sorted(result.rows), (result.io.input_pages, result.io.output_pages)


def release(db) -> None:
    for relation in list(db._relations.values()):
        close = getattr(relation, "release", None)
        if close is not None:
            close()


@st.composite
def scenarios(draw):
    return {
        "tuples": draw(st.integers(min_value=8, max_value=48)),
        "updates": draw(st.integers(min_value=0, max_value=6)),
        "probe": draw(st.integers(min_value=1, max_value=48)),
        "threshold": draw(st.integers(min_value=0, max_value=48)),
        "method": draw(st.sampled_from(["hash", "range"])),
        "partitions": draw(st.integers(min_value=2, max_value=4)),
        "zonemap": draw(st.booleans()),
    }


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios())
def test_partitioned_matches_unpartitioned(scenario):
    reference = build(scenario)
    partitioned = build(scenario)
    partition(partitioned, scenario)
    try:
        for text in queries(scenario):
            ref_rows, _ = run_query(reference, text)
            part_rows, _ = run_query(partitioned, text)
            assert part_rows == ref_rows, text
    finally:
        release(partitioned)


@settings(max_examples=8, deadline=None)
@given(scenario=scenarios())
def test_mutations_match_after_partitioning(scenario):
    """Appends/replaces/deletes land identically whatever the layout."""
    statements = [
        'append to r (id = 100, v = 1000, pad = "q")',
        f"replace x (v = x.v + 5) where x.id = {scenario['probe']}",
        f"delete x where x.id = {(scenario['probe'] % 5) + 1}",
    ]
    reference = build(scenario)
    partitioned = build(scenario)
    partition(partitioned, scenario)
    try:
        for text in statements:
            reference.execute(text)
            partitioned.execute(text)
        for text in queries(scenario):
            assert run_query(partitioned, text)[0] == run_query(reference, text)[0]
    finally:
        release(partitioned)


# No conjunct names x alone, so neither side is detached and the outer
# scan of r interleaves with the inner scans of r: a gather that
# collected every partition up front would read a different page
# sequence than the serial scan.
SELF_JOIN = "retrieve (x.id, y.v) where x.id = y.id"


def test_gather_modes_agree_on_rows_and_pages():
    """serial / process: same rows, same metered pages."""
    scenario = {
        "tuples": 48,
        "updates": 4,
        "probe": 7,
        "threshold": 12,
        "method": "hash",
        "partitions": 4,
        "zonemap": False,
    }
    texts = queries(scenario) + [SELF_JOIN]
    reference = build(scenario)
    ref_answers = [run_query(reference, text) for text in texts]

    db = build(scenario)
    try:
        answers = {}
        for mode in ("serial", "process"):
            partition(db, scenario, parallel=mode)
            answers[mode] = [run_query(db, text) for text in texts]
        assert answers["process"] == answers["serial"]
        # ...and the rows (not the page counts -- layout changed) match
        # the unpartitioned reference.
        for got, want in zip(answers["serial"], ref_answers):
            assert got[0] == want[0]
    finally:
        release(db)
