"""Differential testing of the page-at-a-time execution kernel's run-ahead.

A plan fetches a scan range or chain as one metered run only where
nothing deeper in the join reads the same file; everywhere else it reads
page by page.  Either way the result rows AND the per-relation page I/O
must equal the page-by-page walk (:func:`tests.conftest.per_page_reads`)
-- the paper's entire result set is page counts, so a single moved read
is a regression.  Hypothesis generates random relations (heap, hash,
ISAM, B-tree), version histories and temporal predicates; each scenario
runs on two identically built databases, one of them reading through the
page-by-page reference.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal
from tests.conftest import per_page_reads

MAR1_1980 = parse_temporal("3/1/80")
JAN15_1980 = parse_temporal("1/15/80")

_CREATE_PREFIX = {
    "static": "create",
    "rollback": "create persistent",
    "historical": "create interval",
    "temporal": "create persistent interval",
}


def build(scenario) -> TemporalDatabase:
    """One deterministically-built database for *scenario*."""
    db = TemporalDatabase("diff", clock=Clock(start=MAR1_1980, tick=60))
    db_type = scenario["db_type"]
    n = scenario["tuples"]
    db.execute(f"{_CREATE_PREFIX[db_type]} r (id = i4, v = i4, pad = c40)")
    has_tx = db_type in ("rollback", "temporal")
    has_valid = db_type in ("historical", "temporal")
    rows = []
    for i in range(1, n + 1):
        row = [i, i * 10, "p"]
        stamp = JAN15_1980 + 3600 * i
        if has_tx:
            row += [stamp, FOREVER]
        if has_valid:
            row += [stamp, FOREVER]
        rows.append(tuple(row))
    db.copy_in("r", rows)
    structure = scenario["structure"]
    if structure == "heap":
        db.execute("modify r to heap")
    else:
        db.execute(
            f"modify r to {structure} on id "
            f"where fillfactor = {scenario['loading']}"
        )
    db.execute("range of x is r")
    db.execute("range of y is r")
    for step in range(scenario["updates"]):
        target = (step * 7) % n + 1
        db.execute(f"replace x (v = x.v + 100) where x.id = {target}")
    return db


def queries(scenario) -> "list[str]":
    """The scenario's query mix: keyed, scan, join, temporal."""
    db_type = scenario["db_type"]
    n = scenario["tuples"]
    probe = scenario["probe"]
    threshold = scenario["threshold"] * 10
    texts = [
        f"retrieve (x.id, x.v) where x.id = {probe}",
        f"retrieve (x.v) where x.v >= {threshold}",
        "retrieve (x.id, y.v) where x.id = y.id "
        f"and x.v >= {threshold} and y.v < {n * 10}",
    ]
    if db_type in ("historical", "temporal"):
        texts.append(
            f'retrieve (x.id) where x.id >= {probe} '
            'when x overlap "2/1/80"'
        )
    if db_type in ("rollback", "temporal"):
        texts.append('retrieve (x.id, x.v) as of "1/20/80"')
        texts.append('retrieve (x.id) as of "now"')
    return texts


def run_query(db: TemporalDatabase, text: str):
    """(sorted result rows, full per-relation I/O delta) for one query,
    from a cold pool."""
    db.pool.flush_all()
    before = db.stats.checkpoint()
    result = db.execute(text)
    delta = db.stats.delta(before)
    return sorted(result.rows), delta.as_dict()


def run_both(db: TemporalDatabase, reference_db: TemporalDatabase,
             text: str):
    """The query as planned on *db*, and on *reference_db* through the
    page-by-page reference."""
    planned = run_query(db, text)
    with per_page_reads():
        reference = run_query(reference_db, text)
    return planned, reference


@st.composite
def scenarios(draw):
    return {
        "db_type": draw(
            st.sampled_from(["static", "rollback", "historical", "temporal"])
        ),
        "structure": draw(st.sampled_from(["heap", "hash", "isam", "btree"])),
        "loading": draw(st.sampled_from([100, 50])),
        "tuples": draw(st.integers(min_value=8, max_value=40)),
        "updates": draw(st.integers(min_value=0, max_value=6)),
        "probe": draw(st.integers(min_value=1, max_value=40)),
        "threshold": draw(st.integers(min_value=0, max_value=40)),
    }


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_batch_matches_tuple_at_a_time(scenario):
    """The planned reads equal the page-by-page walk, the sequence the
    tuple-at-a-time interpreter once produced."""
    db, reference_db = build(scenario), build(scenario)
    for text in queries(scenario):
        planned, reference = run_both(db, reference_db, text)
        assert planned == reference, text


@settings(max_examples=10, deadline=None)
@given(
    scenario=scenarios(),
    buffers=st.integers(min_value=1, max_value=4),
)
def test_batch_matches_with_larger_buffer_pools(scenario, buffers):
    """Interleaved read accounting survives batching even when pages stay
    resident (buffers > 1 makes the hit/miss sequence order-sensitive)."""
    n = scenario["tuples"]
    dbs = []
    for _ in range(2):
        db = TemporalDatabase(
            "diff",
            clock=Clock(start=MAR1_1980, tick=60),
            buffers_per_relation=buffers,
        )
        db.execute(
            "create persistent interval r (id = i4, v = i4, pad = c40)"
        )
        stamp = JAN15_1980
        rows = [
            (i, i * 10, "p", stamp + 3600 * i, FOREVER,
             stamp + 3600 * i, FOREVER)
            for i in range(1, n + 1)
        ]
        db.copy_in("r", rows)
        db.execute(
            f"modify r to hash on id where fillfactor = {scenario['loading']}"
        )
        db.execute("range of x is r")
        db.execute("range of y is r")
        dbs.append(db)
    # A self-join shares one file between both loop depths: the batch
    # kernel must read its pages at the same points in the interleaved
    # sequence or the buffer hit accounting shifts.
    text = (
        "retrieve (x.id, y.v) where x.id = y.id "
        f"and x.v >= {scenario['threshold'] * 10}"
    )
    planned, reference = run_both(*dbs, text)
    assert planned == reference
