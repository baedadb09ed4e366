"""The read kernel: temporal predicates on integer pairs and run-metered
page reads must be observably identical to what they replace.

* The ``(start, stop)`` closures of :mod:`repro.tquel.compile` equal the
  :class:`Period` algebra on every operator, including degenerate
  stored periods, events, ``FOREVER`` and empty intersections.
* ``BufferedFile.read_run(ids)`` equals ``[read(i) for i in ids]`` on
  the pages returned, the pool's LRU order and dirty flags, the global
  and scoped I/O counters, the touched-file set and the hit/miss metrics.
* A query fetches a range or chain as one run only when no deeper loop
  depth reads the same file: an undetached self-join reads exactly what
  a page-by-page walk reads on every structure and buffer pool size.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import FOREVER, Clock, TemporalDatabase, parse_temporal
from repro.observe.metrics import MetricsRegistry
from repro.storage.buffer import BufferPool
from repro.temporal.interval import Period
from repro.temporal.parse import parse_temporal as parse_at
from repro.tquel import ast
from repro.tquel.compile import VarLayout, compile_temporal, compile_when
from tests.conftest import per_page_reads

# -- integer pairs == the Period algebra -----------------------------------

INTERVAL = VarLayout(positions={"valid_from": 0, "valid_to": 1}, valid=(0, 1))
EVENT = VarLayout(positions={"valid_at": 0}, valid_at=0)
LAYOUTS = {"h": INTERVAL, "i": INTERVAL, "e": EVENT}

chronons = st.one_of(
    st.sampled_from([0, 1, 2, FOREVER - 2, FOREVER - 1, FOREVER]),
    st.integers(min_value=0, max_value=40),
)


class _Clock:
    def __init__(self, now: int):
        self._clock = Clock(start=now)

    def parse(self, text: str) -> int:
        return parse_at(text, clock=self._clock)


def _stored(start: int, stop: int) -> Period:
    """How the Period-based kernel read a stored valid period."""
    return Period(start, stop) if stop > start else Period.event(start)


def reference(expr, env, clock):
    """Evaluate a temporal operand with Period objects (None: empty)."""
    if isinstance(expr, ast.TempConst):
        return Period.event(clock.parse(expr.text))
    if isinstance(expr, ast.TempVar):
        return env[expr.var]
    if isinstance(expr, ast.TempEdge):
        period = reference(expr.operand, env, clock)
        if period is None:
            return None
        if expr.which == "start":
            return period.start_event()
        return period.end_event()
    left = reference(expr.left, env, clock)
    right = reference(expr.right, env, clock)
    if expr.op == "overlap":
        if left is None or right is None:
            return None
        return left.intersect(right)
    if left is None:
        return right
    if right is None:
        return left
    return left.extend(right)


def reference_when(node, env, clock) -> bool:
    if isinstance(node, ast.BoolOp):
        parts = [reference_when(op, env, clock) for op in node.operands]
        return all(parts) if node.op == "and" else any(parts)
    if isinstance(node, ast.NotOp):
        return not reference_when(node.operand, env, clock)
    left = reference(node.left, env, clock)
    right = reference(node.right, env, clock)
    if left is None or right is None:
        return False
    if node.op == "overlap":
        return left.overlaps(right)
    return left.precedes(right)


leaves = st.one_of(
    st.sampled_from([ast.TempVar("h"), ast.TempVar("i"), ast.TempVar("e")]),
    st.sampled_from(["now", "forever", "beginning"]).map(ast.TempConst),
)
operands = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(ast.TempEdge, st.sampled_from(["start", "end"]), inner),
        st.builds(
            ast.TempBin, st.sampled_from(["overlap", "extend"]), inner, inner
        ),
    ),
    max_leaves=6,
)
predicates = st.recursive(
    st.builds(
        ast.TempBin, st.sampled_from(["overlap", "precede"]),
        operands, operands,
    ),
    lambda inner: st.one_of(
        st.builds(ast.NotOp, inner),
        st.builds(
            ast.BoolOp, st.sampled_from(["and", "or"]),
            st.lists(inner, min_size=2, max_size=3).map(tuple),
        ),
    ),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(
    expr=operands, pred=predicates,
    h=st.tuples(chronons, chronons), i=st.tuples(chronons, chronons),
    e=chronons, now=st.integers(min_value=1, max_value=40),
)
def test_integer_pairs_equal_the_period_algebra(expr, pred, h, i, e, now):
    clock = _Clock(now)
    env = {"h": _stored(*h), "i": _stored(*i), "e": Period.event(e)}
    bindings = {"i": i, "e": (e,)}
    want = reference(expr, env, clock)
    got = compile_temporal(expr, "h", LAYOUTS, bindings, clock)(h)
    assert got == (None if want is None else (want.start, want.stop))
    when = compile_when(pred, "h", LAYOUTS, bindings, clock)
    assert bool(when(h)) is reference_when(pred, env, clock)


# -- read_run == per-page read ----------------------------------------------


def _pool(capacity: int, pages: int):
    metrics = MetricsRegistry()
    pool = BufferPool()
    pool.attach_observers(metrics=metrics)
    file = pool.create_file("r", 16, buffers=capacity)
    for index in range(pages):
        page_id, page = file.allocate()
        page.append(bytes([index]) * 16)
        file.mark_dirty(page_id)
    file.flush()
    return pool, file, metrics


def _observed(pool, file, metrics):
    stats = pool.stats
    return {
        "lru": list(file._resident.items()),
        "global": stats.checkpoint(),
        "scoped": stats.checkpoint("session"),
        "touched": pool._touched,
        "hits": metrics.counter("buffer.hits").value,
        "misses": metrics.counter("buffer.misses").value,
    }


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    pages=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_read_run_replays_per_page_reads(capacity, pages, data):
    page_ids = st.integers(min_value=0, max_value=pages - 1)
    warm = data.draw(st.lists(st.tuples(page_ids, st.booleans()), max_size=6))
    run = data.draw(st.lists(page_ids, max_size=12))
    sides = []
    for batched in (True, False):
        pool, file, metrics = _pool(capacity, pages)
        with pool.stats.scoped("session"):
            # Earlier reads, some dirtying their page, so the run starts
            # from a warm pool whose evictions may have to write back.
            for page_id, dirty in warm:
                file.read(page_id)
                if dirty:
                    file.mark_dirty(page_id)
            if batched:
                fetched = file.read_run(run)
            else:
                fetched = [file.read(page_id) for page_id in run]
        assert all(page is file.peek(i) for i, page in zip(run, fetched))
        sides.append(
            ([page.to_bytes() for page in fetched],
             _observed(pool, file, metrics))
        )
    assert sides[0] == sides[1]


# -- run-ahead only where the plan allows it ------------------------------

JAN15_1980 = parse_temporal("1/15/80")
STRUCTURES = ("heap", "hash", "isam", "btree", "twolevel")


def _self_join_db(structure: str, buffers: int):
    db = TemporalDatabase(
        "kernel", clock=Clock(start=parse_temporal("3/1/80"), tick=60),
        buffers_per_relation=buffers,
    )
    db.execute("create persistent interval r (id = i4, v = i4, pad = c40)")
    db.copy_in("r", [
        (i, i % 7, "p", JAN15_1980 + 3600 * i, FOREVER,
         JAN15_1980 + 3600 * i, FOREVER)
        for i in range(1, 41)
    ])
    if structure != "heap":
        db.execute(f"modify r to {structure} on id")
    db.execute("range of x is r")
    db.execute("range of y is r")
    for step in range(6):
        db.execute(f"replace x (v = x.v + 1) where x.id = {step * 7 + 1}")
    return db


def test_undetached_self_join_reads_like_the_tuple_interpreter():
    """No conjunct names x alone, so x is not detached: the outer depth
    scans r while the inner depth probes r again for every x row.  The
    outer scan must keep fetching page by page -- one run up front would
    leave a different page resident for the inner probes -- so the
    query reads what the page-by-page walk (the tuple-at-a-time
    interpreter's sequence) reads."""
    queries = (
        "retrieve (x.id, y.v) where x.id = y.id",
        "retrieve (x.id, y.id) where x.v = y.v when x overlap y",
    )
    for structure in STRUCTURES:
        for buffers in range(1, 5):
            db = _self_join_db(structure, buffers)
            for text in queries:
                got = _cold(db, text)
                with per_page_reads():
                    want = _cold(db, text)
                assert got == want, (structure, buffers, text)


def _cold(db, text):
    """(sorted rows, per-relation I/O) of *text* from a cold pool."""
    db.pool.flush_all()
    result = db.execute(text)
    return sorted(result.rows), result.io.as_dict()
