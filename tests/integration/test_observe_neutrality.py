"""Instrumentation neutrality: tracing/metrics never change page counts.

The paper's entire result set is page-read counts; the hard invariant of
the observability layer is that turning it on does not move a single
number.  These tests run the benchmark queries on two identically-built
databases -- one untraced, one with tracing and metrics fully enabled --
and require byte-identical costs, then exercise ``EXPLAIN ANALYZE`` over
every benchmark query.
"""

from __future__ import annotations

import pytest

from repro.bench.evolve import evolve_uniform
from repro.bench.queries import benchmark_queries
from repro.bench.runner import measure_suite, trace_queries
from repro.bench.workload import WorkloadConfig, build_database
from repro.catalog.schema import DatabaseType

SMALL = dict(tuples=64, seed=7)

PIPELINE_STAGES = ("lex", "parse", "semantics", "plan", "execute")


def build(db_type=DatabaseType.TEMPORAL, loading=100, updates=2):
    bench = build_database(
        WorkloadConfig(db_type=db_type, loading=loading, **SMALL)
    )
    if updates and db_type is not DatabaseType.STATIC:
        evolve_uniform(bench, steps=updates)
    return bench


@pytest.mark.parametrize(
    "db_type",
    [
        DatabaseType.STATIC,
        DatabaseType.ROLLBACK,
        DatabaseType.HISTORICAL,
        DatabaseType.TEMPORAL,
    ],
)
def test_tracing_and_metrics_do_not_change_page_counts(db_type):
    plain = build(db_type)
    observed = build(db_type)
    observed.db.tracer.enable()
    assert observed.db.metrics.enabled

    baseline = measure_suite(plain)
    traced = measure_suite(observed)

    assert set(baseline) == set(traced)
    for query_id, cost in baseline.items():
        assert traced[query_id] == cost, (
            f"{db_type.value} {query_id}: instrumentation changed the "
            f"measured cost ({cost} -> {traced[query_id]})"
        )


def test_span_io_matches_statement_io():
    bench = build()
    db = bench.db
    texts = benchmark_queries(bench.config)
    with db.tracer.force():
        for query_id, text in texts.items():
            if text is None:
                continue
            db.pool.flush_all()
            result = db.execute(text)
            span = db.tracer.last
            assert span.io.input_pages == result.input_pages, query_id
            assert span.io.output_pages == result.output_pages, query_id


def test_trace_queries_covers_suite_with_full_pipeline():
    bench = build()
    spans = trace_queries(bench)
    expected = {
        query_id
        for query_id, text in benchmark_queries(bench.config).items()
        if text is not None
    }
    assert set(spans) == expected
    for query_id, span in spans.items():
        stages = [child.name for child in span.children]
        assert stages == list(PIPELINE_STAGES), query_id
        assert span.duration > 0
        # tracing stays off outside the helper
    assert not bench.db.tracer.enabled


def test_explain_analyze_all_benchmark_queries():
    bench = build()
    db = bench.db
    for query_id, text in benchmark_queries(bench.config).items():
        if text is None:
            continue
        rendered = db.explain(text, analyze=True)
        assert rendered.startswith("plan:"), query_id
        assert "measured:" in rendered, query_id
        for stage in PIPELINE_STAGES:
            assert f"─ {stage}" in rendered, (query_id, stage)
        assert "result:" in rendered, query_id


def test_explain_analyze_page_counts_match_untraced_run():
    plain = build()
    analyzed = build()
    texts = benchmark_queries(plain.config)
    for query_id, text in texts.items():
        if text is None:
            continue
        plain.db.pool.flush_all()
        expected = plain.db.execute(text)
        analyzed.db.pool.flush_all()
        rendered = analyzed.db.explain(text, analyze=True)
        line = next(
            part
            for part in rendered.split("\n")
            if part.strip().startswith("result:")
        )
        assert f"input {expected.input_pages} page(s)" in line, query_id
        assert f"output {expected.output_pages} page(s)" in line, query_id


def test_sweep_cells_unaffected_by_instrumentation():
    """A benchmark sweep's every cell is identical with tracing enabled.

    This is the same protocol ``repro.bench.validate`` checks against the
    paper's published tables, so identical cells here means identical
    validation verdicts with and without instrumentation.
    """
    from repro.bench.runner import BenchmarkRun

    config = WorkloadConfig(
        db_type=DatabaseType.TEMPORAL, loading=100, **SMALL
    )
    plain = BenchmarkRun(config, max_update_count=2).run()

    bench = build_database(config)
    bench.db.tracer.enable()
    for update_count in range(3):
        if update_count:
            evolve_uniform(bench, steps=1)
        for query_id, cost in measure_suite(bench).items():
            if cost is None:
                continue
            assert plain.costs[query_id][update_count] == cost, (
                query_id,
                update_count,
            )


@pytest.mark.parametrize(
    "db_type",
    [
        DatabaseType.STATIC,
        DatabaseType.ROLLBACK,
        DatabaseType.HISTORICAL,
        DatabaseType.TEMPORAL,
    ],
)
def test_statement_atomicity_is_accounting_neutral(db_type):
    """The undo scope (page pre-images, meta snapshots) is unmetered:
    building, evolving and measuring with atomic statements disabled
    yields byte-identical costs and sizes."""
    atomic = build(db_type, updates=0)
    bare = build(db_type, updates=0)
    bare.db.atomic_statements = False
    assert atomic.db.atomic_statements
    if db_type is not DatabaseType.STATIC:
        evolve_uniform(atomic, steps=2)
        evolve_uniform(bare, steps=2)
    assert atomic.sizes() == bare.sizes()
    assert measure_suite(atomic) == measure_suite(bare)


def test_fault_counting_is_accounting_neutral():
    """Counting failpoint hits (the monitor's ``\\failpoints on``) is
    plain Python arithmetic and never moves a page count."""
    from repro import fault

    fault.reset()
    plain = build(DatabaseType.TEMPORAL)
    baseline = measure_suite(plain)
    try:
        fault.set_counting(True)
        counted = build(DatabaseType.TEMPORAL)
        assert measure_suite(counted) == baseline
        assert fault.counts()["pager.write"][0] > 0
    finally:
        fault.reset()


@pytest.mark.parametrize(
    "db_type",
    [
        DatabaseType.STATIC,
        DatabaseType.ROLLBACK,
        DatabaseType.HISTORICAL,
        DatabaseType.TEMPORAL,
    ],
)
def test_full_telemetry_stack_is_accounting_neutral(db_type, tmp_path):
    """Recorder (debug level), heatmap, tracer and exports all enabled
    yield byte-identical page counts to a bare database, and exporting
    telemetry mid-run moves nothing either."""
    from repro.observe import events as observe_events
    from repro.observe.export import export_telemetry

    plain = build(db_type)
    observed = build(db_type)
    db = observed.db
    db.tracer.enable()
    db.recorder.min_level = observe_events.DEBUG
    db.heatmap.enable()

    baseline = measure_suite(plain)
    assert measure_suite(observed) == baseline
    assert len(db.recorder.dump(kind="statement.end")) > 0
    assert db.heatmap.files(), "an enabled heatmap must capture accesses"

    written = export_telemetry(db, tmp_path / "telemetry")
    assert set(written) >= {"trace", "metrics_prom", "metrics_json", "events"}
    assert measure_suite(observed) == measure_suite(plain)


def test_heatmap_totals_equal_metered_io():
    """The heatmap is a spatial decomposition of exactly the metered
    accesses: per file, its totals equal the I/O meter's delta."""
    bench = build(DatabaseType.TEMPORAL)
    db = bench.db
    db.pool.flush_all()
    db.heatmap.enable()
    before = db.stats.checkpoint()
    measure_suite(bench)
    delta = db.stats.delta(before)
    for name, counters in delta.by_relation.items():
        if name.startswith("_temp"):
            continue  # temporaries are recreated per statement
        reads, writes = db.heatmap.totals(name)
        assert (reads, writes) == (counters.reads, counters.writes), name


def test_sweep_cells_identical_with_full_telemetry():
    """A full sweep's every cell is identical with the recorder at debug
    level, the heatmap capturing and the tracer on -- the telemetry
    analogue of the validation-protocol instrumentation test above."""
    from repro.bench.runner import BenchmarkRun
    from repro.observe import events as observe_events

    config = WorkloadConfig(
        db_type=DatabaseType.TEMPORAL, loading=100, **SMALL
    )
    plain = BenchmarkRun(config, max_update_count=2).run()

    bench = build_database(config)
    bench.db.tracer.enable()
    bench.db.recorder.min_level = observe_events.DEBUG
    bench.db.heatmap.enable()
    for update_count in range(3):
        if update_count:
            evolve_uniform(bench, steps=1)
        for query_id, cost in measure_suite(bench).items():
            if cost is None:
                continue
            assert plain.costs[query_id][update_count] == cost, (
                query_id,
                update_count,
            )


def test_checksummed_checkpoint_round_trip_is_accounting_neutral(tmp_path):
    """Page checksums live only in the checkpoint files: a database
    restored from a checksummed checkpoint measures identically."""
    bench = build(DatabaseType.TEMPORAL)
    baseline = measure_suite(bench)
    bench.db.save(tmp_path / "ckpt")
    from repro import TemporalDatabase

    restored = TemporalDatabase.load(tmp_path / "ckpt")
    bench.db = restored
    restored.execute(f"range of h is {bench.h_name}")
    restored.execute(f"range of i is {bench.i_name}")
    assert measure_suite(bench) == baseline
