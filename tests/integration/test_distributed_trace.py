"""End-to-end distributed tracing and query statistics.

The acceptance scenario of the observability PR: a ``tcp://`` client
executing a parallel aggregate against a process-partitioned relation
produces ONE merged trace tree -- client span, server statement span,
and one span per pool worker, all sharing the client's trace id -- and
the query-statistics store reports the statement's fingerprint with
non-zero predicted and actual page reads whose ratio is within the
Fig. 9 validation tolerance.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.engine.database import TemporalDatabase
from repro.observe.export import chrome_trace
from repro.observe.stats import SlowQueryLog
from repro.server.server import ServerThread

AGGREGATE = "retrieve (total = count(x.id)) where x.v < 7"


def release(db) -> None:
    """Reap the pool workers of every partitioned relation in *db*."""
    for relation in list(db._relations.values()):
        close = getattr(relation, "release", None)
        if close is not None:
            close()


@pytest.fixture
def build_db():
    """Build process-partitioned databases; reap their pools after."""
    built = []

    def build(rows: int = 160, partitions: int = 3) -> TemporalDatabase:
        db = TemporalDatabase("disttrace")
        db.execute("create r (id = i4, v = i4)")
        for i in range(rows):
            db.execute(f"append to r (id = {i}, v = {i % 10})")
        db.partition_relation(
            "r", "hash", "id", partitions, parallel="process"
        )
        db.execute("range of x is r")
        built.append(db)
        return db

    yield build
    for db in built:
        release(db)


def collect_lanes(span, out=None):
    if out is None:
        out = []
    out.append((span.attributes.get("lane"), span.trace_id))
    for child in span.children:
        collect_lanes(child, out)
    return out


class TestLocalWorkerSpans:
    def test_traced_parallel_aggregate_adopts_worker_spans(self, build_db):
        db = build_db()
        db.tracer.enable()
        db.execute(AGGREGATE)
        root = db.tracer.last
        workers = [
            child for child in root.children
            if child.attributes.get("lane") == "worker"
        ]
        assert len(workers) == 3
        for worker in workers:
            assert worker.trace_id == root.trace_id
            assert worker.parent_id == root.span_id
            assert worker.attributes["kernel"] == "page_fold"
            assert worker.attributes["partition"].startswith("r#")

    def test_explain_analyze_shows_worker_spans(self, build_db):
        db = build_db()
        text = db.explain(AGGREGATE, analyze=True)
        assert "worker" in text
        assert "lane=worker" in text

    def test_worker_events_merge_into_coordinator_recorder(self, build_db):
        db = build_db()
        db.tracer.enable()
        db.execute(AGGREGATE)
        kinds = [event.kind for event in db.recorder.dump()]
        assert kinds.count("exec.partition_scan") == 3

    def test_worker_page_visits_mirror_into_heatmap(self, build_db):
        db = build_db()
        db.heatmap.enable()
        db.tracer.enable()
        db.execute(AGGREGATE)
        files = db.heatmap.files()
        assert any(name.startswith("r#") for name in files)

    def test_untraced_statements_ship_no_spans(self, build_db):
        db = build_db()
        db.execute(AGGREGATE)  # tracer disabled
        assert db.tracer.last is None
        assert not any(
            event.kind == "exec.partition_scan"
            for event in db.recorder.dump()
        )


class TestRemoteMergedTrace:
    def test_tcp_process_statement_produces_one_merged_tree(self, build_db):
        db = build_db()
        with ServerThread(db) as server:
            with repro.connect(server.url) as session:
                session.tracer.enable()
                session.execute("range of x is r")
                result = session.execute(AGGREGATE)
                assert result.rows == [(112,)]
                root = session.last_trace()
        lanes = collect_lanes(root)
        lane_names = {lane for lane, _ in lanes if lane}
        assert {"client", "server", "worker"} <= lane_names
        workers = sum(1 for lane, _ in lanes if lane == "worker")
        assert workers >= 1
        assert {tid for _, tid in lanes} == {root.trace_id}

    def test_remote_stats_report_predicted_vs_actual(self, build_db):
        db = build_db()
        with ServerThread(db) as server:
            with repro.connect(server.url) as session:
                session.execute("range of x is r")
                session.execute(AGGREGATE)
                session.execute(AGGREGATE)
                stats = session.query_stats(50)
        entry = next(
            e for e in stats["entries"]
            if e["fingerprint"].startswith("retrieve ( total = count")
        )
        assert entry["calls"] >= 2
        assert entry["predicted_pages"] > 0
        assert entry["actual_pages"] > 0
        ratio = entry["predicted_pages"] / entry["actual_pages"]
        assert ratio == pytest.approx(1.0, abs=0.25)

    def test_prepared_statements_trace_and_count_plan_hits(self, build_db):
        db = build_db()
        with ServerThread(db) as server:
            with repro.connect(server.url) as session:
                session.tracer.enable()
                session.execute("range of x is r")
                query = session.prepare(
                    "retrieve (x.id) where x.v = $v"
                )
                query.execute(params={"v": 1})
                query.execute(params={"v": 2})
                root = session.last_trace()
                stats = session.query_stats(50)
        lanes = collect_lanes(root)
        assert {"client", "server"} <= {lane for lane, _ in lanes if lane}
        entry = next(
            e for e in stats["entries"]
            if e["fingerprint"].startswith("retrieve ( x . id )")
        )
        assert entry["calls"] == 2
        assert entry["plan_cache_hits"] == 2

    def test_chrome_trace_renders_client_server_worker_lanes(self, build_db):
        db = build_db()
        with ServerThread(db) as server:
            with repro.connect(server.url) as session:
                session.tracer.enable()
                session.execute("range of x is r")
                session.execute(AGGREGATE)
                trace = chrome_trace(list(session.tracer.history))
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        assert {"repro:client", "repro:server", "repro:worker"} <= names
        pids = {
            event["pid"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        }
        assert len(pids) >= 3
        json.dumps(trace)  # serializable end to end

    def test_client_prometheus_export_covers_retry_stats(self, build_db):
        db = build_db()
        with ServerThread(db) as server:
            with repro.connect(server.url) as session:
                session.execute("range of x is r")
                session.execute(AGGREGATE)
                text = session.prometheus_text()
        assert "repro_client_retries_total 0" in text
        assert "repro_client_reconnects_total 0" in text
        assert "repro_client_retry_stats_backoff_seconds 0" in text

    def test_engine_prometheus_export_preregisters_exec_counters(
        self, build_db
    ):
        from repro.observe.export import prometheus_text

        db = build_db()
        text = prometheus_text(db.metrics)
        assert "repro_exec_degraded_total 0" in text
        assert "repro_exec_worker_failures_total 0" in text


class TestStatsDurability:
    def test_query_stats_survive_save_and_load(self, tmp_path):
        db = TemporalDatabase("t")
        db.execute("create r (id = i4)")
        db.execute("append to r (id = 1)")
        db.execute("range of x is r")
        db.execute("retrieve (x.id)")
        fingerprints = {e.fingerprint for e in db.query_stats.top(None)}
        db.save(tmp_path / "chk")
        restored = TemporalDatabase.load(tmp_path / "chk")
        assert {
            e.fingerprint for e in restored.query_stats.top(None)
        } == fingerprints
        entry = restored.query_stats.get("retrieve ( x . id )")
        assert entry.calls == 1
        assert entry.actual_pages >= 1

    def test_restored_partitioned_relation_keeps_tracing(
        self, tmp_path, build_db
    ):
        db = build_db()
        db.save(tmp_path / "chk")
        restored = TemporalDatabase.load(tmp_path / "chk")
        try:
            restored.tracer.enable()
            restored.execute("range of x is r")
            restored.execute(AGGREGATE)
        finally:
            release(restored)
        root = restored.tracer.last
        workers = [
            child for child in root.children
            if child.attributes.get("lane") == "worker"
        ]
        assert len(workers) == 3


class TestSlowQueryLog:
    def test_slow_statements_capture_trace_and_plan(self, build_db):
        db = build_db()
        db.slowlog = SlowQueryLog(threshold_ms=0.0)
        db.execute(AGGREGATE)
        entries = db.slowlog.dump()
        assert entries
        entry = entries[-1]
        assert entry["text"] == AGGREGATE
        assert entry["elapsed_ms"] > 0
        assert entry["trace"]["name"] == "statement"
        assert any(
            child["name"] == "execute"
            for child in entry["trace"]["children"]
        )
        assert "decompose" in entry["plan"] or "scan" in entry["plan"]

    def test_fast_statements_stay_out_with_high_threshold(self):
        db = TemporalDatabase("t")
        db.slowlog = SlowQueryLog(threshold_ms=60000.0)
        db.execute("create r (id = i4)")
        assert db.slowlog.dump() == []


class TestTelemetrySmoke:
    def test_smoke_driver_end_to_end(self, tmp_path):
        from repro.server.telemetry_smoke import run_telemetry_smoke

        summary = run_telemetry_smoke(
            str(tmp_path / "out"), seed=3, ops=12, rows=120, partitions=2
        )
        assert summary["worker_spans"] >= 1
        assert abs(summary["prediction_ratio"] - 1.0) <= 0.25
        trace = json.loads(
            (tmp_path / "out" / "trace.json").read_text()
        )
        assert trace["traceEvents"]
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["entries"]
