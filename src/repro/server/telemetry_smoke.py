"""Distributed-tracing telemetry smoke: the CI ``telemetry-smoke`` job.

    python -m repro.server.telemetry_smoke --out DIR [--seed N] [--ops N]

Stands up an in-process :class:`ReproServer` over a database holding a
partitioned relation in process-pool mode, connects over ``tcp://``,
enables the client-lane tracer, replays a seeded sim workload statement
by statement and finishes with a parallel aggregate.  It then asserts
the end-to-end observability contract of ``docs/observability.md``:

* the merged trace tree for the aggregate carries a ``client`` root, a
  grafted ``server`` statement span and at least one pool ``worker``
  span, all sharing one trace id;
* the query-statistics store reports the aggregate's fingerprint with
  non-zero predicted *and* actual page reads, and their ratio sits
  within the Fig. 9 validation tolerance;

and exports the Chrome trace (client-lane span history, so the lanes
render as separate processes) plus the stats snapshot into ``--out``.
Exits 0 on success; any failed assertion exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.engine.cost import RATIO_TOLERANCE


def _lanes(span, out: "list[tuple[str | None, str | None]]") -> None:
    out.append((span.attributes.get("lane"), span.trace_id))
    for child in span.children:
        _lanes(child, out)


def run_telemetry_smoke(
    out_dir: str,
    seed: int = 11,
    ops: int = 40,
    rows: int = 400,
    partitions: int = 4,
) -> dict:
    """Run the smoke scenario; returns a small summary dict."""
    import repro
    from repro.engine.database import TemporalDatabase
    from repro.observe.export import chrome_trace
    from repro.server.server import ServerThread
    from repro.sim.generator import generate_workload
    from repro.temporal import Clock
    from repro.tquel.unparse import unparse

    workload = generate_workload(seed=seed, db_type="historical", ops=ops)
    db = TemporalDatabase(
        "telemetry-smoke",
        clock=Clock(start=workload.clock_start, tick=workload.clock_tick),
    )
    db.execute("create big (id = i4, v = i4)")
    for i in range(rows):
        db.execute(f"append to big (id = {i}, v = {i % 10})")
    db.partition_relation("big", "hash", "id", partitions,
                          parallel="process")

    aggregate = "retrieve (total = count(b.id)) where b.v < 7"
    with ServerThread(db) as server:
        with repro.connect(server.url) as session:
            session.tracer.enable()
            replayed = 0
            for stmt in workload.statements:
                try:
                    session.execute(unparse(stmt))
                    replayed += 1
                except repro.ReproError:
                    # The workload was generated against a fresh engine;
                    # statements refused against this one (say, a name
                    # collision with ``big``) still exercise the traced
                    # error path.
                    pass
            session.execute("range of b is big")
            result = session.execute(aggregate)
            # Run it once more: the second execution is predicted from
            # the first one's baseline, making predicted_pages non-zero.
            session.execute(aggregate)

            root = session.last_trace()
            assert root is not None, "tracing produced no trace tree"
            lanes: "list[tuple[str | None, str | None]]" = []
            _lanes(root, lanes)
            lane_names = {lane for lane, _ in lanes if lane}
            assert "client" in lane_names, f"no client span: {lanes}"
            assert "server" in lane_names, f"no server span: {lanes}"
            workers = sum(1 for lane, _ in lanes if lane == "worker")
            assert workers >= 1, f"no worker spans: {lanes}"
            trace_ids = {tid for _, tid in lanes}
            assert trace_ids == {root.trace_id}, (
                f"spans disagree on the trace id: {trace_ids}"
            )

            stats = session.query_stats(100)
            history = list(session.tracer.history)
    entry = next(
        (
            e for e in stats["entries"]
            if e["fingerprint"].startswith("retrieve ( total = count")
        ),
        None,
    )
    assert entry is not None, "aggregate fingerprint missing from \\stats"
    assert entry["predicted_pages"] > 0, entry
    assert entry["actual_pages"] > 0, entry
    ratio = entry["predicted_pages"] / entry["actual_pages"]
    assert abs(ratio - 1.0) <= RATIO_TOLERANCE, (
        f"predicted/actual ratio {ratio:.3f} outside "
        f"+/-{RATIO_TOLERANCE:.0%}"
    )

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    with open(trace_path, "w", encoding="ascii") as handle:
        json.dump(chrome_trace(history), handle, indent=1)
    stats_path = out / "stats.json"
    with open(stats_path, "w", encoding="ascii") as handle:
        json.dump(stats, handle, indent=1, sort_keys=True)

    summary = {
        "replayed": replayed,
        "aggregate_rows": result.rows,
        "worker_spans": workers,
        "trace_id": root.trace_id,
        "prediction_ratio": ratio,
        "artifacts": {"trace": str(trace_path), "stats": str(stats_path)},
    }
    print(
        f"telemetry smoke ok: {replayed} workload statements, "
        f"{workers} worker span(s) in trace {root.trace_id}, "
        f"predicted/actual = {ratio:.3f}",
        flush=True,
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.telemetry_smoke"
    )
    parser.add_argument("--out", default="telemetry-smoke",
                        help="artifact directory (default: telemetry-smoke)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--partitions", type=int, default=4)
    args = parser.parse_args(argv)
    run_telemetry_smoke(
        args.out,
        seed=args.seed,
        ops=args.ops,
        rows=args.rows,
        partitions=args.partitions,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
