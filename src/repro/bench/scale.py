"""The partition scale benchmark: ``python -m repro.bench.scale``.

The paper's benchmark fixes the relation at 1024 tuples; this experiment
asks what happens three orders of magnitude later.  It loads the
:mod:`repro.sim.load` relation at a chosen size, measures

* a full-relation aggregate scan under each scatter-gather mode
  (``serial`` is the reference; ``process`` runs the page-fold kernel),
  checking that rows *and page accounting* are identical, and timing
  each mode (best of ``--repeats``);
* a selective early ``as of`` query, unpartitioned versus
  range-partitioned on ``transaction_start``, where per-partition
  minimum-transaction-time bounds prune whole partitions before any
  page is read;
* point-lookup latency percentiles through the load generator's skewed
  key picker.

Everything deterministic -- page counts, row counts, pruning ratios --
goes into a ``{label: {"costs": ...}}`` dump that
``python -m repro.bench.regress`` gates against a committed baseline
(see ``benchmarks/baselines/scale_smoke.json``; CI runs the 10^4-row
smoke).  Wall-clock cells (the parallel/serial latency ratio) are only
emitted with ``--timing``, so hardware-dependent numbers never gate the
smoke baseline; the full-scale baseline carries the ratio cell with the
acceptance bound (2x: ratio_x100 <= 50).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.engine.database import TemporalDatabase
from repro.engine.partition import PARALLEL_MODES
from repro.sim.load import LOAD_RELATION, generate_rows, pick_key
from repro.temporal.format import format_chronon

SCAN_QUERY = "retrieve (c = count(l.key), s = sum(l.val))"


def _build(rows: int, chunks: int, seed: int) -> "tuple[TemporalDatabase, list[int]]":
    """A database with *rows* load tuples appended in *chunks* stages.

    Each stage is one ``copy_in`` statement, so its tuples share one
    transaction timestamp and the stages carry *distinct* timestamps --
    the precondition for range-partitioning on ``transaction_start`` to
    have anything to cut at.  Returns the per-stage timestamps.
    """
    db = TemporalDatabase(name="scale")
    db.execute(
        f"create persistent interval {LOAD_RELATION} "
        "(key = i4, grp = c8, val = i4)"
    )
    db.execute(f"range of l is {LOAD_RELATION}")
    data = generate_rows(rows, seed)
    stamps = []
    per_chunk = max(1, rows // chunks)
    for start in range(0, rows, per_chunk):
        # copy_in stamps every row of the chunk with the *current* time;
        # advancing between chunks is what gives the stages the distinct
        # transaction timestamps range-partitioning cuts at.
        db.clock.advance()
        db.copy_in(LOAD_RELATION, data[start : start + per_chunk])
        stamps.append(db.clock.now())
    return db, stamps


def _measure(db, query: str, repeats: int) -> dict:
    """Run *query* `repeats` times; page costs once, latency best-of."""
    result = db.execute(query)
    io = result.io
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        again = db.execute(query)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
        if again.rows != result.rows:
            raise AssertionError(f"{query}: rows changed between runs")
    return {
        "rows": result.rows,
        "cell": [io.input_pages, io.output_pages, 0, len(result.rows)],
        "seconds": best,
    }


def _point_latencies(db, keys: int, samples: int, skew: float, seed: int):
    """Latencies (seconds) of *samples* skewed point lookups."""
    import random

    rng = random.Random(seed ^ 0xBEEF)
    out = []
    for _ in range(samples):
        key = pick_key(rng, keys, skew)
        t0 = time.perf_counter()
        db.execute(f"retrieve (l.val) where l.key = {key}")
        out.append(time.perf_counter() - t0)
    return out


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_scale(
    rows: int,
    partitions: int,
    repeats: int = 3,
    seed: int = 0,
    timing: bool = False,
    samples: int = 64,
    skew: float = 0.5,
    out=None,
) -> dict:
    """Run the scale experiment; returns the regress-gateable dump."""
    out = out if out is not None else sys.stdout
    label = f"scale/r{rows}/p{partitions}"
    costs: dict = {}
    say = lambda text: print(text, file=out)  # noqa: E731

    say(f"== {label}: {rows} rows, {partitions} partitions ==")
    db, stamps = _build(rows, partitions, seed)

    # -- as-of pruning: unpartitioned reference first ----------------------
    early = format_chronon(stamps[0])
    asof_query = (
        f'retrieve (c = count(l.key)) where l.grp = "g0" as of "{early}"'
    )
    full = _measure(db, asof_query, repeats)
    costs["asof_full"] = {"0": full["cell"]}

    # -- full-scan aggregate under each gather mode ------------------------
    timings: dict = {}
    scans: dict = {}
    for mode in PARALLEL_MODES:
        db.partition_relation(
            LOAD_RELATION, "hash", "key", partitions, parallel=mode
        )
        measured = _measure(db, SCAN_QUERY, repeats)
        scans[mode] = measured
        timings[mode] = measured["seconds"]
        costs[f"scan_{mode}"] = {"0": measured["cell"]}
        say(
            f"  scan [{mode:7s}] {measured['cell'][0]} input pages, "
            f"{measured['seconds'] * 1000:.1f} ms"
        )
    if scans["process"]["rows"] != scans["serial"]["rows"]:
        raise AssertionError("process: rows diverge from serial")
    if scans["process"]["cell"] != scans["serial"]["cell"]:
        raise AssertionError("process: page accounting diverges")

    # -- point-lookup percentiles (hash partitioned, keyed) ----------------
    db.execute(f"modify {LOAD_RELATION} to hash on key")
    latencies = _point_latencies(db, rows, samples, skew, seed)
    say(
        f"  point lookups: p50 {_percentile(latencies, 0.5) * 1e3:.2f} ms, "
        f"p95 {_percentile(latencies, 0.95) * 1e3:.2f} ms "
        f"(n={samples}, skew={skew:g}, "
        f"mean {statistics.mean(latencies) * 1e3:.2f} ms)"
    )

    # -- as-of pruning via range partitions on transaction_start -----------
    cuts = [stamp + 1 for stamp in stamps[:-1]]
    db.partition_relation(
        LOAD_RELATION,
        "range",
        "transaction_start",
        len(cuts) + 1,
        parallel="serial",
        bounds=cuts,
    )
    pruned = _measure(db, asof_query, repeats)
    if pruned["rows"] != full["rows"]:
        raise AssertionError("as-of rows diverge between layouts")
    costs["asof_pruned"] = {"0": pruned["cell"]}
    full_pages = max(1, full["cell"][0])
    ratio_x100 = round(100 * pruned["cell"][0] / full_pages)
    costs["prune_ratio_x100"] = {"0": [ratio_x100, 0, 0, 0]}
    say(
        f"  as-of early: {full['cell'][0]} pages unpartitioned -> "
        f"{pruned['cell'][0]} pages with {len(cuts) + 1} range partitions "
        f"({full_pages / max(1, pruned['cell'][0]):.1f}x fewer)"
    )

    if timing:
        latency_x100 = round(100 * timings["process"] / timings["serial"])
        costs["latency_ratio_x100"] = {"0": [latency_x100, 0, 0, 0]}
        say(
            f"  process/serial latency ratio: {latency_x100 / 100:.2f} "
            f"({timings['serial'] / timings['process']:.2f}x speedup)"
        )

    for relation in list(db._relations.values()):
        release = getattr(relation, "release", None)
        if release is not None:
            release()
    return {label: {"costs": costs}}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scale",
        description="Partitioned scatter-gather scale benchmark.",
    )
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--skew", type=float, default=0.5)
    parser.add_argument(
        "--timing",
        action="store_true",
        help="emit the process/serial latency-ratio cell "
        "(hardware-dependent; keep it out of smoke baselines)",
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    dump = run_scale(
        args.rows,
        args.partitions,
        repeats=args.repeats,
        seed=args.seed,
        timing=args.timing,
        samples=args.samples,
        skew=args.skew,
        out=out,
    )
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(dump, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
