"""``python -m repro.sim`` -- the differential fuzzing driver.

Fuzz fixed seeds (each seed is one workload run across the config
matrix), replay a committed corpus, or both:

    python -m repro.sim --seed 1..20 --ops 200
    python -m repro.sim --seed 7 --type temporal --profile update
    python -m repro.sim --corpus tests/corpus/sim
    python -m repro.sim --seed 1..100 --budget-seconds 60 --jobs 4

Exit status 0 means full agreement; 1 means at least one divergence (or
a corpus replay failure).  Diverging workloads are minimized with the
shrinker and written as runnable ``.tquel`` repro files under
``--failures`` (default ``.sim-failures/``).

Output is deterministic for fixed seeds: reports are printed in seed
order whatever ``--jobs`` is, and workers recompute pure functions of
the seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.sim.generator import DB_TYPES, PROFILES, generate_workload
from repro.sim.harness import CONFIG_MATRIX, QUICK_MATRIX, run_seed, run_workload
from repro.sim.load import LOAD_PROFILES, run_load


def _parse_seeds(text: str) -> "list[int]":
    if ".." in text:
        low, _, high = text.partition("..")
        first, last = int(low), int(high)
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Differential fuzzing: engine vs. independent oracle.",
    )
    parser.add_argument(
        "--seed",
        type=_parse_seeds,
        default=None,
        metavar="N|A..B|A,B,C",
        help="seed or seed range to fuzz (db type rotates by seed "
        "unless --type is given)",
    )
    parser.add_argument(
        "--ops", type=int, default=200, help="statements per workload"
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="mixed",
        help="grammar-weight profile",
    )
    parser.add_argument(
        "--type",
        choices=DB_TYPES,
        default=None,
        help="pin every workload to one database type",
    )
    parser.add_argument(
        "--matrix",
        choices=("quick", "full"),
        default="quick",
        help="config matrix: quick = one config per access method, "
        "full = all structure x atomic cells",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for seeds"
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="stop starting new seeds after this much wall time",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="replay every .tquel case under DIR",
    )
    parser.add_argument(
        "--failures",
        default=".sim-failures",
        metavar="DIR",
        help="directory for shrunk divergence repros",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimizing them",
    )
    parser.add_argument(
        "--load",
        choices=sorted(LOAD_PROFILES),
        default=None,
        metavar="PROFILE",
        help="run a deterministic load profile instead of fuzzing "
        "(append, read or mixed; honors --ops, --skew and --seed)",
    )
    parser.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="key skew for --load: 0 = uniform, 1 = strongly zipfian",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=256,
        help="initial rows seeded before a --load run",
    )
    return parser


def _seed_worker(packed):
    seed, ops, profile, db_type, matrix_name = packed
    matrix = CONFIG_MATRIX if matrix_name == "full" else QUICK_MATRIX
    reports = run_seed(
        seed, ops=ops, profile=profile, db_type=db_type, matrix=matrix
    )
    return seed, reports


def _handle_divergence(report, args, out) -> None:
    print(str(report.divergence), file=out)
    if args.no_shrink:
        return
    from repro.sim.corpus import write_case
    from repro.sim.shrink import shrink_workload

    small, small_report = shrink_workload(report.workload, report.config)
    name = (
        f"seed{small.seed}-{small.db_type}-"
        f"{report.config.structure}-{small_report.divergence.kind}.tquel"
    )
    path = write_case(f"{args.failures}/{name}", small_report)
    print(
        f"  shrunk to {len(small.statements)} statements "
        f"({small_report.statements_run} executed) -> {path}",
        file=out,
    )


def _fuzz(args, out) -> int:
    started = time.monotonic()
    packed = [
        (seed, args.ops, args.profile, args.type, args.matrix)
        for seed in args.seed
    ]
    divergences = 0
    seeds_run = 0
    statements = 0

    def consume(seed, reports):
        nonlocal divergences, seeds_run, statements
        seeds_run += 1
        for report in reports:
            statements += report.statements_run
            if report.divergence is not None:
                divergences += 1
                _handle_divergence(report, args, out)
        workload = reports[0].workload if reports else None
        label = workload.db_type if workload is not None else "?"
        verdict = "ok" if all(r.ok for r in reports) else "DIVERGED"
        print(
            f"seed {seed} [{label}] x {len(reports)} configs: {verdict}",
            file=out,
        )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_seed_worker, item) for item in packed]
            for item, future in zip(packed, futures):
                if (
                    args.budget_seconds is not None
                    and time.monotonic() - started > args.budget_seconds
                    and not future.running()
                    and future.cancel()
                ):
                    continue
                seed, reports = future.result()
                consume(seed, reports)
    else:
        for item in packed:
            if (
                args.budget_seconds is not None
                and seeds_run > 0
                and time.monotonic() - started > args.budget_seconds
            ):
                break
            seed, reports = _seed_worker(item)
            consume(seed, reports)

    print(
        f"{seeds_run} seeds, {statements} statements, "
        f"{divergences} divergences",
        file=out,
    )
    return 1 if divergences else 0


def _replay(args, out) -> int:
    from repro.sim.corpus import replay_corpus

    results = replay_corpus(args.corpus)
    if not results:
        print(f"no .tquel cases under {args.corpus}", file=out)
        return 1
    failures = 0
    for path, report in results:
        if report.ok:
            print(f"{path.name}: ok ({report.statements_run} statements)", file=out)
        else:
            failures += 1
            print(f"{path.name}: DIVERGED", file=out)
            print(str(report.divergence), file=out)
    print(f"{len(results)} cases, {failures} failures", file=out)
    return 1 if failures else 0


def _run_load_profile(args, out) -> int:
    from repro.engine.database import TemporalDatabase

    seed = args.seed[0] if args.seed else 0
    db = TemporalDatabase(name="simload")
    summary = run_load(
        db,
        profile=args.load,
        ops=args.ops,
        seed=seed,
        skew=args.skew,
        initial_rows=args.rows,
    )
    mix = ", ".join(
        f"{kind}={count}" for kind, count in sorted(summary["counts"].items())
    )
    print(
        f"load {summary['profile']} seed {summary['seed']} "
        f"skew {summary['skew']:g}: {summary['ops']} ops ({mix}), "
        f"{summary['rows_returned']} rows returned, "
        f"{summary['final_keys']} keys",
        file=out,
    )
    return 0


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.load is not None:
        return _run_load_profile(args, out)
    if args.corpus is None and args.seed is None:
        args.seed = list(range(1, 9))
    status = 0
    if args.seed is not None:
        status = max(status, _fuzz(args, out))
    if args.corpus is not None:
        status = max(status, _replay(args, out))
    return status


# Re-exported for tests that fuzz a single workload inline.
__all__ = ["build_parser", "main", "generate_workload", "run_workload"]
