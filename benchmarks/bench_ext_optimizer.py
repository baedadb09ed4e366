"""Extension experiment: the Fig. 9 cost-based optimizer.

The paper's Fig. 9 models every access path's cost as
``fixed + variable x (1 + growth x n)`` page reads.  The engine now
feeds catalog statistics through that model to *choose* the access path
per statement (``repro.engine.planner``), instead of always taking the
fixed keyed -> secondary-index -> scan priority.

This experiment replays the paper's benchmark matrix -- the eight
database configurations x twelve queries x a sample of update counts --
twice per cell, once planned and once with the fixed strategy
(``Planner.fixed_choice`` substituted for ``Planner.choose``), and
scores the optimizer:

* a cell is a **best pick** when the optimizer's plan reads no more
  pages than the fixed strategy's (the empirical best of the two);
* **regret** is the pages the optimizer overpaid when it mispicked;
* the two runs must return identical rows on every cell (the plan is
  an access-path decision, never a semantic one).

The committed smoke baseline (``benchmarks/baselines/optimizer_smoke.json``)
holds the optimizer-on page costs of a small deterministic matrix;
``python -m repro.bench.regress`` gates CI runs against it so a cost
model change that silently worsens plans fails the build:

    python benchmarks/bench_ext_optimizer.py --json optimizer.json
    python -m repro.bench.regress optimizer.json \\
        --baseline benchmarks/baselines/optimizer_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro.bench.evolve import evolve_uniform
from repro.bench.queries import benchmark_queries
from repro.bench.runner import measure_query
from repro.bench.workload import all_configs, build_database
from repro.catalog.schema import DatabaseType

# The ISSUE's acceptance bar: the optimizer must pick the empirically
# best plan in at least 80% of cells.
BEST_PICK_FLOOR = 0.80

# The smoke matrix the committed baseline pins (small but covering all
# four database types, both loadings, keyed + index + scan + join paths).
SMOKE_TUPLES = 64
SMOKE_UPDATE_COUNTS = (0, 2)


def _measure_modes(bench, text):
    """(planned cost, fixed-strategy cost) for one query text."""
    planner = bench.db.planner
    planner.clear()
    planned = measure_query(bench, text)
    planner.choose = planner.fixed_choice
    try:
        planner.clear()
        fixed = measure_query(bench, text)
    finally:
        del planner.choose
    return planned, fixed


def run_matrix(tuples: int, update_counts=SMOKE_UPDATE_COUNTS):
    """Score the optimizer over configs x queries x update counts.

    Returns ``(cells, dump)``: *cells* is a list of per-cell dicts,
    *dump* is the optimizer-on page costs in the regression gate's
    ``{label: {"config": ..., "costs": ...}}`` shape.
    """
    cells = []
    dump = {}
    for config in all_configs(tuples=tuples):
        bench = build_database(config)
        texts = benchmark_queries(bench.config)
        costs: "dict[str, dict[int, list[int]]]" = {}
        sampled = (
            (0,) if config.db_type is DatabaseType.STATIC
            else tuple(update_counts)
        )
        evolved = 0
        for update_count in sampled:
            while evolved < update_count:
                evolve_uniform(bench, steps=1)
                evolved += 1
            for query_id, text in texts.items():
                if text is None:
                    continue
                on, off = _measure_modes(bench, text)
                assert on.rows == off.rows, (
                    f"{config.label} {query_id} uc={update_count}: "
                    f"optimizer changed the result "
                    f"({on.rows} vs {off.rows} rows)"
                )
                best = min(on.input_pages, off.input_pages)
                cells.append(
                    {
                        "label": config.label,
                        "query": query_id,
                        "update_count": update_count,
                        "on_pages": on.input_pages,
                        "off_pages": off.input_pages,
                        "best_pick": on.input_pages <= off.input_pages,
                        "regret": on.input_pages - best,
                    }
                )
                costs.setdefault(query_id, {})[update_count] = [
                    on.input_pages, on.output_pages, on.fixed_pages, on.rows,
                ]
        dump[config.label] = {
            "config": {
                "db_type": config.db_type.value,
                "loading": config.loading,
                "tuples": config.tuples,
                "seed": config.seed,
            },
            "max_update_count": max(sampled),
            "costs": costs,
        }
    return cells, dump


def summarize(cells) -> dict:
    picks = sum(1 for cell in cells if cell["best_pick"])
    regret = sum(cell["regret"] for cell in cells)
    return {
        "cells": len(cells),
        "best_picks": picks,
        "best_pick_rate": picks / len(cells) if cells else 0.0,
        "total_regret_pages": regret,
        "worst": max(
            (cell for cell in cells if cell["regret"]),
            key=lambda cell: cell["regret"],
            default=None,
        ),
    }


def _render(summary) -> str:
    lines = [
        "Extension: cost-based optimizer vs fixed strategy",
        f"  {summary['cells']} cells, {summary['best_picks']} best picks "
        f"({summary['best_pick_rate']:.1%}), "
        f"{summary['total_regret_pages']} page(s) total regret",
    ]
    worst = summary["worst"]
    if worst is not None:
        lines.append(
            f"  worst cell: {worst['label']} {worst['query']} "
            f"uc={worst['update_count']}: {worst['on_pages']} vs "
            f"{worst['off_pages']} pages ({worst['regret']} regret)"
        )
    return "\n".join(lines)


@pytest.mark.benchmark(group="extension-optimizer")
def test_extension_optimizer_best_picks(benchmark, scale):
    _, (tuples, *_rest) = scale
    tuples = min(tuples, 256)

    def run():
        return run_matrix(tuples=tuples)

    cells, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    summary = summarize(cells)
    print("\n" + _render(summary))
    assert summary["cells"] >= 8 * len(SMOKE_UPDATE_COUNTS)
    assert summary["best_pick_rate"] >= BEST_PICK_FLOOR, _render(summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Score the cost-based optimizer against the fixed "
        "access-path strategy; optionally dump a regress-gateable JSON."
    )
    parser.add_argument(
        "--tuples", type=int, default=SMOKE_TUPLES,
        help=f"tuples per relation (default {SMOKE_TUPLES})",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="write optimizer-on page costs in regression-gate shape",
    )
    args = parser.parse_args(argv)

    cells, dump = run_matrix(tuples=args.tuples)
    summary = summarize(cells)
    print(_render(summary))
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(dump, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json}")
    if summary["best_pick_rate"] < BEST_PICK_FLOOR:
        print(
            f"  FAIL best-pick rate {summary['best_pick_rate']:.1%} "
            f"below the {BEST_PICK_FLOOR:.0%} floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
