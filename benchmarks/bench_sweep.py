"""End-to-end timing benchmarks of the reproduction itself.

These time the machinery (not the paper's page counts): loading a test
database, one uniform evolution pass, a representative mix of keyed /
scan / join queries on the temporal database, and the full eight-config
sweep, serial and fanned across worker processes.  Useful for tracking
performance regressions in the engine.
"""

import pytest

from repro.bench.evolve import evolve_uniform
from repro.bench.queries import benchmark_queries
from repro.bench.runner import run_suite
from repro.bench.workload import WorkloadConfig, build_database
from repro.catalog.schema import DatabaseType

CONFIG = WorkloadConfig(db_type=DatabaseType.TEMPORAL, loading=100, tuples=256)


@pytest.mark.benchmark(group="engine")
def test_time_build_database(benchmark):
    bench = benchmark.pedantic(
        build_database, args=(CONFIG,), rounds=3, iterations=1
    )
    assert bench.h.row_count == 256


@pytest.mark.benchmark(group="engine")
def test_time_evolution_pass(benchmark):
    bench = build_database(CONFIG)

    benchmark.pedantic(
        evolve_uniform, args=(bench,), kwargs={"steps": 1},
        rounds=3, iterations=1,
    )
    assert bench.update_count >= 3


@pytest.mark.benchmark(group="engine")
def test_time_keyed_access(benchmark):
    bench = build_database(CONFIG)
    evolve_uniform(bench, steps=2)
    text = benchmark_queries(bench.config)["Q01"]
    result = benchmark(bench.db.execute, text)
    assert result.input_pages == 5  # 1 + 2n at n = 2


@pytest.mark.benchmark(group="engine")
def test_time_sequential_scan(benchmark):
    bench = build_database(CONFIG)
    evolve_uniform(bench, steps=2)
    text = benchmark_queries(bench.config)["Q07"]
    result = benchmark(bench.db.execute, text)
    assert result.input_pages == bench.h.page_count


@pytest.mark.benchmark(group="engine")
def test_time_join_with_substitution(benchmark):
    bench = build_database(CONFIG)
    text = benchmark_queries(bench.config)["Q09"]
    result = benchmark(bench.db.execute, text)
    assert result.input_pages > 256  # one probe per tuple


# Reduced-scale sweep for the serial/parallel comparison: large enough
# that query execution (not loading) dominates, small enough for CI.
SWEEP_KWARGS = dict(tuples=128, max_update_count=3, seed=7, cache=False)


@pytest.mark.benchmark(group="sweep")
def test_time_full_sweep_parallel(benchmark):
    """The same sweep fanned across two worker processes.

    Cells must be byte-identical to the serial sweep; wall-clock gains
    scale with available cores (a single-core host shows none).
    """
    serial = run_suite(**SWEEP_KWARGS)
    parallel = benchmark.pedantic(
        run_suite, kwargs=dict(SWEEP_KWARGS, jobs=2), rounds=3, iterations=1
    )
    assert set(parallel) == set(serial)
    for label, result in parallel.items():
        assert result.to_dict() == serial[label].to_dict(), label
