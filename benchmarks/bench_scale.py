"""Scale experiment: partitioned relations and scatter-gather execution.

The paper's benchmark stops at 1024 tuples; this experiment asks what
the data plane needs three orders of magnitude later.  It drives
:mod:`repro.bench.scale` at a reduced size and asserts the qualitative
claims the full-scale run (``python -m repro.bench.scale --rows 1000000
--partitions 8 --timing``) quantifies:

* scatter-gather returns *identical* rows and page accounting in both
  gather modes -- parallelism changes latency, never answers or metering;
* range partitions on ``transaction_start`` plus per-partition minimum
  transaction bounds prune whole partitions from selective early
  ``as of`` queries (the partitioned generalisation of the zone map in
  ``bench_ext_zonemap.py``);
* point lookups stay keyed after partitioning (hash routing to one
  partition's hash file).

Wall-clock speedups are hardware-dependent and therefore gated only by
the committed full-scale baseline (``benchmarks/baselines/scale_full.json``,
ratio cell at the 2x acceptance bound), not asserted here.
"""

import pytest

from repro.bench.scale import run_scale


@pytest.mark.benchmark(group="extension-scale")
def test_scale_parity_and_pruning(benchmark, scale):
    _, (tuples, _, __, ___) = scale
    rows = max(tuples * 16, 4096)
    partitions = 4

    def run():
        import io

        sink = io.StringIO()
        return run_scale(
            rows,
            partitions,
            repeats=1,
            samples=16,
            out=sink,
        )

    dump = benchmark.pedantic(run, rounds=1, iterations=1)
    label = f"scale/r{rows}/p{partitions}"
    costs = dump[label]["costs"]

    # Identical accounting across gather modes (rows are asserted inside
    # run_scale itself; divergence raises).
    assert costs["scan_process"] == costs["scan_serial"]

    # Range partitioning prunes the selective early as-of scan hard:
    # only the first of the four partitions survives the bounds check.
    full = costs["asof_full"]["0"][0]
    pruned = costs["asof_pruned"]["0"][0]
    assert pruned * 2 < full
    # Same answer row count either way.
    assert costs["asof_pruned"]["0"][3] == costs["asof_full"]["0"][3]
