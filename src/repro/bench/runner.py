"""Benchmark sweeps: measure every query at every update count.

For one workload configuration the runner loads the database, then
alternates measuring (space + the twelve queries) and evolving (one uniform
update pass) until the maximum update count is reached -- exactly the
Section 5.1 protocol.  Static databases have no meaningful update count and
are measured once.

Per query we record the paper's metrics:

* ``input_pages``  -- user-relation page reads;
* ``output_pages`` -- user-relation page writes (temporary relations);
* ``fixed_pages``  -- the Section 5.3 "fixed cost": ISAM directory accesses
  plus reads of temporary relations, the components whose size does not
  grow with the update count;
* ``rows``         -- result cardinality.

Results are cached at two levels:

* per process, keyed by the full configuration list, so the per-figure
  benchmark targets share one sweep object;
* on disk under ``.bench-cache/`` (override with ``REPRO_BENCH_CACHE``),
  keyed by every workload field *plus a fingerprint of the source tree*,
  so a sweep re-runs exactly when the code that produced it changed.

``run_suite(jobs=N)`` fans the eight configurations across a process
pool; each configuration's sweep is independent (its own database), so
the merge is a deterministic reorder of finished results.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

from repro import fault
from repro.access.base import StructureKind
from repro.exec import ExecutorService, call_guarded
from repro.bench.evolve import evolve_uniform
from repro.bench.queries import ALL_QUERY_IDS, benchmark_queries
from repro.bench.workload import (
    BenchDatabase,
    WorkloadConfig,
    all_configs,
    build_database,
)
from repro.catalog.schema import DatabaseType


@dataclass(frozen=True)
class QueryCost:
    """One query execution's measurements."""

    input_pages: int
    output_pages: int
    fixed_pages: int
    rows: int


@dataclass
class BenchmarkResult:
    """A full sweep for one configuration."""

    config: WorkloadConfig
    max_update_count: int
    sizes: "dict[int, tuple[int, int]]" = field(default_factory=dict)
    costs: "dict[str, dict[int, QueryCost]]" = field(default_factory=dict)

    def input_series(self, query_id: str) -> "list[int] | None":
        """Input pages per update count, or None if not applicable."""
        per_uc = self.costs.get(query_id)
        if not per_uc:
            return None
        return [
            per_uc[uc].input_pages for uc in sorted(per_uc)
        ]

    def to_dict(self) -> dict:
        """JSON-serializable form (see :func:`result_from_dict`)."""
        return {
            "config": {
                "db_type": self.config.db_type.value,
                "loading": self.config.loading,
                "tuples": self.config.tuples,
                "string_width": self.config.string_width,
                "seed": self.config.seed,
                "asof_qualifiers": self.config.asof_qualifiers,
                "buffers": self.config.buffers,
            },
            "max_update_count": self.max_update_count,
            "sizes": {
                str(uc): list(sizes) for uc, sizes in self.sizes.items()
            },
            "costs": {
                query_id: {
                    str(uc): [
                        cost.input_pages,
                        cost.output_pages,
                        cost.fixed_pages,
                        cost.rows,
                    ]
                    for uc, cost in per_uc.items()
                }
                for query_id, per_uc in self.costs.items()
            },
        }

    def growth_per_update(self, relation: str = "h") -> "float | None":
        """Average pages added per update pass (Figure 5's metric).

        Computed to update count 14 as in the paper; with 50 % loading the
        growth alternates (odd updates fill leftover space), so the even
        endpoint matters.
        """
        if self.max_update_count == 0:
            return None
        top = min(self.max_update_count, 14)
        if top % 2 and top > 1:
            top -= 1  # 50 % loading alternates; use an even endpoint
        index = 0 if relation == "h" else 1
        first = self.sizes[0][index]
        last = self.sizes[top][index]
        return (last - first) / top


def result_from_dict(data: dict) -> BenchmarkResult:
    """Rebuild a :class:`BenchmarkResult` saved with ``to_dict``."""
    config = WorkloadConfig(
        db_type=DatabaseType(data["config"]["db_type"]),
        loading=int(data["config"]["loading"]),
        tuples=int(data["config"]["tuples"]),
        string_width=int(data["config"].get("string_width", 96)),
        seed=int(data["config"]["seed"]),
        asof_qualifiers=int(data["config"].get("asof_qualifiers", 2)),
        buffers=int(data["config"].get("buffers", 1)),
    )
    result = BenchmarkResult(
        config=config, max_update_count=int(data["max_update_count"])
    )
    result.sizes = {
        int(uc): tuple(sizes) for uc, sizes in data["sizes"].items()
    }
    result.costs = {
        query_id: {
            int(uc): QueryCost(*values) for uc, values in per_uc.items()
        }
        for query_id, per_uc in data["costs"].items()
    }
    return result


def _dir_read_count(relation) -> int:
    """Cumulative ISAM directory accesses for a relation's storage."""
    storage = relation.storage
    if storage.kind is StructureKind.ISAM:
        return storage.dir_reads
    if storage.kind is StructureKind.TWO_LEVEL:
        primary = storage.primary
        if primary.kind is StructureKind.ISAM:
            return primary.dir_reads
    return 0


def measure_query(bench: BenchDatabase, text: str) -> QueryCost:
    """Run one query, returning its page costs."""
    db = bench.db
    db.pool.flush_all()
    dir_before = _dir_read_count(bench.h) + _dir_read_count(bench.i)
    before = db.stats.checkpoint()
    result = db.execute(text)
    delta = db.stats.delta(before)
    dir_reads = (
        _dir_read_count(bench.h) + _dir_read_count(bench.i) - dir_before
    )
    temp_reads = sum(
        counters.reads
        for name, counters in delta.by_relation.items()
        if name.startswith("_temp")
    )
    return QueryCost(
        input_pages=delta.input_pages,
        output_pages=delta.output_pages,
        fixed_pages=dir_reads + temp_reads,
        rows=len(result.rows),
    )


def measure_suite(
    bench: BenchDatabase, two_level: bool = False
) -> "dict[str, QueryCost | None]":
    """Run all twelve queries (where applicable) on the current state."""
    texts = benchmark_queries(bench.config, two_level=two_level)
    return {
        query_id: (measure_query(bench, text) if text is not None else None)
        for query_id, text in texts.items()
    }


def trace_queries(bench: BenchDatabase, two_level: bool = False) -> dict:
    """Run each applicable benchmark query once under the tracer.

    Returns ``{query_id: Span}`` -- the measured span tree per query,
    with per-stage wall time and per-relation page I/O.  The tracer only
    reads the I/O meter, so the page counts match an untraced run.
    """
    db = bench.db
    texts = benchmark_queries(bench.config, two_level=two_level)
    spans = {}
    with db.tracer.force():
        for query_id, text in texts.items():
            if text is None:
                continue
            db.pool.flush_all()
            db.execute(text)
            spans[query_id] = db.tracer.last
    return spans


class BenchmarkRun:
    """One configuration's sweep over update counts."""

    def __init__(self, config: WorkloadConfig, max_update_count: int = 15):
        self.config = config
        if config.db_type is DatabaseType.STATIC:
            max_update_count = 0
        self.max_update_count = max_update_count

    def run(self, progress=None) -> BenchmarkResult:
        bench = build_database(self.config)
        result = BenchmarkResult(
            config=self.config, max_update_count=self.max_update_count
        )
        for query_id in ALL_QUERY_IDS:
            result.costs[query_id] = {}
        for update_count in range(self.max_update_count + 1):
            if update_count > 0:
                evolve_uniform(bench, steps=1)
            result.sizes[update_count] = bench.sizes()
            for query_id, cost in measure_suite(bench).items():
                if cost is not None:
                    result.costs[query_id][update_count] = cost
            if progress is not None:
                progress(self.config, update_count)
        result.costs = {
            query_id: per_uc
            for query_id, per_uc in result.costs.items()
            if per_uc
        }
        return result


# Keyed by the full WorkloadConfig tuple (not just tuples/seed), so two
# suites differing in any loading-affecting field -- buffers, string
# width, as-of qualifiers -- never alias to one cache entry.
_SUITE_CACHE: "dict[tuple, dict[str, BenchmarkResult]]" = {}

_FINGERPRINT: "str | None" = None


def source_fingerprint() -> str:
    """Digest of every ``repro`` source file, memoized per process.

    Part of the disk-cache key: any edit under ``src/repro`` changes the
    fingerprint and forces cached sweeps to re-measure.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("ascii"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def _cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_BENCH_CACHE")
    return pathlib.Path(override) if override else pathlib.Path(".bench-cache")


def _cache_path(config: WorkloadConfig, max_update_count: int) -> pathlib.Path:
    blob = json.dumps(
        {
            "db_type": config.db_type.value,
            "loading": config.loading,
            "tuples": config.tuples,
            "string_width": config.string_width,
            "seed": config.seed,
            "asof_qualifiers": config.asof_qualifiers,
            "buffers": config.buffers,
            "max_update_count": max_update_count,
            "source": source_fingerprint(),
        },
        sort_keys=True,
    )
    key = hashlib.sha256(blob.encode("ascii")).hexdigest()[:24]
    return _cache_dir() / f"sweep-{key}.json"


def _disk_load(config: WorkloadConfig, max_update_count: int):
    try:
        with open(_cache_path(config, max_update_count), encoding="ascii") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return None
    result = result_from_dict(data)
    result.config = config
    return result


def _disk_store(config: WorkloadConfig, max_update_count: int, result) -> None:
    path = _cache_path(config, max_update_count)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(result.to_dict()), encoding="ascii")
        tmp.replace(path)
    except OSError:
        pass  # caching is best-effort; the sweep result is still returned


def _run_sweep(payload) -> dict:
    """Run one configuration's sweep, returning its dict form.

    Module-level (picklable) and dict-valued so results transport across
    the process boundary without pickling BenchmarkResult internals.
    """
    config, max_update_count = payload
    fault.point("bench.worker")
    run = BenchmarkRun(config, max_update_count=max_update_count)
    return run.run().to_dict()


def _sweep_worker(payload) -> tuple:
    """Pool worker: guarded sweep, ``("ok", dict)`` or ``("error", tb)``.

    A crashed worker must not poison the whole sweep, so exceptions
    travel back as data (:func:`repro.exec.call_guarded`) and the parent
    decides whether to retry.
    """
    return call_guarded(_run_sweep, payload)


class BenchWorkerError(RuntimeError):
    """A sweep worker failed twice for one configuration."""

    def __init__(self, config, detail: str):
        super().__init__(
            f"benchmark worker for configuration {config.label!r} failed "
            f"(after one retry):\n{detail}"
        )
        self.config = config
        self.detail = detail


def run_suite(
    tuples: int = 1024,
    max_update_count: int = 15,
    seed: int = 1986,
    progress=None,
    jobs: int = 1,
    cache: bool = True,
) -> "dict[str, BenchmarkResult]":
    """Sweep all eight configurations.

    ``jobs > 1`` runs pending configurations in a process pool; results
    merge in configuration order regardless of completion order.  With
    ``cache`` enabled, finished sweeps are reused from the in-process
    memo and the on-disk cache (parallel and cached runs report progress
    once per configuration rather than once per update count).
    """
    configs = all_configs(tuples=tuples, seed=seed)
    memo_key = (tuple(configs), max_update_count)
    if cache and memo_key in _SUITE_CACHE:
        return _SUITE_CACHE[memo_key]
    results: "dict[str, BenchmarkResult]" = {}
    pending: "list[WorkloadConfig]" = []
    for config in configs:
        loaded = _disk_load(config, max_update_count) if cache else None
        if loaded is not None:
            results[config.label] = loaded
            if progress is not None:
                progress(config, max_update_count)
        else:
            pending.append(config)
    if pending and jobs > 1:
        payloads = [(config, max_update_count) for config in pending]

        def recover(payload, label, detail):
            # One retry, inline: a transient failure (an injected fault,
            # a killed worker) should not lose the whole sweep.  The
            # retry runs in this process and bypasses the worker
            # failpoint, so a deterministic fault armed at the worker
            # does not simply re-fire.
            config, count = payload
            try:
                run = BenchmarkRun(config, max_update_count=count)
                return run.run().to_dict()
            except Exception as exc:
                raise BenchWorkerError(
                    config, f"{detail}\nretry failed: {exc!r}"
                ) from exc

        with ExecutorService(jobs=min(jobs, len(pending))) as service:
            sweeps = service.map(
                _run_sweep,
                payloads,
                labels=[config.label for config in pending],
                on_error=recover,
            )
        for config, data in zip(pending, sweeps):
            result = result_from_dict(data)
            result.config = config
            results[config.label] = result
            if cache:
                _disk_store(config, max_update_count, result)
            if progress is not None:
                progress(config, max_update_count)
    else:
        for config in pending:
            run = BenchmarkRun(config, max_update_count=max_update_count)
            result = run.run(progress=progress)
            results[config.label] = result
            if cache:
                _disk_store(config, max_update_count, result)
    ordered = {config.label: results[config.label] for config in configs}
    _SUITE_CACHE[memo_key] = ordered
    return ordered
