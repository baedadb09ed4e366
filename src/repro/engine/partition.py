"""Partitioned relations: scatter-gather over per-partition stores.

A :class:`PartitionedRelation` presents the :class:`StoredRelation`
surface the rest of the engine consumes (the mutation layer, the undo
log, the query executor, checkpointing) while spreading the tuples over
``N`` child :class:`StoredRelation` objects named ``rel#0 .. rel#N-1``.
Tuples are routed by the partition attribute:

* ``hash`` -- a stable hash of the attribute value modulo ``N``.  Point
  lookups on the partition attribute route to exactly one child.
* ``range`` -- ``N-1`` sorted cut values split the attribute's domain
  into ``N`` intervals (``bisect``).  Partitioning a rollback or
  temporal relation by ``transaction_start`` clusters versions by when
  they were recorded, so ``as of`` scans prune whole partitions.

Record ids are composite: a child's ``(page, slot)`` becomes
``((pid, page), slot)``, which keeps the mutation layer's two-tuple
unpacking and opaque page-id grouping working unchanged.

Scans gather children in partition order so results are byte-identical
to the unpartitioned relation scanned serially.  Three dispatch modes
(``parallel = serial | thread | process`` at partition time) reuse the
:class:`~repro.exec.ExecutorService`:

* ``serial`` -- children scanned one after another, the reference path;
* ``thread`` -- one thread per surviving partition; each worker installs
  the coordinator's I/O-meter scope, so per-session attribution stays
  exact;
* ``process`` -- aggregate scans ship page images to pool workers which
  run a C-driven decode/filter/fold kernel and return partial aggregates
  plus their metered page counts (merged back into the coordinator's
  scope).  Row-returning scans fall back to thread fan-out: rows would
  have to cross the process boundary anyway, which costs more than the
  decode they save.

Partition pruning happens before dispatch: each partition tracks the
minimum ``transaction_start`` it stores, and an ``as of`` scan skips
partitions recorded entirely after the queried time.  Pruned/scanned
counts land in the metrics registry (``partition.pruned`` /
``partition.scanned``) and the decision is narrated by ``explain``.
"""

from __future__ import annotations

import os
import time
import zlib
from bisect import bisect_right
from typing import Iterator

from repro.access.base import StructureKind
from repro.access.secondary import pack_tid, unpack_tid
from repro.catalog.schema import RelationSchema
from repro.engine.relation import StoredRelation
from repro.errors import CatalogError, ExecutionError, SchemaError
from repro.exec import ExecutorService
from repro.exec.scan import scan_partition_pages
from repro.storage.iostats import IODelta

PARALLEL_MODES = ("serial", "thread", "process")

#: Per-task stall deadline (seconds) for process-pool gathers; 0 in the
#: environment (the default) means no deadline.  A partition slice that
#: outlives it is treated as a worker fault: retried on a fresh pool,
#: then run serially (see :class:`repro.exec.ExecutorService`).
_GATHER_TIMEOUT = (
    float(os.environ.get("REPRO_GATHER_TIMEOUT", "0")) or None
)


def route_hash(value, count: int) -> int:
    """Stable hash routing: identical across processes and runs.

    ``repr`` is a canonical spelling for the attribute types the codec
    stores (ints, floats, ASCII strings); ``zlib.crc32`` is seed-free,
    unlike ``hash()`` which is salted per process.
    """
    return zlib.crc32(repr(value).encode("ascii")) % count


def route_range(value, cuts: "list") -> int:
    """Range routing: partition ``k`` holds ``cuts[k-1] <= v < cuts[k]``."""
    return bisect_right(cuts, value)


class _PartitionStore:
    """The storage facade the mutation/undo layers see.

    Implements the :class:`~repro.access.base.AccessMethod` surface over
    the children's stores, translating composite record ids.  Page-level
    concerns (buffering, undo pre-images, group commit) need no help:
    the children's files live in the shared buffer pool.
    """

    def __init__(self, parent: "PartitionedRelation"):
        self._parent = parent

    # -- metadata ----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return sum(c.row_count for c in self._parent.children)

    @property
    def page_count(self) -> int:
        return sum(c.page_count for c in self._parent.children)

    def keyed_on(self, attribute_position: int) -> bool:
        return self._parent.children[0].storage.keyed_on(attribute_position)

    # -- mutation ----------------------------------------------------------

    def insert(self, row: tuple):
        parent = self._parent
        pid = parent.route_row(row)
        page, slot = parent.children[pid].storage.insert(row)
        parent.note_bounds(pid, row)
        return ((pid, page), slot)

    def update(self, rid, row: tuple) -> None:
        parent = self._parent
        (pid, page), slot = rid
        if parent.route_row(row) != pid:
            # In-place updates never move a record (the mutation layer
            # relies on stable rids); a version that re-routes must go
            # through delete + insert, which the replace path already
            # does for key changes.  Routing only ever changes when the
            # partition attribute itself is overwritten in place.
            raise ExecutionError(
                f"{parent.name}: update moves a tuple across partitions "
                f"(partition attribute {parent.partition_attribute!r} "
                "changed); replace it instead"
            )
        parent.children[pid].storage.update((page, slot), row)

    def delete(self, rid) -> None:
        (pid, page), slot = rid
        self._parent.children[pid].storage.delete((page, slot))

    def read_rid(self, rid) -> tuple:
        (pid, page), slot = rid
        return self._parent.children[pid].storage.read_rid((page, slot))

    # -- scans (raw, unpruned; the facade's access paths add pruning) ------

    def scan(self, page_filter=None) -> "Iterator[tuple]":
        for pid, child in enumerate(self._parent.children):
            if page_filter is None:
                composite_filter = None
            else:

                def composite_filter(page_id, _pid=pid):
                    return page_filter((_pid, page_id))

            for (page, slot), row in child.storage.scan(
                page_filter=composite_filter
            ):
                yield ((pid, page), slot), row

    def scan_batches(self, page_filter=None, ahead=False):
        for pid, child in enumerate(self._parent.children):
            if page_filter is None:
                composite_filter = None
            else:

                def composite_filter(page_id, _pid=pid):
                    return page_filter((_pid, page_id))

            for page_id, rows in child.storage.scan_batches(
                composite_filter, ahead
            ):
                yield (pid, page_id), rows

    def lookup(self, key) -> "Iterator[tuple]":
        for pid in self._parent.route_key_lookup(key):
            for (page, slot), row in self._parent.children[
                pid
            ].storage.lookup(key):
                yield ((pid, page), slot), row

    def lookup_batches(self, key, ahead=False) -> "Iterator[list]":
        for pid in self._parent.route_key_lookup(key):
            yield from self._parent.children[pid].storage.lookup_batches(
                key, ahead
            )

    # -- statement undo ----------------------------------------------------

    def snapshot_meta(self) -> dict:
        return {
            "children": [
                c.storage.snapshot_meta() for c in self._parent.children
            ],
            "tx_min": list(self._parent.tx_min),
        }

    def restore_meta(self, meta: dict) -> None:
        for child, child_meta in zip(
            self._parent.children, meta["children"]
        ):
            child.storage.restore_meta(child_meta)
        self._parent.tx_min = list(meta["tx_min"])

    def __repr__(self) -> str:
        parent = self._parent
        return (
            f"_PartitionStore({parent.name!r}, "
            f"{parent.partition_count} x {parent.structure.value})"
        )


class PartitionedRelation:
    """One user relation, stored as N routed children."""

    is_partitioned = True
    is_two_level = False
    history_layout = None

    def __init__(
        self,
        schema: RelationSchema,
        pool,
        buffers: "int | None" = None,
        clock=None,
        *,
        method: str = "hash",
        attribute: str,
        count: int,
        bounds: "list | None" = None,
        parallel: str = "serial",
        metrics=None,
        tracer=None,
        recorder=None,
        heatmap=None,
    ):
        if method not in ("hash", "range"):
            raise CatalogError(
                f"unknown partition method {method!r}; use hash or range"
            )
        if count < 2:
            raise CatalogError(
                f"{schema.name}: partitioning needs at least 2 partitions"
            )
        if not schema.has_attribute(attribute):
            raise SchemaError(
                f"{schema.name} has no attribute {attribute!r}"
            )
        if parallel not in PARALLEL_MODES:
            raise CatalogError(
                f"unknown parallel mode {parallel!r}; "
                f"use one of {PARALLEL_MODES}"
            )
        if method == "range":
            if not bounds:
                raise CatalogError(
                    f"{schema.name}: range partitioning needs bounds "
                    '(where bounds = "v1, v2, ...")'
                )
            if len(bounds) != count - 1:
                raise CatalogError(
                    f"{schema.name}: {count} range partitions need "
                    f"{count - 1} bounds, got {len(bounds)}"
                )
            if sorted(bounds) != list(bounds):
                raise CatalogError(
                    f"{schema.name}: range bounds must be sorted"
                )
        elif bounds:
            raise CatalogError(
                f"{schema.name}: bounds apply to range partitioning only"
            )
        self.schema = schema
        self._pool = pool
        self._buffers = buffers
        self._clock = clock
        self.partition_method = method
        self.partition_attribute = attribute
        self.partition_count = count
        self.partition_bounds = list(bounds) if bounds else None
        self.parallel = parallel
        self._metrics = metrics
        # Coordinator-side observers (all optional): the tracer supplies
        # the active statement span that gathered worker spans graft
        # onto; worker flight-recorder events replay into the recorder;
        # kernel page visits are mirrored into the heatmap (the kernel
        # peeks pages unmetered, so the buffer-pool observer never sees
        # them).
        self._tracer = tracer
        self._recorder = recorder
        self._heatmap = heatmap
        self._route_position = schema.position(attribute)
        self.structure = StructureKind.HEAP
        self.key_attribute: "str | None" = None
        self.fillfactor = 100
        self.indexes: dict = {}
        # Per-partition minimum transaction_start, for as-of pruning.
        # None for an empty partition (or a relation without transaction
        # time); maintained on insert, recomputed on rebuild, captured
        # and restored with statement undo.
        self.tx_min: "list[int | None]" = [None] * count
        self.children = [
            StoredRelation(
                self._child_schema(pid), pool, buffers=buffers, clock=clock
            )
            for pid in range(count)
        ]
        self._store = _PartitionStore(self)
        self._services: "dict[str, ExecutorService]" = {}

    def _child_schema(self, pid: int) -> RelationSchema:
        return RelationSchema(
            f"{self.schema.name}#{pid}",
            list(self.schema.user_fields),
            self.schema.type,
            self.schema.kind,
        )

    # -- metadata ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def storage(self) -> _PartitionStore:
        return self._store

    @property
    def page_count(self) -> int:
        return self._store.page_count

    @property
    def row_count(self) -> int:
        return self._store.row_count

    @property
    def key_position(self) -> "int | None":
        if self.key_attribute is None:
            return None
        return self.schema.position(self.key_attribute)

    def file_names(self) -> "list[str]":
        """Buffer-pool file names of every child (persist/destroy)."""
        return [child.name for child in self.children]

    # -- routing -----------------------------------------------------------

    def route_value(self, value) -> int:
        if self.partition_method == "hash":
            return route_hash(value, self.partition_count)
        return route_range(value, self.partition_bounds)

    def route_row(self, row: tuple) -> int:
        return self.route_value(row[self._route_position])

    def route_key_lookup(self, key) -> "list[int]":
        """Partitions a primary-key lookup must probe.

        When the partition attribute *is* the key attribute the routing
        function pins the tuple's partition; otherwise every partition
        may hold matches.
        """
        if (
            self.key_attribute is not None
            and self.key_position == self._route_position
        ):
            return [self.route_value(key)]
        return list(range(self.partition_count))

    def note_bounds(self, pid: int, row: tuple) -> None:
        """Maintain the partition's transaction-time lower bound."""
        if not self.schema.type.has_transaction_time:
            return
        start = row[self.schema.position("transaction_start")]
        known = self.tx_min[pid]
        if known is None or start < known:
            self.tx_min[pid] = start

    def _recompute_bounds(self) -> None:
        self.tx_min = [None] * self.partition_count
        if not self.schema.type.has_transaction_time:
            return
        position = self.schema.position("transaction_start")
        for pid, child in enumerate(self.children):
            codec = child.schema.codec
            file = child.storage.file
            low = None
            for page_id in range(file.page_count):
                for row in codec.decode_page(file.peek(page_id)):
                    if low is None or row[position] < low:
                        low = row[position]
            self.tx_min[pid] = low

    def survivors(
        self, asof_max: "int | None", count: bool = True
    ) -> "list[int]":
        """Partitions an as-of-bounded scan must visit.

        Records the ``partition.scanned`` / ``partition.pruned`` metrics
        unless *count* is false (EXPLAIN plans without executing).
        """
        if asof_max is None or not self.schema.type.has_transaction_time:
            chosen = list(range(self.partition_count))
        else:
            chosen = [
                pid
                for pid in range(self.partition_count)
                if self.tx_min[pid] is None or self.tx_min[pid] <= asof_max
            ]
        if count and self._metrics is not None:
            self._metrics.inc("partition.scanned", len(chosen))
            self._metrics.inc(
                "partition.pruned", self.partition_count - len(chosen)
            )
        return chosen

    # -- restructuring -----------------------------------------------------

    def all_rows(self) -> "list[tuple]":
        """Every stored version, in partition order (metered scan)."""
        rows = []
        for child in self.children:
            rows.extend(child.all_rows())
        return rows

    def rebuild(
        self,
        structure: StructureKind,
        key_attribute: "str | None" = None,
        fillfactor: int = 100,
        primary=None,
        history=None,
        rows: "list[tuple] | None" = None,
    ) -> None:
        """``modify`` every child to a new storage structure."""
        if structure is StructureKind.TWO_LEVEL:
            raise CatalogError(
                f"{self.name}: a partitioned relation cannot use a "
                "two-level store (partitions already split the data; "
                "unpartition first)"
            )
        if structure is StructureKind.BTREE:
            raise CatalogError(
                f"{self.name}: B-trees are not supported on partitioned "
                "relations (splits relocate records, invalidating the "
                "composite record ids)"
            )
        if rows is None:
            rows = self.all_rows()
        buckets: "list[list[tuple]]" = [
            [] for _ in range(self.partition_count)
        ]
        for row in rows:
            buckets[self.route_row(row)].append(row)
        for child, bucket in zip(self.children, buckets):
            child.rebuild(
                structure, key_attribute, fillfactor, rows=bucket
            )
        self.structure = structure
        self.key_attribute = key_attribute
        self.fillfactor = fillfactor
        self._recompute_bounds()

    # -- secondary indexes (refused) ---------------------------------------

    def create_index(self, index_name, attribute, **_options):
        raise CatalogError(
            f"{self.name}: secondary indexes are not supported on "
            "partitioned relations (a tid cannot address N stores); "
            "partition routing already gives keyed access"
        )

    def drop_index(self, index_name) -> None:
        raise CatalogError(f"no index {index_name!r}")

    def index_for(self, attribute_position: int):
        return None

    # -- transaction-time zone maps ----------------------------------------

    @property
    def zone_map(self) -> "dict | None":
        if self.children[0].zone_map is None:
            return None
        merged: dict = {}
        for pid, child in enumerate(self.children):
            for page_id, start in child.zone_map.items():
                merged[(pid, page_id)] = start
        return merged

    @zone_map.setter
    def zone_map(self, value: "dict | None") -> None:
        if value is None:
            for child in self.children:
                child.zone_map = None
            return
        split: "list[dict]" = [{} for _ in range(self.partition_count)]
        for (pid, page_id), start in value.items():
            split[pid][page_id] = start
        for child, part in zip(self.children, split):
            child.zone_map = part

    def enable_zone_map(self) -> None:
        for child in self.children:
            child.enable_zone_map()

    def disable_zone_map(self) -> None:
        for child in self.children:
            child.disable_zone_map()

    def note_insert(self, rid, row: tuple) -> None:
        (pid, page), slot = rid
        self.children[pid].note_insert((page, slot), row)

    # -- record addressing -------------------------------------------------

    def tid_for(self, rid):
        (pid, page), slot = rid
        return (pid, pack_tid(page, slot, history=False))

    def read_tid(self, tid) -> tuple:
        pid, packed = tid
        _, page, slot = unpack_tid(packed)
        return self.children[pid].storage.read_rid((page, slot))

    def rid_from_tid(self, tid):
        pid, packed = tid
        _, page, slot = unpack_tid(packed)
        return ((pid, page), slot)

    # -- access paths --------------------------------------------------------

    def can_key_lookup(self, attribute_position: int) -> bool:
        return self._store.keyed_on(attribute_position)

    def _is_currentish(self, row: tuple) -> bool:
        return self.children[0]._is_currentish(row)

    def scan_with_rids(
        self,
        current_only: bool = False,
        asof_max: "int | None" = None,
    ) -> "Iterator[tuple]":
        """Pruned sequential scan yielding ``(composite rid, row)``.

        Always serial: this is the tuple-at-a-time reference path, and
        the batch kernel below is what the parallel modes accelerate.
        """
        for pid in self.survivors(asof_max):
            child = self.children[pid]
            for (page, slot), row in child.scan_with_rids(
                current_only, asof_max
            ):
                yield ((pid, page), slot), row

    def lookup_with_rids(self, key, current_only: bool = False):
        yield from self._store.lookup(key)

    def scan_batches(
        self,
        current_only: bool = False,
        asof_max: "int | None" = None,
        gather: "str | None" = None,
        ahead: bool = False,
    ) -> "Iterator[list[tuple]]":
        """Pruned scan yielding per-page row batches, in partition order.

        *gather* overrides the relation's configured mode for this scan
        only -- the planner forces ``"serial"`` when the surviving
        partitions hold too few pages for fan-out to pay off.
        """
        survivors = self.survivors(asof_max)
        mode = gather if gather is not None else self.parallel
        if mode == "serial" or len(survivors) < 2:
            for pid in survivors:
                yield from self.children[pid].scan_batches(
                    current_only, asof_max, ahead
                )
            return
        # Thread fan-out (also the process-mode fallback for scans that
        # return rows; see the module docstring).  Workers install the
        # coordinator's meter scope so the session's I/O attribution is
        # unchanged, and each child's batches are collected eagerly but
        # yielded strictly in partition order.
        stats = self._pool.stats
        scope = stats.active_scope
        tracer = self._tracer
        root = tracer.active_span if tracer is not None else None
        traced = root is not None and root.trace_id is not None

        def collect(pid: int) -> "tuple[list[list[tuple]], dict | None]":
            child = self.children[pid]
            started = time.perf_counter()
            with stats.scoped(scope):
                # Collected whole before anything else runs: one run.
                batches = list(
                    child.scan_batches(current_only, asof_max, ahead=True)
                )
            if not traced:
                return batches, None
            from repro.observe.span import new_span_id

            duration = time.perf_counter() - started
            # Thread workers share the coordinator process, so the span
            # is built in as_dict form here (same shape the process
            # kernel ships back) and grafted after the gather.
            meta = {
                "name": "worker",
                "started": started,
                "duration_ms": duration * 1000.0,
                "trace_id": root.trace_id,
                "span_id": new_span_id(),
                "parent_id": root.span_id,
                "attributes": {
                    "lane": "worker",
                    "pid": os.getpid(),
                    "partition": child.name,
                    "batches": len(batches),
                    "kernel": "scan_batches",
                },
                "children": [],
            }
            return batches, meta

        service = self._thread_service()
        gathered = service.map(
            collect, survivors, labels=[f"{self.name}#{p}" for p in survivors]
        )
        self._note_gather(service)
        if traced:
            from repro.observe.span import Span

            recorder = self._recorder
            for _, meta in gathered:
                if meta is None:
                    continue
                root.adopt(Span.from_dict(meta))
                if recorder is not None:
                    attributes = meta["attributes"]
                    recorder.record(
                        "exec.partition_scan",
                        partition=attributes["partition"],
                        worker_pid=attributes["pid"],
                        batches=attributes["batches"],
                    )
        for batches, _ in gathered:
            yield from batches

    def lookup_batches(
        self, key, current_only: bool = False, ahead: bool = False
    ) -> "Iterator[list[tuple]]":
        yield from self._store.lookup_batches(key, ahead)

    def seq_scan(self, current_only: bool = False) -> "Iterator[tuple]":
        for _, row in self.scan_with_rids(current_only):
            yield row

    def key_lookup(self, key, current_only: bool = False):
        for _, row in self._store.lookup(key):
            yield row

    def index_lookup(self, index, value, current_only: bool = False):
        raise CatalogError(
            f"{self.name}: partitioned relations have no secondary indexes"
        )

    # -- scatter-gather executors ------------------------------------------

    def _thread_service(self) -> ExecutorService:
        service = self._services.get("thread")
        if service is None:
            service = ExecutorService(
                jobs=self.partition_count, mode="thread",
                metrics=self._metrics,
            )
            self._services["thread"] = service
        return service

    def _process_service(self) -> ExecutorService:
        service = self._services.get("process")
        if service is None:
            service = ExecutorService(
                jobs=self.partition_count, mode="process",
                task_timeout=_GATHER_TIMEOUT, metrics=self._metrics,
            )
            self._services["process"] = service
        return service

    def _note_gather(self, service: ExecutorService) -> None:
        """Surface a degraded (serial-fallback) gather after a map."""
        if service.last_map_degraded and self._metrics is not None:
            self._metrics.inc("partition.degraded")

    @property
    def gather_degraded(self) -> bool:
        """Whether any gather since creation fell back to serial
        (worker deaths or stalls exhausted the pool retries); EXPLAIN
        flags it on the relation's scan line."""
        return any(
            service.degraded for service in self._services.values()
        )

    def release(self) -> None:
        """Reap pool workers (on destroy/unpartition/close)."""
        for service in self._services.values():
            service.close()
        self._services = {}

    # -- parallel aggregate kernel -----------------------------------------

    def kernel_eligible(self) -> bool:
        """Whether the process-pool aggregate kernel can run.

        The kernel enumerates physical pages and decodes them with one
        ``iter_unpack`` per page, which is only valid for structures
        whose every page holds records (heap, hash).
        """
        return self.parallel == "process" and self.structure in (
            StructureKind.HEAP,
            StructureKind.HASH,
        )

    def partition_aggregate(
        self,
        filters: "list[tuple]",
        aggs: "list[tuple]",
        asof_max: "int | None",
    ) -> "list[dict]":
        """Scatter an aggregate scan, gather per-partition partials.

        ``filters``/``aggs`` are the position-level specs
        :func:`repro.exec.scan.scan_partition_pages` evaluates.  Page
        images are captured unmetered here; each worker reports the page
        reads the serial scan would have metered, and those counts merge
        back into the coordinator's active meter scope, so ``io_totals``
        stays exact.
        """
        survivors = self.survivors(asof_max)
        codec = self.schema.codec
        tracer = self._tracer
        root = tracer.active_span if tracer is not None else None
        trace_context = None
        if root is not None and root.trace_id is not None:
            trace_context = {
                "trace_id": root.trace_id,
                "span_id": root.span_id,
            }
        heatmap = self._heatmap
        heat = heatmap is not None and heatmap.enabled
        payloads = []
        for pid in survivors:
            child = self.children[pid]
            file = child.storage.file
            zone_map = child.zone_map
            pages, counts, visited = [], [], 0
            for page_id in range(file.page_count):
                if asof_max is not None and zone_map is not None:
                    earliest = zone_map.get(page_id)
                    if earliest is None or earliest > asof_max:
                        continue
                # The serial scan meters a read for every visited page,
                # including empty ones (an empty hash bucket is still a
                # page access); only non-empty pages are worth shipping.
                visited += 1
                if heat:
                    # The kernel reads pages through the unmetered peek
                    # path, invisible to the buffer-pool observers;
                    # mirror the visit so heatmaps reconcile with the
                    # merged IOStats.
                    heatmap.record_read(child.name, page_id)
                page = file.peek(page_id)
                if page.count:
                    pages.append(page.to_bytes())
                    counts.append(page.count)
            payloads.append(
                {
                    "name": child.name,
                    "format": codec.struct_format,
                    "record_size": codec.record_size,
                    "pages": pages,
                    "counts": counts,
                    "visited": visited,
                    "filters": filters,
                    "aggs": aggs,
                    "trace": trace_context,
                }
            )
        service = self._process_service()
        results = service.map(
            scan_partition_pages,
            payloads,
            labels=[f"{self.name}#{pid}" for pid in survivors],
        )
        self._note_gather(service)
        stats = self._pool.stats
        scope = stats.active_scope
        for result in results:
            stats.merge_scope(scope, result["io"])
        self._gather_observability(results, root)
        return results

    def _gather_observability(self, results: "list[dict]", root) -> None:
        """Merge worker-side spans and events into coordinator state.

        Worker spans (when a trace context was scattered) graft onto the
        active statement span; worker flight-recorder events replay into
        the coordinator's ring, so ``\\telemetry`` sees process-kernel
        work that would otherwise be dropped with the worker.
        """
        recorder = self._recorder
        for result in results:
            span_data = result.get("span")
            if root is not None and span_data:
                from repro.observe.span import Span

                worker = Span.from_dict(span_data)
                if worker.io is None:
                    worker.io = IODelta.from_scope_export(result["io"])
                root.adopt(worker)
            if recorder is not None:
                for event in result.get("events", ()):
                    recorder.record(
                        str(event.get("kind", "exec.worker")),
                        **(event.get("data") or {}),
                    )

    def __repr__(self) -> str:
        return (
            f"PartitionedRelation({self.name!r}, "
            f"{self.partition_method} on {self.partition_attribute!r} "
            f"into {self.partition_count}, parallel={self.parallel})"
        )
