"""The partition scan kernel: decode, filter, fold -- off the interpreter.

:func:`scan_partition_pages` is the module-level (picklable) task a
process-pool worker runs for one partition of an aggregate scan.  The
coordinator ships raw page images plus *position-level* specs -- no
closures, no AST -- and gets back partial aggregates and the page-read
counts the serial scan would have metered.

The specs are compiled, once per task, into a single generated function
whose inner loop is ``struct.iter_unpack`` feeding a list comprehension
with the filter conditions inlined as bytecode.  There is no per-row
Python function call anywhere on the path, which is where the speedup
over the interpreter's per-row closures comes from (the coordinator and
its workers also overlap pickling with scanning, but on one core the
kernel itself is the win).

Filter specs (conjunctive):

``("cmp", position, op, constant)``
    ``row[position] <op> constant`` with ``op`` one of ``== != < <= >
    >=``.  Char attributes compare on their stored bytes stripped of
    blank padding against the ASCII-encoded constant, which matches the
    codec's decode-then-compare semantics exactly.

``("asof", start_pos, stop_pos, p_start, p_stop)``
    The transaction-period overlap test of
    :func:`repro.tquel.compile.make_asof_filter`, including its
    degenerate-version rule (``stop <= start`` reads as ``start + 1``).

Aggregate specs: ``(func, position)`` with ``func`` in ``count sum min
max avg``; ``position`` is ignored for ``count``.  The worker returns,
per aggregate, a partial the coordinator can merge: a count, a sum, a
``(sum, count)`` pair for ``avg``, or a ``min``/``max`` (``None`` when
the partition contributed no qualifying rows).
"""

from __future__ import annotations

import os
import struct
import time

_PAGE_HEADER_SIZE = 6
_CHAR_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _condition_source(filters: "list[tuple]") -> str:
    """Render the conjunction of filter specs as one Python expression."""
    terms = []
    for spec in filters:
        kind = spec[0]
        if kind == "cmp":
            _, position, op, constant = spec
            if op == "=":
                op = "=="
            if op not in _CHAR_OPS:
                raise ValueError(f"unknown comparison operator {op!r}")
            if isinstance(constant, str):
                encoded = constant.encode("ascii")
                terms.append(
                    f"r[{position}].rstrip(b' ') {op} {encoded!r}"
                )
            elif isinstance(constant, bool) or not isinstance(
                constant, (int, float)
            ):
                raise ValueError(
                    f"unsupported constant {constant!r} in scan kernel"
                )
            else:
                terms.append(f"r[{position}] {op} {constant!r}")
        elif kind == "asof":
            _, start_pos, stop_pos, p_start, p_stop = spec
            if not all(
                isinstance(v, int)
                for v in (start_pos, stop_pos, p_start, p_stop)
            ):
                raise ValueError(f"bad asof spec {spec!r}")
            terms.append(
                f"(r[{start_pos}] < {p_stop!r} and {p_start!r} < "
                f"(r[{stop_pos}] if r[{stop_pos}] > r[{start_pos}] "
                f"else r[{start_pos}] + 1))"
            )
        else:
            raise ValueError(f"unknown filter spec {spec!r}")
    return " and ".join(terms) if terms else "True"


def compile_page_fold(filters: "list[tuple]", aggs: "list[tuple]"):
    """Build ``fold(row_iterator) -> (count, [updates])`` from the specs.

    The generated function selects qualifying rows with the filter
    conjunction inlined into a list comprehension and computes one
    partial per aggregate over the selection -- all C-driven iteration.
    """
    condition = _condition_source(filters)
    updates = []
    for func, position in aggs:
        if func == "count":
            updates.append("n")
        elif func == "sum":
            updates.append(f"sum(r[{int(position)}] for r in sel)")
        elif func == "avg":
            updates.append(f"(sum(r[{int(position)}] for r in sel), n)")
        elif func in ("min", "max"):
            updates.append(
                f"({func}(r[{int(position)}] for r in sel) "
                "if sel else None)"
            )
        else:
            raise ValueError(f"unknown aggregate {func!r} in scan kernel")
    source = (
        "def _fold(rows):\n"
        f"    sel = [r for r in rows if {condition}]\n"
        "    n = len(sel)\n"
        f"    return n, [{', '.join(updates)}]\n"
    )
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - source built from typed specs
    return namespace["_fold"]


def _merge_partial(func, state, update):
    if update is None:
        return state
    if func in ("count", "sum"):
        return update if state is None else state + update
    if func == "avg":
        if state is None:
            return update
        return (state[0] + update[0], state[1] + update[1])
    if state is None:
        return update
    return min(state, update) if func == "min" else max(state, update)


def merge_partials(aggs: "list[tuple]", results: "list[dict]") -> list:
    """Combine per-partition partials into one partial per aggregate."""
    merged = [None] * len(aggs)
    for result in results:
        for index, (func, _) in enumerate(aggs):
            merged[index] = _merge_partial(
                func, merged[index], result["partials"][index]
            )
    return merged


def scan_partition_pages(payload: dict) -> dict:
    """Pool-worker entry point: fold one partition's shipped pages.

    Returns ``{"rows": qualifying count, "partials": [...], "io":
    export}`` where ``io`` has the :meth:`IOStats.export_scope` shape,
    charging one read per page the serial scan would have visited.

    When the coordinator scattered a trace context (``payload["trace"]``
    holding the statement's trace and span ids), the result also carries
    ``"span"`` -- this worker's own span in ``Span.as_dict`` form, timed
    with the shared CLOCK_MONOTONIC ``perf_counter`` so the coordinator
    can graft it into the merged trace tree -- and ``"events"``, the
    worker-side flight-recorder events replayed into the coordinator's
    ring on gather.
    """
    started = time.perf_counter()
    record = struct.Struct(payload["format"])
    size = payload["record_size"]
    fold = compile_page_fold(payload["filters"], payload["aggs"])
    aggs = payload["aggs"]
    rows = 0
    partials = [None] * len(aggs)
    for image, count in zip(payload["pages"], payload["counts"]):
        area = memoryview(image)[
            _PAGE_HEADER_SIZE : _PAGE_HEADER_SIZE + count * size
        ]
        n, updates = fold(record.iter_unpack(area))
        rows += n
        for index, (func, _) in enumerate(aggs):
            partials[index] = _merge_partial(
                func, partials[index], updates[index]
            )
    result = {
        "rows": rows,
        "partials": partials,
        "io": {
            "reads": {payload["name"]: payload["visited"]}
            if payload["visited"]
            else {},
            "writes": {},
            "system": [],
        },
    }
    context = payload.get("trace")
    if context is not None:
        from repro.observe.span import new_span_id

        duration = time.perf_counter() - started
        result["span"] = {
            "name": "worker",
            "started": started,
            "duration_ms": duration * 1000.0,
            "trace_id": context.get("trace_id"),
            "span_id": new_span_id(),
            "parent_id": context.get("span_id"),
            "attributes": {
                "lane": "worker",
                "pid": os.getpid(),
                "partition": payload["name"],
                "pages_shipped": len(payload["pages"]),
                "pages_visited": payload["visited"],
                "rows": rows,
                "kernel": "page_fold",
            },
            "children": [],
        }
        result["events"] = [
            {
                "kind": "exec.partition_scan",
                "data": {
                    "partition": payload["name"],
                    "worker_pid": os.getpid(),
                    "pages": payload["visited"],
                    "rows": rows,
                },
            }
        ]
    return result
