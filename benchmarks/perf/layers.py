"""The probe table and the span shims of the traced pass.

The program under test is not edited: the benchmark wraps the entry
points listed in :data:`PROBES` from outside, records a span around each
call, and charges the span's *self time* -- its duration minus the part
its child spans cover -- to the probe's layer.  Spans nest through a
thread-local stack, generators are timed per ``next``, and context
managers per ``__enter__`` / ``__exit__``, so the self times of all
spans under one root add up to the root's duration exactly.

A probe names the *binding* the callers look up (``module:attr.path``).
Later changes may rename these internals without touching this
directory, so a probe that no longer resolves is reported in
``Tracer.unavailable`` and otherwise ignored; installing never raises.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import namedtuple

Probe = namedtuple("Probe", "layer target kind count", defaults=("fn", None))

#: The layers of the report, in pipeline order.  ``server.roundtrip``
#: and ``unattributed`` are residuals (see :func:`aggregate`).
LAYERS = (
    "tquel.lexer", "tquel.parser", "tquel.semantics", "engine.planner",
    "tquel.interpreter", "access", "storage.record", "storage.buffer",
    "engine.mutate", "engine.undo", "engine.persist", "engine.database",
    "server.protocol", "server.roundtrip", "unattributed",
)

def arg_len(payload) -> int:
    """Count hook: the size of the call's last argument, not its result."""
    return len(payload)


_ACCESS_CLASSES = (
    "repro.access.heap:HeapFile",
    "repro.access.hashfile:HashFile",
    "repro.access.isam:IsamFile",
)


def _access_probes():
    for cls in _ACCESS_CLASSES:
        for method in ("scan_batches", "lookup_batches", "scan", "lookup"):
            yield Probe("access", f"{cls}.{method}", "gen")
        for method in ("insert", "build"):
            yield Probe("access", f"{cls}.{method}")
    for method in ("update", "delete", "read_rid"):
        yield Probe("access", f"repro.access.base:AccessMethod.{method}")
    # Every page an access method visits passes through here; the row
    # count it returns is the "rows examined" of the interpreter ratio.
    # Counted, not timed: it only ever runs inside another access span.
    yield Probe("access", "repro.access.base:DecodeCache.rows", "count", len)


PROBES = (
    # The front end is called through names bound in engine.database.
    Probe("tquel.lexer", "repro.engine.database:tokenize"),
    Probe("tquel.parser", "repro.engine.database:parse_tokens"),
    Probe("tquel.semantics", "repro.tquel.semantics:Analyzer.analyze_retrieve"),
    Probe("tquel.semantics", "repro.tquel.semantics:Analyzer.analyze_update"),
    Probe("engine.planner", "repro.engine.planner:Planner.choose"),
    Probe("tquel.interpreter", "repro.tquel.interpreter:Executor.__init__"),
    Probe("tquel.interpreter", "repro.tquel.interpreter:Executor.run_retrieve"),
    Probe("tquel.interpreter", "repro.tquel.interpreter:Executor.run_append"),
    Probe("tquel.interpreter", "repro.tquel.interpreter:Executor.run_delete"),
    Probe("tquel.interpreter", "repro.tquel.interpreter:Executor.run_replace"),
    *_access_probes(),
    Probe("storage.record", "repro.storage.record:RecordCodec.decode_page"),
    Probe("storage.record", "repro.storage.record:RecordCodec.decode"),
    Probe("storage.record", "repro.storage.record:RecordCodec.encode"),
    Probe("storage.buffer", "repro.storage.buffer:BufferedFile.read"),
    Probe("storage.buffer", "repro.storage.buffer:BufferedFile.allocate"),
    Probe("storage.buffer", "repro.storage.buffer:BufferedFile.mark_dirty"),
    Probe("storage.buffer", "repro.storage.buffer:BufferedFile.flush"),
    Probe("storage.buffer", "repro.storage.buffer:BufferPool.flush_statement"),
    Probe("storage.buffer", "repro.storage.buffer:BufferPool.flush_all"),
    Probe("engine.mutate", "repro.engine.mutate:apply_append"),
    Probe("engine.mutate", "repro.engine.mutate:apply_delete"),
    Probe("engine.mutate", "repro.engine.mutate:apply_replace"),
    Probe("engine.mutate", "repro.engine.mutate:load_rows"),
    Probe("engine.undo", "repro.engine.database:statement_scope", "cm"),
    Probe("engine.undo", "repro.engine.undo:UndoLog.note_page"),
    Probe("engine.undo", "repro.engine.undo:UndoLog.note_allocate"),
    Probe("engine.undo", "repro.engine.undo:UndoLog.snapshot_relation"),
    Probe("engine.undo", "repro.engine.undo:UndoLog.rollback"),
    Probe("engine.persist", "repro.engine.persist:save"),
    Probe("engine.database", "repro.engine.session:Session.execute"),
    Probe("engine.database", "repro.engine.session:Session.commit"),
    Probe("engine.database", "repro.engine.session:PreparedStatement.execute"),
    Probe("server.protocol", "repro.server.protocol:encode_frame", "fn", len),
    Probe("server.protocol", "repro.server.protocol:decode_payload", "fn",
          arg_len),
    Probe("server.protocol", "repro.server.protocol:result_to_dict"),
    Probe("server.protocol", "repro.server.protocol:result_from_dict"),
    Probe("server.roundtrip", "repro.server.client:RemoteSession.execute"),
    Probe("server.roundtrip", "repro.server.client:RemoteSession.commit"),
    Probe("server.roundtrip",
          "repro.server.client:RemotePreparedStatement.execute"),
)

#: The span the benchmark's own loop opens around each client call; its
#: self time is what no probe claimed.
ROOT = Probe("unattributed", "benchmark:client.call")


def resolve(target: str):
    """``(owner, attribute name, current value)`` of a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class _ThreadState:
    """One thread's open-span stack and per-probe totals."""

    __slots__ = ("stack", "self_s", "calls", "items")

    def __init__(self, probes: int):
        self.stack = []
        self.self_s = [0.0] * probes
        self.calls = [0] * probes
        self.items = [0] * probes


class Tracer:
    """Span bookkeeping shared by every shim of one process.

    Until :meth:`arm` the shims only forward calls.  A server process is
    armed from outside by creating *marker* and disarmed by removing it:
    root spans look for the file (at most every ``MARKER_PERIOD``
    seconds once armed), so the spans of the warm-up and of the shutdown
    are not counted and no signal or extra wire message is needed.

    A span is a frame ``[child seconds, detail list or None]`` on the
    thread's stack; the shims inline the bookkeeping because they sit on
    paths that run thousands of times per statement.
    """

    MARKER_PERIOD = 0.002
    DETAIL_SPANS = 400

    def __init__(self, marker: "str | None" = None, detail_roots: int = 0):
        self.probes = [ROOT]
        self.unavailable: "list[str]" = []
        self.armed = False
        self.marker = marker
        self.detail_roots = detail_roots
        self.details: "list[dict]" = []
        self.statement = None  # set by the client loop, labels detail spans
        self._next_marker_check = 0.0
        self._local = threading.local()
        self._states: "list[_ThreadState]" = []
        self._guard = threading.Lock()

    # -- arming ----------------------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(len(self.probes))
            with self._guard:
                self._states.append(state)
            return state

    def arm(self) -> None:
        """Start counting from zero."""
        with self._guard:
            for state in self._states:
                for totals in (state.self_s, state.calls, state.items):
                    totals[:] = [0] * len(totals)
        self.details = []
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def _arm_by_marker(self) -> bool:
        """Called by a shim while disarmed; true once the marker exists."""
        if self.marker is not None and os.path.exists(self.marker):
            self.arm()
        return self.armed

    def _root_begins(self, now: float):
        """A root span starts: returns its detail list (or None), and
        lets a removed marker disarm a server."""
        if self.marker is not None and now >= self._next_marker_check:
            self._next_marker_check = now + self.MARKER_PERIOD
            if not os.path.exists(self.marker):
                self.armed = False
        if self.detail_roots > 0:
            self.detail_roots -= 1
            return []
        return None

    def _detail(self, pid, detail, stack, started, duration, own) -> None:
        """Keep one finished span of a detailed root.  Past
        ``DETAIL_SPANS`` per root the open spans below it stop reporting
        (their frames lose the list), so a statement with thousands of
        spans costs no more to trace than an undetailed one."""
        depth = len(stack)
        if len(detail) < self.DETAIL_SPANS or depth == 0:
            probe = self.probes[pid]
            detail.append({
                "name": probe.target.partition(":")[2],
                "layer": probe.layer,
                "depth": depth,
                "start_s": started,
                "dur_us": round(duration * 1e6, 2),
                "self_us": round(own * 1e6, 2),
            })
        else:
            for frame in stack[1:]:
                frame[1] = None
        if depth == 0:
            self.details.append({"statement": self.statement, "spans": detail})

    def root(self):
        """Context manager for the benchmark's own per-call root span."""
        return _Span(self, 0)

    # -- shims ----------------------------------------------------------------

    def _wrap(self, probe: Probe, pid: int, fn):
        tracer, get_state, perf = self, self.state, time.perf_counter
        count = probe.count

        if probe.kind == "fn":
            def shim(*args, **kwargs):
                if not tracer.armed and not tracer._arm_by_marker():
                    return fn(*args, **kwargs)
                state = get_state()
                stack = state.stack
                state.calls[pid] += 1
                started = perf()
                if stack:
                    parent = stack[-1]
                    frame = [0.0, parent[1]]
                else:
                    parent = None
                    frame = [0.0, tracer._root_begins(started)]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - started
                    stack.pop()
                    own = duration - frame[0]
                    state.self_s[pid] += own
                    if parent is not None:
                        parent[0] += duration
                    if frame[1] is not None:
                        tracer._detail(
                            pid, frame[1], stack, started, duration, own
                        )
                if count is not None:
                    state.items[pid] += count(
                        args[-1] if count is arg_len else result
                    )
                return result
        elif probe.kind == "count":
            def shim(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.armed:
                    state = get_state()
                    state.calls[pid] += 1
                    state.items[pid] += count(result)
                return result
        elif probe.kind == "gen":
            def shim(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.armed and not tracer._arm_by_marker():
                    return inner
                get_state().calls[pid] += 1
                return timed_iter(inner)

            def timed_iter(inner):
                # One span per ``next``: what the consumer does between
                # two items is the consumer's time, not this layer's.
                state = get_state()
                stack, self_s, items = state.stack, state.self_s, state.items
                try:
                    while True:
                        started = perf()
                        if stack:
                            parent = stack[-1]
                            frame = [0.0, parent[1]]
                        else:
                            parent = None
                            frame = [0.0, tracer._root_begins(started)]
                        stack.append(frame)
                        try:
                            item = next(inner)
                            items[pid] += 1
                        except StopIteration:
                            return
                        finally:
                            duration = perf() - started
                            stack.pop()
                            own = duration - frame[0]
                            self_s[pid] += own
                            if parent is not None:
                                parent[0] += duration
                            if frame[1] is not None:
                                tracer._detail(
                                    pid, frame[1], stack, started,
                                    duration, own,
                                )
                        yield item
                finally:
                    inner.close()
        elif probe.kind == "cm":
            def shim(*args, **kwargs):
                return _TimedContext(tracer, pid, fn(*args, **kwargs))
        else:
            raise ValueError(f"unknown probe kind {probe.kind!r}")
        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", "shim")
        return shim

    def install(self, probes=PROBES) -> "Tracer":
        """Wrap every probe that resolves; note the ones that do not."""
        for probe in probes:
            try:
                owner, name, fn = resolve(probe.target)
            except (ImportError, AttributeError):
                self.unavailable.append(probe.target)
                continue
            self.probes.append(probe)
            setattr(owner, name, self._wrap(probe, len(self.probes) - 1, fn))
        return self

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per-probe totals summed over threads, keyed by target."""
        with self._guard:
            states = list(self._states)
        return {
            probe.target: {
                "layer": probe.layer,
                "self_s": sum(state.self_s[pid] for state in states),
                "calls": sum(state.calls[pid] for state in states),
                "items": sum(state.items[pid] for state in states),
            }
            for pid, probe in enumerate(self.probes)
        }

    def dump(self) -> dict:
        return {
            "totals": self.totals(),
            "unavailable": list(self.unavailable),
            "details": self.details,
        }


class _Span:
    """One explicitly opened span (the client loop's root; the enter and
    exit halves of a timed context manager)."""

    __slots__ = (
        "_tracer", "_pid", "_calls", "_state", "_frame", "_parent", "_started",
    )

    def __init__(self, tracer: Tracer, pid: int, calls: int = 1):
        self._tracer, self._pid, self._calls = tracer, pid, calls

    def __enter__(self):
        tracer = self._tracer
        self._state = state = tracer.state()
        state.calls[self._pid] += self._calls
        stack = state.stack
        self._started = started = time.perf_counter()
        if stack:
            self._parent = stack[-1]
            self._frame = [0.0, self._parent[1]]
        else:
            self._parent = None
            self._frame = [0.0, tracer._root_begins(started)]
        stack.append(self._frame)
        return self

    def __exit__(self, *exc):
        duration = time.perf_counter() - self._started
        state, frame, pid = self._state, self._frame, self._pid
        state.stack.pop()
        own = duration - frame[0]
        state.self_s[pid] += own
        if self._parent is not None:
            self._parent[0] += duration
        if frame[1] is not None:
            self._tracer._detail(
                pid, frame[1], state.stack, self._started, duration, own
            )
        return False


class _TimedContext:
    """A context manager whose enter and exit are each one span."""

    __slots__ = ("_tracer", "_pid", "_inner")

    def __init__(self, tracer: Tracer, pid: int, inner):
        self._tracer, self._pid, self._inner = tracer, pid, inner

    def __enter__(self):
        tracer = self._tracer
        if not tracer.armed:
            return self._inner.__enter__()
        with _Span(tracer, self._pid):
            return self._inner.__enter__()

    def __exit__(self, *exc):
        tracer = self._tracer
        if not tracer.armed:
            return self._inner.__exit__(*exc)
        with _Span(tracer, self._pid, calls=0):
            return self._inner.__exit__(*exc)


def aggregate(client: dict, server: "dict | None" = None) -> dict:
    """Per-layer self time, calls and per-probe totals of one traced pass.

    *client* and *server* are :meth:`Tracer.totals` of the two processes.
    ``server.roundtrip`` is what is left of the client's wire call after
    everything the server process recorded: socket, asyncio dispatch,
    thread hand-off and waiting.  The layers then still sum to the root
    spans' total, which :func:`aggregate` returns as ``root_s``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    probes: "dict[str, dict]" = {}
    for totals in (client, server or {}):
        for target, entry in totals.items():
            layer = layers.setdefault(
                entry["layer"], {"self_s": 0.0, "calls": 0}
            )
            layer["self_s"] += entry["self_s"]
            layer["calls"] += entry["calls"]
            merged = probes.setdefault(
                target, {"self_s": 0.0, "calls": 0, "items": 0}
            )
            for key in merged:
                merged[key] += entry[key]
    root_s = sum(entry["self_s"] for entry in client.values())
    if server:
        layers["server.roundtrip"]["self_s"] -= sum(
            entry["self_s"] for entry in server.values()
        )
    return {"layers": layers, "probes": probes, "root_s": root_s}
