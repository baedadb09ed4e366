"""An interactive TQuel terminal monitor, in the spirit of the Ingres
monitor the prototype was driven from.

Run with ``python -m repro.monitor`` (or the ``tquel-monitor`` script).
The monitor speaks to a session from :func:`repro.connect`: by default a
fresh in-memory database, or pass a connect target as the first argument
(``python -m repro.monitor tcp://127.0.0.1:7474``, ``file:DIR``, or a
name; the ``REPRO_CONNECT`` environment variable works too).  Over a
remote (``tcp://``) session, engine-introspection meta-commands that
need the in-process database are disabled and say so.

Statements are plain TQuel; meta-commands start with a backslash:

=============  ====================================================
``\\?``         help
``\\d``         list relations (``\\d name`` shows one schema)
``\\i file``    run TQuel statements from a script file
``\\check``     integrity-check the database (``\\check name``: one relation)
``\\explain q`` show the decomposition plan for a retrieve
               (``\\explain analyze q`` also runs it and shows the
               measured span tree)
``\\save dir``  checkpoint the database; ``\\restore dir`` loads one
``\\io``        toggle per-statement I/O reporting
``\\timing``    toggle per-statement wall-time reporting
``\\trace``     toggle statement tracing (``on``/``off``/``last``);
               over ``tcp://`` the client-lane tracer merges the
               server's and workers' spans into one trace tree
``\\stats``     top query-statistics entries by accumulated latency
               (``\\stats 5`` shows 5); works over every transport
``\\slowlog``   show the slow-query log (``\\slowlog 5``; ``clear``
               empties it; enable with ``REPRO_SLOW_QUERY_MS``)
``\\planner``   cost-based optimizer state: stats epoch, decision-cache
               size and counters (``\\planner emp`` shows the catalog
               statistics the cost model sees for one relation)
``\\metrics``   show engine metrics and the buffer-pool hit rate
               (``reset`` clears metrics and trace history; ``storage``
               refreshes page/overflow-chain gauges first)
``\\events``    show the flight recorder's most recent events
               (``\\events 50`` shows 50; ``clear`` empties the ring)
``\\heatmap``   per-page access heat strips for a relation's files
               (``on``/``off`` toggles capture; ``\\heatmap emp`` shows
               the strips; ``clear`` zeroes the counts)
``\\telemetry`` export trace/metrics/events/heatmap files into a
               directory (``\\telemetry DIR``)
``\\failpoints`` show fault-injection state (``on``/``off`` toggles hit
               counting and event recording; ``arm name [hit] [times]``
               schedules a fault; ``disarm [name]``; ``reset`` clears
               everything)
``\\clock``     show the logical clock; ``\\clock advance N`` moves it
``\\time fmt``  output resolution: second/minute/hour/day/month/year
``\\q``         quit
=============  ====================================================
"""

from __future__ import annotations

import sys

from repro.engine.database import TemporalDatabase
from repro.errors import ReproError
from repro.temporal.format import Resolution, format_chronon


class Monitor:
    """A tiny REPL over one session (local or remote).

    Constructed from a *session* (anything :func:`repro.connect`
    returns) or, for embedding and tests, a *db*
    (:class:`TemporalDatabase`), which is wrapped in a local session.
    ``self.db`` is the in-process engine when there is one, ``None``
    over the wire -- meta-commands that need it check first.
    """

    def __init__(self, db: "TemporalDatabase | None" = None, out=None,
                 session=None):
        if session is None:
            from repro.engine.session import Session

            session = Session(
                db if db is not None else TemporalDatabase("monitor")
            )
        self.session = session
        self.db = getattr(session, "db", None)
        self.out = out if out is not None else sys.stdout
        self.show_io = True
        self.show_timing = False
        self.resolution = Resolution.SECOND
        self._done = False

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def _local_db(self, command: str) -> "TemporalDatabase | None":
        """The in-process engine, or None (with a message) when remote."""
        if self.db is None:
            self._print(
                f"  \\{command} needs the in-process engine; not available "
                "over a remote connection"
            )
            return None
        return self.db

    # -- meta-commands -------------------------------------------------------

    def _meta(self, line: str) -> None:
        parts = line[1:].split()
        command = parts[0] if parts else "?"
        # These inspect or mutate the in-process engine directly and are
        # refused (with a hint) over a remote connection.
        # \trace and \stats work over every transport: remote sessions
        # carry their own client-lane tracer, and \stats renders the
        # snapshot the stats wire op ships back.
        needs_engine = {
            "check", "save", "restore", "clock", "metrics", "events",
            "heatmap", "failpoints", "slowlog", "planner",
        }
        if command in needs_engine and self._local_db(command) is None:
            return
        if command == "q":
            self._done = True
        elif command == "?":
            self._print(__doc__ or "")
        elif command == "d":
            if self.db is None:
                if len(parts) > 1:
                    self._local_db("d name")
                    return
                for name in self.session.relation_names():
                    self._print(name)
            elif len(parts) > 1:
                relation = self.db.relation(parts[1])
                self._print(relation.schema.describe())
                self._print(
                    f"  structure: {relation.structure.value}"
                    f"{' on ' + relation.key_attribute if relation.key_attribute else ''}"
                    f", fillfactor {relation.fillfactor}"
                )
                self._print(
                    f"  pages: {relation.page_count}, versions: "
                    f"{relation.row_count}"
                )
                for index in relation.indexes.values():
                    self._print(
                        f"  index {index.name} on {index.attribute} "
                        f"({index.structure.value}, "
                        f"{index.levels.value}-level)"
                    )
            else:
                for name in self.db.relation_names():
                    self._print(self.db.relation(name).schema.describe())
        elif command == "io":
            self.show_io = not self.show_io
            self._print(f"I/O reporting {'on' if self.show_io else 'off'}")
        elif command == "timing":
            self.show_timing = not self.show_timing
            self._print(
                f"timing {'on' if self.show_timing else 'off'}"
            )
        elif command == "trace":
            self._trace_command(parts[1:])
        elif command == "stats":
            self._stats_command(parts[1:])
        elif command == "slowlog":
            self._slowlog_command(parts[1:])
        elif command == "planner":
            self._planner_command(parts[1:])
        elif command == "metrics":
            self._metrics_command(parts[1:])
        elif command == "events":
            self._events_command(parts[1:])
        elif command == "heatmap":
            self._heatmap_command(parts[1:])
        elif command == "telemetry":
            if len(parts) != 2:
                self._print("usage: \\telemetry <directory>")
                return
            written = self.session.export_telemetry(parts[1])
            for artifact, path in sorted(written.items()):
                self._print(f"  wrote {artifact}: {path}")
        elif command == "failpoints":
            self._failpoints_command(parts[1:])
        elif command == "clock":
            if len(parts) == 3 and parts[1] == "advance":
                try:
                    self.db.clock.advance(int(parts[2]))
                except (ValueError, ReproError) as error:
                    self._print(f"  error: {error}")
                    return
            self._print(
                f"now = {format_chronon(self.db.clock.now())} "
                f"(tick {self.db.clock.tick}s)"
            )
        elif command == "time":
            if len(parts) > 1:
                try:
                    self.resolution = Resolution(parts[1])
                except ValueError:
                    choices = ", ".join(r.value for r in Resolution)
                    self._print(
                        f"  unknown resolution {parts[1]!r} (one of: "
                        f"{choices})"
                    )
                    return
            self._print(f"output resolution: {self.resolution.value}")
        elif command == "check":
            from repro.engine.integrity import check_database, check_relation

            if len(parts) > 1:
                problems = check_relation(self.db.relation(parts[1]))
            else:
                problems = check_database(self.db)
            if problems:
                for problem in problems:
                    self._print(f"  PROBLEM {problem}")
            else:
                self._print("  integrity check passed")
        elif command == "i":
            if len(parts) != 2:
                self._print("usage: \\i <file>")
                return
            try:
                with open(parts[1], "r", encoding="ascii") as handle:
                    script = handle.read()
            except OSError as error:
                self._print(f"  error: {error}")
                return
            self.handle(script)
        elif command == "save":
            if len(parts) != 2:
                self._print("usage: \\save <directory>")
                return
            self.db.save(parts[1])
            self._print(f"  saved to {parts[1]}")
        elif command == "restore":
            if len(parts) != 2:
                self._print("usage: \\restore <directory>")
                return
            try:
                self.db = TemporalDatabase.load(parts[1])
            except ReproError as error:
                self._print(f"  error: {error}")
                return
            from repro.engine.session import Session

            self.session = Session(self.db)
            self._print(f"  restored from {parts[1]}")
        else:
            self._print(f"unknown meta-command \\{command} (try \\?)")

    def _trace_command(self, args: "list[str]") -> None:
        # Every transport exposes a tracer: the engine's for local
        # sessions, the client-lane tracer (which scatters trace
        # context over the wire and grafts the server/worker spans
        # back) for remote ones.
        tracer = getattr(self.session, "tracer", None)
        if tracer is None:
            self._print("  this session has no tracer")
            return
        mode = args[0] if args else ("off" if tracer.enabled else "on")
        if mode == "on":
            tracer.enable()
            self._print("tracing on")
        elif mode == "off":
            tracer.disable()
            self._print("tracing off")
        elif mode == "last":
            if tracer.last is None:
                self._print("  no traced statement yet (\\trace on first)")
            else:
                for line in tracer.last.render().split("\n"):
                    self._print("  " + line)
        else:
            self._print("usage: \\trace [on|off|last]")

    def _stats_command(self, args: "list[str]") -> None:
        from repro.observe.stats import QueryStatsStore

        n = 10
        if args:
            try:
                n = int(args[0])
            except ValueError:
                self._print("usage: \\stats [n]")
                return
        # Both transports return the same snapshot shape (local
        # sessions from the engine store, remote ones over the stats
        # wire op); rebuilding a store renders them identically.
        store = QueryStatsStore()
        store.restore(self.session.query_stats(n))
        for line in store.render(n).split("\n"):
            self._print("  " + line)

    def _slowlog_command(self, args: "list[str]") -> None:
        slowlog = self.db.slowlog
        if args and args[0] == "clear":
            slowlog.clear()
            self._print("slow-query log cleared")
            return
        n = 10
        if args:
            try:
                n = int(args[0])
            except ValueError:
                self._print("usage: \\slowlog [n|clear]")
                return
        for line in slowlog.render(n).split("\n"):
            self._print("  " + line)

    def _planner_command(self, args: "list[str]") -> None:
        db = self.db
        if args:
            # \planner name: the catalog statistics the cost model sees.
            name = args[0]
            try:
                stats = db.relation_stats(name)
            except ReproError as error:
                self._print(f"  {error}")
                return
            for key in sorted(stats):
                self._print(f"  {key}: {stats[key]}")
            return
        self._print(f"  stats epoch: {db.stats_epoch}")
        self._print(f"  cached decisions: {db.planner.cached_decisions}")
        for counter in ("planner.decisions", "planner.cache_hits",
                        "planner.cache_misses"):
            value = db.metrics.counter_value(counter)
            if value:
                self._print(f"  {counter}: {value}")

    def _metrics_command(self, args: "list[str]") -> None:
        if args and args[0] == "reset":
            self.db.metrics.reset()
            # Stale span trees would outlive the numbers they explain;
            # a reset clears the trace history with the metrics.
            self.db.tracer.reset()
            self._print("metrics reset")
            return
        if args and args[0] == "storage":
            from repro.observe import record_structure_metrics

            record_structure_metrics(self.db)
        elif args:
            self._print("usage: \\metrics [reset|storage]")
            return
        rendered = self.db.metrics.render()
        if not rendered:
            self._print("  no metrics recorded yet")
            return
        for line in rendered.split("\n"):
            self._print("  " + line)
        hits = self.db.metrics.counter_value("buffer.hits")
        misses = self.db.metrics.counter_value("buffer.misses")
        if hits + misses:
            self._print(
                f"  buffer hit rate: {hits / (hits + misses):.1%} "
                f"({hits} hit(s), {misses} miss(es))"
            )
        resilience = {
            short: self.db.metrics.counter_value(counter)
            for short, counter in (
                ("retries", "client.retries"),
                ("reconnects", "server.reconnects"),
                ("dedup hits", "server.dedup_hits"),
                ("overloads", "server.overloaded"),
                ("worker failures", "exec.worker_failures"),
                ("degraded gathers", "exec.degraded"),
            )
        }
        if any(resilience.values()):
            summary = ", ".join(
                f"{value} {short}"
                for short, value in resilience.items() if value
            )
            self._print(f"  fault tolerance: {summary}")

    def _events_command(self, args: "list[str]") -> None:
        recorder = self.db.recorder
        if args and args[0] == "clear":
            recorder.clear()
            self._print("events cleared")
            return
        count = 20
        if args:
            try:
                count = int(args[0])
            except ValueError:
                self._print("usage: \\events [n|clear]")
                return
        for line in recorder.render(count).split("\n"):
            self._print("  " + line)

    def _heatmap_command(self, args: "list[str]") -> None:
        heatmap = self.db.heatmap
        if not args:
            state = "on" if heatmap.enabled else "off"
            files = ", ".join(heatmap.files()) or "none"
            self._print(f"  heatmap capture {state}; recorded files: {files}")
            self._print("  usage: \\heatmap [on|off|clear|<relation>]")
            return
        action = args[0]
        if action == "on":
            heatmap.enable()
            self._print("heatmap capture on")
            return
        if action == "off":
            heatmap.disable()
            self._print("heatmap capture off")
            return
        if action == "clear":
            heatmap.clear()
            self._print("heatmap cleared")
            return
        # A relation name: show strips for its files (primary, history
        # and index files carry a "name." prefix).
        matches = [
            name
            for name in heatmap.files()
            if name == action or name.startswith(action + ".")
        ]
        if not matches:
            hint = (
                "" if heatmap.enabled else " (capture is off; \\heatmap on)"
            )
            self._print(f"  no recorded accesses for {action!r}{hint}")
            return
        for name in matches:
            pages = None
            try:
                pages = self.db.pool.file(name).page_count
            except ReproError:
                pass
            for line in heatmap.render(name, pages=pages).split("\n"):
                self._print("  " + line)

    def _failpoints_command(self, args: "list[str]") -> None:
        from repro import fault

        if not args:
            for line in fault.render().split("\n"):
                self._print("  " + line)
            return
        action = args[0]
        try:
            if action == "on":
                fault.set_counting(True)
                fault.attach_metrics(self.db.metrics)
                fault.attach_recorder(self.db.recorder)
                self._print("failpoint counting on")
            elif action == "off":
                fault.set_counting(False)
                fault.detach_metrics()
                fault.detach_recorder()
                self._print("failpoint counting off")
            elif action == "reset":
                fault.reset()
                self._print("failpoints reset")
            elif action == "arm" and 2 <= len(args) <= 4:
                at_hit = int(args[2]) if len(args) > 2 else 1
                times = int(args[3]) if len(args) > 3 else 1
                fault.arm(args[1], at_hit=at_hit, times=times)
                self._print(
                    f"armed {args[1]} at hit {at_hit} (x{times})"
                )
            elif action == "disarm":
                fault.disarm(args[1] if len(args) > 1 else None)
                self._print("disarmed")
            else:
                self._print(
                    "usage: \\failpoints [on|off|reset|arm name [hit] "
                    "[times]|disarm [name]]"
                )
        except (ValueError, ReproError) as error:
            self._print(f"  error: {error}")

    # -- statement execution ----------------------------------------------------

    def _format_value(self, value, column: str):
        if column in ("valid_from", "valid_to", "valid_at",
                      "transaction_start", "transaction_stop"):
            return format_chronon(value, self.resolution)
        return str(value)

    def _show_result(self, result) -> None:
        if result.rows or result.columns:
            widths = None
            table = [result.columns] + [
                [
                    self._format_value(value, column)
                    for value, column in zip(row, result.columns)
                ]
                for row in result.rows
            ]
            widths = [
                max(len(row[i]) for row in table)
                for i in range(len(result.columns))
            ]
            for line_number, row in enumerate(table):
                self._print(
                    "  " + "  ".join(
                        cell.ljust(width)
                        for cell, width in zip(row, widths)
                    )
                )
                if line_number == 0:
                    self._print(
                        "  " + "  ".join("-" * width for width in widths)
                    )
            self._print(f"  ({len(result.rows)} tuple(s))")
        elif result.message:
            self._print(f"  {result.kind}: {result.message}")
        else:
            self._print(f"  {result.kind}: {result.count} tuple(s)")
        if self.show_io and result.io is not None:
            self._print(
                f"  [input {result.input_pages} pages, output "
                f"{result.output_pages} pages]"
            )

    def handle(self, line: str) -> None:
        """Process one input line (meta-command or TQuel)."""
        stripped = line.strip()
        if not stripped:
            return
        if stripped.startswith("\\explain "):
            text = stripped[len("\\explain "):].lstrip()
            analyze = False
            if text.startswith("analyze "):
                analyze = True
                text = text[len("analyze "):].lstrip()
            try:
                self._print(self.session.explain(text, analyze=analyze))
            except ReproError as error:
                self._print(f"  error: {error}")
            return
        if stripped.startswith("\\"):
            self._meta(stripped)
            return
        import time

        started = time.perf_counter()
        try:
            outcome = self.session.execute(stripped)
        except ReproError as error:
            self._print(f"  error: {error}")
            return
        elapsed = time.perf_counter() - started
        for result in outcome if isinstance(outcome, list) else [outcome]:
            self._show_result(result)
        if self.show_timing:
            # With tracing on, the span tree's root is the statement's
            # own execution time, excluding monitor overhead (local
            # sessions only; over the wire, elapsed includes the trip).
            tracer = getattr(self.session, "tracer", None)
            if tracer is not None and tracer.enabled and tracer.last is not None:
                elapsed = tracer.last.duration
            self._print(f"  Time: {elapsed * 1000.0:.3f} ms")

    def run(self, input_stream=None) -> None:
        """Read-eval-print until EOF or ``\\q``.

        A trailing backslash continues a statement on the next line.
        """
        stream = input_stream if input_stream is not None else sys.stdin
        interactive = stream is sys.stdin and sys.stdin.isatty()
        self._print("tquel-repro monitor -- \\? for help, \\q to quit")
        buffered = ""
        while not self._done:
            if interactive:
                self.out.write("...... " if buffered else "tquel> ")
                self.out.flush()
            line = stream.readline()
            if not line:
                if buffered.strip():
                    self.handle(buffered)
                break
            stripped = line.rstrip("\n")
            if stripped.rstrip().endswith("\\") and not (
                stripped.lstrip().startswith("\\")
            ):
                buffered += stripped.rstrip()[:-1] + " "
                continue
            self.handle(buffered + stripped)
            buffered = ""


def main(argv=None) -> int:
    import repro

    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else None
    session = repro.connect(target, name="monitor")
    monitor = Monitor(session=session)
    try:
        monitor.run()
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
