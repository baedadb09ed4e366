"""The four workloads, driven through the system's user surface only.

A workload object is built once per process from the seed (its inputs
come from :mod:`gen`).  The runner then calls, possibly several times,

``setup()``    nothing -> a connected, loaded system (this is ``setup_s``);
``warm(inst)`` untimed statements that bring caches to steady state;
``block(inst, index, out)``  one block of the statement stream;
``finish(inst, out)``        end-of-stream checks;
``close(inst)``              stop every process, drop every file.

Every client call goes through ``out.call`` (see ``run.Recorder``), which
times it and, in the traced pass, opens the root span.  Every reply is
compared with the generator's oracle; a wrong reply counts as a failed
statement.

All four are closed loops with one client: the next statement is sent
when the previous reply has been checked.  The tcp workloads add exactly
one server process.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import gen
import layers
import repro

HERE = os.path.dirname(os.path.abspath(__file__))


def child_env() -> dict:
    """The environment of every process the benchmark starts: shipped
    defaults (no ``REPRO_*`` switch) and the same sources this process
    imported ``repro`` from."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return env


def database_dir(base: str) -> str:
    """Where the ``file:`` database of a set-up lives.  Commits swap this
    directory with ``db.tmp`` / ``db.old`` siblings, so the benchmark's
    own side files stay one level up, in *base*."""
    return os.path.join(base, "db")


class Workload:
    """What the runner needs from every workload."""

    name = ""
    block_statements = 0     # client calls per block
    prefix_blocks = 0        # blocks whose counts and digest are checked
    episode_blocks = None    # blocks per set-up; None: run to the deadline

    traced = False           # set for the traced pass
    server_dump = None       # what a traced server recorded, once stopped

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self._made = 0

    def fresh_dir(self) -> str:
        self._made += 1
        path = os.path.join(self.tmp, f"{self.name}-{self._made}")
        os.makedirs(path)
        return path

    def warm(self, inst) -> None:
        pass

    def trace_window(self, inst, is_open: bool) -> None:
        """The traced blocks are about to start / have just ended."""

    def finish(self, inst, out) -> None:
        pass

    def space_pages(self, inst) -> int:
        return inst.get("space_pages", 0)


# -- paper-mix.local ----------------------------------------------------------


class PaperMix(Workload):
    name = "paper-mix.local"
    block_statements = len(gen.PAPER_QUERIES)
    prefix_blocks = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lo = repro.parse_temporal("4:00 1/1/80")
        hi = repro.parse_temporal("2/15/80")
        early = repro.parse_temporal("1/1/80")
        rng = gen.rng_for(self.seed, self.name, "rows")
        self.h_rows = gen.paper_rows(
            rng, gen.H_PROBE_AMOUNT, early, self._lo, hi
        )
        self.i_rows = gen.paper_rows(
            rng, gen.I_PROBE_AMOUNT, early, self._lo, hi
        )
        self.expected = gen.paper_expected(
            self.h_rows, self.i_rows, repro.parse_temporal("08:00 1/1/80")
        )

    def setup(self) -> dict:
        clock = repro.Clock(start=repro.parse_temporal("3/1/80"), tick=60)
        session = repro.connect("paper", clock=clock)
        for name, rows, structure in (
            ("temporal_h", self.h_rows, "hash"),
            ("temporal_i", self.i_rows, "isam"),
        ):
            session.execute(
                f"create persistent interval {name} {gen.PAPER_COLUMNS}"
            )
            session.db.copy_in(name, rows)
            session.execute(
                f"modify {name} to {structure} on id where fillfactor = 100"
            )
        session.execute("range of h is temporal_h")
        session.execute("range of i is temporal_i")
        for _ in range(gen.PAPER_UPDATE_COUNT):
            for statement in gen.EVOLVE_STATEMENTS:
                session.execute(statement)
        pages = sum(
            session.db.relation_stats(name)["pages"]
            for name in ("temporal_h", "temporal_i")
        )
        return {"session": session, "first": {}, "space_pages": pages}

    def warm(self, inst) -> None:
        # One round compiles the twelve texts into the plan cache.
        for text in gen.PAPER_QUERIES.values():
            inst["session"].execute(text)

    def block(self, inst, index, out) -> None:
        session, first = inst["session"], inst["first"]
        for query, text in gen.PAPER_QUERIES.items():
            result = out.call(query, session.execute, text)
            if result is None:
                continue
            rows = result.rows
            if query not in first:
                first[query] = rows
                problem = self._check(query, rows)
                if problem:
                    out.fail(query, problem)
            elif rows != first[query]:
                out.fail(query, "rows changed between rounds")

    def _check(self, query: str, rows) -> "str | None":
        if query not in self.expected:
            return None if rows else "empty result"
        mode, expected = self.expected[query]
        got = sorted(rows if mode == "exact" else (r[:2] for r in rows))
        if got != expected:
            return f"expected {expected[:3]}..., got {got[:3]}..."
        return None

    def close(self, inst) -> None:
        inst["session"].close()


# -- the tcp workloads --------------------------------------------------------


class Server:
    """One ``python -m repro.server`` child on a checkpointed directory.

    In the traced pass the same stock ``main()`` is started through
    ``traced_server.py``, which installs the span shims first and writes
    its totals to *spans* when the server exits.
    """

    def __init__(self, base: str, traced: bool):
        self.spans = os.path.join(base, "server-spans.json")
        self.marker = os.path.join(base, "trace-armed")
        command = [sys.executable]
        if traced:
            command += [
                os.path.join(HERE, "traced_server.py"),
                "--spans", self.spans, "--marker", self.marker, "--",
            ]
        else:
            command += ["-m", "repro.server"]
        command += ["--database", f"file:{database_dir(base)}", "--port", "0"]
        self._log = open(os.path.join(base, "server.log"), "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(), text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[-1]
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (graceful: the server drains and exits 0), then wait."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._log.close()


class TcpWorkload(Workload):
    """A server subprocess on a checkpointed ``load`` relation."""

    rows_count = 0
    warm_blocks = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = gen.load_rows(
            gen.rng_for(self.seed, self.name, "rows"), self.rows_count
        )

    def setup(self) -> dict:
        base = self.fresh_dir()
        inst = {"base": base, "server": None, "session": None}
        try:
            with repro.connect(f"file:{database_dir(base)}") as builder:
                builder.execute(
                    f"create persistent interval load {gen.LOAD_COLUMNS}"
                )
                builder.db.copy_in("load", self.rows)
                builder.execute(
                    "modify load to hash on key where fillfactor = 100"
                )
                builder.commit()
                inst["space_pages"] = (
                    builder.db.relation_stats("load")["pages"]
                )
            inst["server"] = Server(base, self.traced)
            inst["session"] = repro.connect(inst["server"].url)
            inst["session"].execute("range of l is load")
        except BaseException:
            self.close(inst)
            raise
        return inst

    def warm(self, inst) -> None:
        for index in range(self.warm_blocks):
            for text, _ in self.statements("warm", index):
                inst["session"].execute(text)

    def trace_window(self, inst, is_open: bool) -> None:
        """The traced server counts spans while the marker file exists."""
        marker = inst["server"].marker
        if is_open:
            with open(marker, "w"):
                pass
        else:
            os.remove(marker)
            time.sleep(5 * layers.Tracer.MARKER_PERIOD)

    def finish(self, inst, out) -> None:
        stats = inst["session"].retry_stats
        out.note("retries", stats["retries"] + stats["reconnects"])

    def close(self, inst) -> None:
        try:
            if inst["session"] is not None:
                inst["session"].close()
        finally:
            if inst["server"] is not None:
                inst["server"].stop()
                if self.traced and os.path.exists(inst["server"].spans):
                    with open(inst["server"].spans) as handle:
                        self.server_dump = json.load(handle)
            shutil.rmtree(inst["base"], ignore_errors=True)


class AdhocPoint(TcpWorkload):
    name = "adhoc-point.tcp"
    rows_count = 16384
    block_statements = 500
    prefix_blocks = 4
    # The server's per-statement cost steps up by ~25 % somewhere between
    # 4k and 6k statements served and is flat afterwards; measure there.
    warm_blocks = 16
    skew = 2.5

    def statements(self, phase: str, index: int):
        rng = gen.rng_for(self.seed, self.name, phase, index)
        return gen.point_block(rng, self.rows, self.block_statements, self.skew)

    def block(self, inst, index, out) -> None:
        execute = inst["session"].execute
        for text, value in self.statements("block", index):
            result = out.call("point", execute, text)
            if result is not None and [r[0] for r in result.rows] != [value]:
                out.fail("point", f"{text}: expected {value}, got {result.rows}")


class ResultStream(TcpWorkload):
    name = "result-stream.tcp"
    # 1024 rows, not more: from ~2000 rows per reply on, the server's
    # generation-2 garbage collections hit about one statement in twenty
    # and p95 sits on the edge between the bulk and that tail.
    rows_count = 1024
    block_statements = 50
    prefix_blocks = 4
    warm_blocks = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._expected = sorted(self.rows)

    def statements(self, phase: str, index: int):
        return [(gen.STREAM_QUERY, None)] * self.block_statements

    def block(self, inst, index, out) -> None:
        execute = inst["session"].execute
        first = inst.get("first")
        for _ in range(self.block_statements):
            result = out.call("stream", execute, gen.STREAM_QUERY)
            if result is None:
                continue
            if first is None:
                first = inst["first"] = result.rows
                if sorted(r[:3] for r in first) != self._expected:
                    out.fail("stream", "reply is not the loaded relation")
            elif result.rows != first:
                out.fail("stream", "reply changed between statements")


# -- update-commit.file -------------------------------------------------------


class UpdateCommit(Workload):
    name = "update-commit.file"
    rows_count = 8192
    commit_every = 256          # the flush policy: fixed, one commit per block
    block_statements = commit_every + 1
    episode_blocks = 80
    prefix_blocks = episode_blocks
    uncommitted_tail = 16
    current_rows = 'retrieve (l.key, l.val) when l overlap "now"'

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = gen.load_rows(
            gen.rng_for(self.seed, self.name, "rows"), self.rows_count
        )
        self._reopened = False

    def setup(self) -> dict:
        base = self.fresh_dir()
        session = repro.connect(f"file:{database_dir(base)}")
        try:
            session.execute(
                f"create persistent interval load {gen.LOAD_COLUMNS}"
            )
            session.db.copy_in("load", self.rows)
            session.execute("modify load to hash on key where fillfactor = 100")
            session.execute("range of l is load")
            session.commit()
            prepared = {
                kind: session.prepare(text)
                for kind, text in gen.UPDATE_STATEMENTS.items()
            }
        except BaseException:
            session.close()
            shutil.rmtree(base, ignore_errors=True)
            raise
        return {
            "base": base,
            "session": session,
            "prepared": prepared,
            "stream": gen.UpdateStream(self.seed, self.rows),
        }

    def space_pages(self, inst) -> int:
        return inst["session"].db.relation_stats("load")["pages"]

    def block(self, inst, index, out) -> None:
        prepared = inst["prepared"]
        for kind, params, expected in inst["stream"].block(self.commit_every):
            result = out.call(kind, prepared[kind].execute, params)
            if result is None:
                continue
            if kind == "point":
                got = [row[0] for row in result.rows]
                if got != [expected]:
                    out.fail(kind, f"{params}: expected {expected}, got {got}")
            elif result.count != expected:
                out.fail(kind, f"{params}: affected {result.count} rows")
        out.call("commit", inst["session"].commit)

    def finish(self, inst, out) -> None:
        session, directory = inst["session"], database_dir(inst["base"])
        out.note("checkpoint_bytes", sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(directory) for name in names
        ))
        committed = sorted(tuple(row[:2]) for row in session.execute(
            self.current_rows
        ).rows)
        if committed != sorted(inst["stream"].model.items()):
            out.fail("commit", "live relation differs from the model")
        if self._reopened:
            return
        # Durability: statements after the last commit must not survive,
        # and everything up to it must, in a process that shares nothing
        # with this one but the directory.
        self._reopened = True
        for kind, params, _ in inst["stream"].block(self.uncommitted_tail):
            inst["prepared"][kind].execute(params)
        session.close()
        reopened = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--reopen", directory],
            env=child_env(), capture_output=True, text=True,
            timeout=60,
        )
        if reopened.returncode != 0 or (
            reopened.stdout.strip() != rows_digest(committed)
        ):
            out.fail(
                "commit",
                "reopened directory differs from the state at last commit: "
                + reopened.stderr[-200:],
            )

    def close(self, inst) -> None:
        inst["session"].close()
        shutil.rmtree(inst["base"], ignore_errors=True)


def rows_digest(rows) -> str:
    return hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()


def reopen_digest(directory: str) -> str:
    """Digest of the current rows of ``load`` in a checkpoint directory."""
    with repro.connect(f"file:{directory}") as session:
        session.execute("range of l is load")
        rows = session.execute(UpdateCommit.current_rows).rows
    return rows_digest(sorted(tuple(row[:2]) for row in rows))


WORKLOADS = {
    cls.name: cls for cls in (PaperMix, AdhocPoint, ResultStream, UpdateCommit)
}
