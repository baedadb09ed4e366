"""The differential harness: engine vs. oracle, statement by statement.

A workload runs against a fresh :class:`~repro.engine.session.Session`
and a fresh :class:`~repro.sim.oracle.Oracle` sharing one logical clock.
After every statement the harness checks, in order:

1. **round-trip** -- the statement AST unparses to text that re-parses to
   an equal AST (the engine executes the *text*, so any unparser gap
   would silently run a different statement);
2. **error agreement** -- either both sides accept the statement or both
   refuse it (any engine :class:`~repro.errors.ReproError` counts as a
   refusal, any other exception as a crash);
3. **result agreement** -- retrieves compare column names and the sorted
   multiset of rows, updates and vacuums compare their counts;
4. **state agreement** -- every relation's full stored version set
   (implicit attributes included) compares equal as a sorted multiset,
   and both sides agree on which relations exist.

State is compared even after both-refused statements: partial effects
(``destroy`` of several relations stopping midway, ``modify`` applying
before rejecting an unknown option) must match too.

The harness injects a ``modify ... to <structure> on <key>`` after every
statement that creates a relation, steering the whole workload onto the
config's access method.  Injected statements go through the same checks
as generated ones; where the structure is impossible (``twolevel`` needs
a versioned relation) both sides refuse and the relation stays a heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro
from repro.engine.database import TemporalDatabase
from repro.errors import ReproError
from repro.sim.generator import Workload
from repro.sim.oracle import Oracle, OracleError
from repro.temporal.chronon import Clock
from repro.tquel import ast
from repro.tquel.parser import parse_statement
from repro.tquel.unparse import unparse

STRUCTURES = ("heap", "hash", "isam", "btree", "twolevel")


@dataclass(frozen=True)
class Config:
    """One cell of the harness matrix."""

    structure: str = "heap"
    atomic: bool = True

    @property
    def label(self) -> str:
        return f"{self.structure}/atomic={'on' if self.atomic else 'off'}"


CONFIG_MATRIX = tuple(
    Config(structure=s, atomic=a)
    for s in STRUCTURES
    for a in (True, False)
)

# One config per structure, alternating atomicity: the quick matrix
# still covers all five access methods and both values of the flag.
QUICK_MATRIX = (
    Config("heap", atomic=True),
    Config("hash", atomic=False),
    Config("isam", atomic=True),
    Config("btree", atomic=False),
    Config("twolevel", atomic=True),
)


@dataclass
class Divergence:
    """One disagreement between engine and oracle."""

    kind: str  # roundtrip | error | result | state | engine-crash | oracle-crash
    index: int  # statement position in the executed script
    statement: str
    detail: str
    config: Config

    def __str__(self) -> str:
        return (
            f"[{self.config.label}] statement {self.index}: "
            f"{self.kind}\n  {self.statement}\n  {self.detail}"
        )


@dataclass
class RunReport:
    """Outcome of one workload under one config."""

    workload: Workload
    config: Config
    divergence: "Divergence | None" = None
    statements_run: int = 0
    script: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _canon_rows(rows) -> "list[tuple]":
    return sorted(tuple(row) for row in rows)


def _modify_for(stmt, config: Config) -> "ast.ModifyStmt | None":
    """The steering modify for a relation-creating statement, if any."""
    if config.structure == "heap":
        return None
    if isinstance(stmt, ast.CreateStmt):
        relation = stmt.relation
        key = stmt.columns[0][0]
    elif isinstance(stmt, ast.RetrieveStmt) and stmt.into:
        relation = stmt.into
        first = stmt.targets[0]
        if first.name is not None:
            key = first.name
        elif isinstance(first.expr, ast.Attr):
            key = first.expr.name
        else:
            return None
    else:
        return None
    return ast.ModifyStmt(
        relation=relation, structure=config.structure, key=key, options=()
    )


class _Refused(Exception):
    """Wrapper marking an expected, well-typed rejection."""

    def __init__(self, error):
        self.error = error


def _engine_step(session, text):
    try:
        return session.execute(text)
    except ReproError as error:
        raise _Refused(error) from error


def _oracle_step(oracle, stmt):
    try:
        return oracle.execute(stmt)
    except OracleError as error:
        raise _Refused(error) from error


def _compare_results(stmt, engine_result, oracle_result) -> "str | None":
    """A detail string when the per-statement results disagree."""
    if isinstance(stmt, ast.RetrieveStmt):
        if list(engine_result.columns) != list(oracle_result.columns):
            return (
                f"columns: engine {list(engine_result.columns)!r} "
                f"!= oracle {list(oracle_result.columns)!r}"
            )
        if stmt.into:
            if engine_result.count != oracle_result.count:
                return (
                    f"into count: engine {engine_result.count} "
                    f"!= oracle {oracle_result.count}"
                )
            return None
        mine = _canon_rows(engine_result.rows)
        theirs = _canon_rows(oracle_result.rows)
        if mine != theirs:
            extra = [r for r in mine if r not in theirs][:3]
            missing = [r for r in theirs if r not in mine][:3]
            return (
                f"rows: engine {len(mine)} vs oracle {len(theirs)}; "
                f"engine-only {extra!r}, oracle-only {missing!r}"
            )
        return None
    if isinstance(
        stmt,
        (ast.AppendStmt, ast.DeleteStmt, ast.ReplaceStmt, ast.VacuumStmt),
    ):
        if engine_result.count != oracle_result.count:
            return (
                f"count: engine {engine_result.count} "
                f"!= oracle {oracle_result.count}"
            )
    return None


def _compare_state(session, oracle) -> "str | None":
    """A detail string when the stored relation states disagree."""
    engine_names = session.relation_names()
    oracle_names = oracle.relation_names()
    if engine_names != oracle_names:
        return (
            f"relations: engine {engine_names!r} != oracle {oracle_names!r}"
        )
    for name in engine_names:
        mine = _canon_rows(session.relation_rows(name))
        theirs = _canon_rows(oracle.relation_rows(name))
        if mine != theirs:
            extra = [r for r in mine if r not in theirs][:3]
            missing = [r for r in theirs if r not in mine][:3]
            return (
                f"state of {name!r}: engine {len(mine)} versions vs "
                f"oracle {len(theirs)}; engine-only {extra!r}, "
                f"oracle-only {missing!r}"
            )
    return None


def run_workload(
    workload: Workload,
    config: Config,
    inject_modifies: bool = True,
) -> RunReport:
    """Run *workload* differentially under *config*.

    Stops at the first divergence.  With *inject_modifies* off the
    statements run exactly as given (corpus replay: the steering modifies
    are already baked into the file).
    """
    session = repro.connect(
        database=TemporalDatabase(
            "sim",
            clock=Clock(start=workload.clock_start, tick=workload.clock_tick),
            atomic_statements=config.atomic,
        )
    )
    oracle = Oracle(start=workload.clock_start, tick=workload.clock_tick)
    report = RunReport(workload=workload, config=config)

    pending = list(workload.statements)
    pending.reverse()  # pop() from the front
    while pending:
        stmt = pending.pop()
        index = report.statements_run
        text = unparse(stmt)
        report.script.append(text)
        report.statements_run += 1

        try:
            reparsed = parse_statement(text)
        except ReproError as error:
            report.divergence = Divergence(
                "roundtrip", index, text, f"text does not re-parse: {error}",
                config,
            )
            return report
        if reparsed != stmt:
            report.divergence = Divergence(
                "roundtrip", index, text,
                f"re-parsed AST differs: {reparsed!r} != {stmt!r}", config,
            )
            return report

        engine_result = engine_error = None
        try:
            engine_result = _engine_step(session, text)
        except _Refused as refusal:
            engine_error = refusal.error
        except Exception as error:  # noqa: BLE001 -- crash = divergence
            report.divergence = Divergence(
                "engine-crash", index, text,
                f"{type(error).__name__}: {error}", config,
            )
            return report

        oracle_result = oracle_error = None
        try:
            oracle_result = _oracle_step(oracle, stmt)
        except _Refused as refusal:
            oracle_error = refusal.error
        except Exception as error:  # noqa: BLE001
            report.divergence = Divergence(
                "oracle-crash", index, text,
                f"{type(error).__name__}: {error}", config,
            )
            return report

        if (engine_error is None) != (oracle_error is None):
            report.divergence = Divergence(
                "error", index, text,
                f"engine: {engine_error or 'ok'}; "
                f"oracle: {oracle_error or 'ok'}",
                config,
            )
            return report

        if engine_error is None:
            detail = _compare_results(stmt, engine_result, oracle_result)
            if detail is not None:
                report.divergence = Divergence(
                    "result", index, text, detail, config
                )
                return report

        detail = _compare_state(session, oracle)
        if detail is not None:
            report.divergence = Divergence(
                "state", index, text, detail, config
            )
            return report

        if inject_modifies and engine_error is None:
            steer = _modify_for(stmt, config)
            if steer is not None:
                pending.append(steer)
    return report


def run_seed(
    seed: int,
    ops: int = 200,
    profile: str = "mixed",
    db_type: "str | None" = None,
    matrix: "tuple[Config, ...]" = QUICK_MATRIX,
) -> "list[RunReport]":
    """Generate the seed's workload and run it across *matrix*.

    A pure function of its arguments: reports come back in matrix order
    with deterministic contents, so callers can fan seeds out across
    processes and still produce byte-identical output.
    """
    from repro.sim.generator import generate_workload

    workload = generate_workload(seed, db_type=db_type, ops=ops, profile=profile)
    return [run_workload(workload, config) for config in matrix]
