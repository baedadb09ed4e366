"""EXPLAIN: describe a retrieve's decomposition without running it.

Section 5.3 of the paper analyzes each benchmark query by narrating its
plan ("processing Q09 first scans an ISAM file sequentially doing
selection and projection into a temporary relation ... then performs one
hashed access for each of 1024 tuples").  :func:`explain` produces that
narration for any retrieve:

* the resolved ``as of`` event (including the implicit ``"now"``);
* which variables one-variable detachment sends to temporaries;
* the tuple-substitution order;
* each loop depth's access path -- keyed (hash/ISAM), secondary index, or
  sequential scan -- and whether enhanced structures serve it from
  current data only;
* a ``cost:`` section pricing the chosen path and every rejected
  alternative in predicted page reads (the Fig. 9 model over catalog
  statistics), and -- under ANALYZE -- predicted versus
  actually-metered pages.

The plan is derived with the executor's own decision procedures, so what
EXPLAIN prints is what execution does; nothing is read or written.
"""

from __future__ import annotations

from repro.errors import TQuelSemanticError
from repro.temporal.format import format_chronon
from repro.tquel import ast
from repro.tquel.interpreter import Executor
from repro.tquel.parser import parse_statement
from repro.tquel.semantics import Analyzer


class _PlannedTemporary:
    """Sentinel marking a variable as detached during dry planning."""


def _partition_suffix(executor, relation, source) -> str:
    pruned = ""
    if executor._asof_period is not None and source.layout.tx is not None:
        survivors = len(
            relation.survivors(executor._asof_period.stop - 1, count=False)
        )
        if survivors < relation.partition_count:
            pruned = (
                f", {relation.partition_count - survivors} pruned by"
                " as-of bounds"
            )
    degraded = (
        ", degraded to serial"
        if getattr(relation, "gather_degraded", False)
        else ""
    )
    # Only the page-fold kernel scatters; every other scan of a
    # partitioned relation reads its partitions serially.
    order = list(executor._analysis.var_order)
    mode = "serial" if executor._kernel_specs(order) is None else "process"
    return (
        f" [{relation.partition_count} {relation.partition_method}"
        f" partitions, {mode} gather{pruned}{degraded}]"
    )


def _access_description(executor: Executor, var: str, choice) -> str:
    source = executor._sources[var]
    if source.temp is not None:
        return f"scan temporary({var})"
    relation = source.relation
    suffix = ""
    if getattr(relation, "is_two_level", False) and source.current_only:
        suffix = " [primary store only]"
    elif (
        getattr(relation, "zone_map", None) is not None
        and executor._asof_period is not None
        and source.layout.tx is not None
    ):
        suffix = " [zone map prunes post-as-of pages]"
    if getattr(relation, "is_partitioned", False):
        suffix += _partition_suffix(executor, relation, source)
    if choice.kind == "keyed":
        attribute = relation.schema.fields[choice.position].name
        structure = (
            relation.storage.primary.kind.value
            if getattr(relation, "is_two_level", False)
            else relation.structure.value
        )
        return f"keyed {structure} access on {attribute}{suffix}"
    if choice.kind == "index":
        index = relation.index_for(choice.position)
        if index is not None:
            return _index_description(index, source)
    return f"sequential scan{suffix}"


def _index_description(index, source) -> str:
    levels = (
        "current index only"
        if source.current_only and index.levels.value == 2
        else f"{index.levels.value}-level"
    )
    return (
        f"secondary index {index.name} "
        f"({index.structure.value}, {levels})"
    )


def _cost_lines(choices) -> "list[str]":
    """Render the planner's decisions: chosen path first, then every
    rejected alternative, each with its Fig. 9 predicted page reads."""
    lines = ["  cost:"]
    for var, choice in choices:
        chosen = choice.chosen
        if chosen is None:
            lines.append(f"    {var}: {choice.kind} (not priced)")
            continue
        lines.append(
            f"    {var}: chosen {chosen.description}, predicted "
            f"{chosen.predicted:.1f} page read(s)"
        )
        for alternative in choice.rejected:
            lines.append(
                f"    {var}: rejected {alternative.description}, "
                f"predicted {alternative.predicted:.1f} page read(s)"
            )
    return lines


def explain(db, text: str, analyze: bool = False) -> str:
    """Render the plan for one retrieve statement.

    With ``analyze=True`` the statement is also *executed* under the
    tracer, and the measured span tree -- per-stage wall time and
    per-relation page I/O -- is appended to the narration.  The
    instrumentation only reads the I/O meter, so the page counts shown
    are exactly what an untraced execution of the same statement costs.
    """
    statement = parse_statement(text)
    if not isinstance(statement, ast.RetrieveStmt):
        raise TQuelSemanticError("explain covers retrieve statements")
    analysis = Analyzer(db).analyze_retrieve(statement)
    executor = Executor(db, analysis)

    lines = ["plan:"]
    if executor._asof_period is not None:
        period = executor._asof_period
        if period.is_event:
            when = format_chronon(period.start)
            implicit = "" if analysis.as_of is not None else " (implicit)"
            lines.append(f"  as of {when}{implicit}")
        else:
            lines.append(
                f"  as of {format_chronon(period.start)} through "
                f"{format_chronon(period.stop - 1)}"
            )

    choices: "list[tuple[str, object]]" = []

    def choose(var, bound):
        choice = executor.access_choice(var, bound)
        choices.append((var, choice))
        return choice

    order = list(analysis.var_order)
    if len(order) > 1:
        for var in order:
            if executor._should_detach(var, order):
                source = executor._sources[var]
                own = [
                    conjunct
                    for conjunct in executor._conjuncts
                    if conjunct.vars == frozenset((var,))
                ]
                how = _access_description(executor, var, choose(var, set()))
                lines.append(
                    f"  detach {var} "
                    f"({source.relation.schema.name}) into a temporary "
                    f"via {how} applying {len(own)} one-variable "
                    f"clause(s)"
                )
                source.temp = _PlannedTemporary()
        order = executor._substitution_order(order)

    label = "substitute" if len(order) > 1 else "access"
    for depth, var in enumerate(order):
        bound = set(order[:depth])
        source = executor._sources[var]
        relation_name = (
            f"temporary({var})"
            if isinstance(source.temp, _PlannedTemporary)
            else source.relation.schema.name
        )
        source_temp = source.temp
        if isinstance(source_temp, _PlannedTemporary):
            how = "scan"
        else:
            how = _access_description(executor, var, choose(var, bound))
        lines.append(
            f"  {label} depth {depth}: {var} ({relation_name}) via {how}"
        )

    if analysis.has_aggregates:
        by = next(
            expr.by
            for _, expr, __ in analysis.targets
            if isinstance(expr, ast.Aggregate)
        )
        if by:
            lines.append(f"  aggregate grouped by {len(by)} expression(s)")
        else:
            lines.append("  aggregate into a single row")
    if statement.unique:
        lines.append("  deduplicate result rows")
    if statement.into is not None:
        lines.append(f"  store result into {statement.into}")
    if choices:
        lines.extend(_cost_lines(choices))
    if analyze:
        predicted = None
        if len(analysis.vars) == 1 and len(choices) == 1:
            chosen = choices[0][1].chosen
            if chosen is not None:
                predicted = chosen.predicted
        lines.extend(_measured_lines(db, text, predicted))
    return "\n".join(lines)


def _measured_lines(db, text: str, predicted: "float | None" = None):
    """Execute *text* under the tracer; render the measured span tree."""
    with db.tracer.force():
        result = db.execute(text)
    span = db.tracer.last
    lines = ["measured:"]
    lines.extend("  " + line for line in span.render().split("\n"))
    lines.append(
        f"  result: {len(result.rows)} row(s), input "
        f"{result.input_pages} page(s), output {result.output_pages} "
        f"page(s)"
    )
    if predicted is not None and predicted > 0:
        ratio = result.input_pages / predicted
        lines.append(
            f"  cost model: predicted {predicted:.1f} page read(s), "
            f"actual {result.input_pages} (ratio {ratio:.2f})"
        )
    return lines
