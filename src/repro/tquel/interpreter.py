"""Query execution: Ingres-style decomposition and tuple-at-a-time
interpretation.

The prototype "still us[es] the conventional access methods and query
processing algorithms" of Ingres (Section 4); the benchmark's analysis
(Section 5.3) names them:

* **one-variable queries** run through the one-variable query processor,
  choosing *hashed access*, *ISAM access* or a *sequential scan*;
* **one-variable detachment**: a multi-variable query first detaches each
  variable that has single-variable clauses into a projected temporary
  relation (Q09's scan of the ISAM file "doing selection and projection
  into a temporary relation");
* **tuple substitution**: the remaining variables are bound one tuple at a
  time, innermost access again chosen by the one-variable processor (Q09
  "then performs one hashed access for each ... tuple in the temporary
  relation").

Temporal clause handling follows TQuel:

* ``as of`` (with ``"now"`` as the default when the clause is omitted, per
  TQuel's semantics) filters each transaction-time variable to versions
  whose transaction period overlaps the as-of event;
* ``when`` conjuncts filter on valid periods;
* the ``valid`` clause (or, by default, the intersection of the
  participating valid periods) computes the result's implicit time
  attributes.

Enhanced access paths (Section 6) slot in transparently: when a variable's
constraints restrict it to current versions, a two-level store is read
through its primary store only, and a 2-level secondary index through its
current index only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.catalog.schema import IMPLICIT_ATTRIBUTES
from repro.engine import mutate
from repro.engine.result import Result
from repro.errors import ExecutionError, TQuelSemanticError
from repro.exec.scan import compile_page_fold, merge_partials
from repro.storage.record import AttributeType, FieldSpec
from repro.temporal.chronon import BEGINNING, FOREVER
from repro.temporal.interval import Period
from repro.tquel import ast
from repro.tquel.compile import (
    VarLayout,
    batch_conjunction,
    compile_scalar,
    compile_temporal,
    compile_when,
    conjunction,
    make_asof_filter,
)
from repro.tquel.semantics import Analysis, Conjunct

# Page-at-a-time batch execution is the default; REPRO_BATCH_EXECUTION=0
# falls back to tuple-at-a-time interpretation everywhere (the reference
# path the differential tests compare against).
DEFAULT_BATCH_EXECUTION = os.environ.get("REPRO_BATCH_EXECUTION", "1") != "0"


@dataclass
class _VarSource:
    """Per-variable execution state: where its rows come from."""

    name: str
    relation: object  # StoredRelation / system-relation adapter
    layout: VarLayout
    temp: object = None  # TemporaryRelation once detached
    asof_applied: bool = False
    current_only: bool = False


class Executor:
    """Executes one analyzed statement against a database."""

    def __init__(
        self, database, analysis: Analysis, params: "dict | None" = None,
        plan_key: "tuple | None" = None,
    ):
        self._db = database
        self._analysis = analysis
        self._bindings: "dict[str, tuple]" = {}
        if params:
            # Reserved key: "$" cannot start a range variable, so scalar
            # closures compiled for ast.Param read through it safely.
            self._bindings["$params"] = dict(params)
        self._sources: "dict[str, _VarSource]" = {}
        self._temps = []
        self._conjuncts: "list[Conjunct]" = analysis.where + analysis.when
        self._consumed: "set[int]" = set()
        self._batch = bool(
            getattr(database, "batch_execution", DEFAULT_BATCH_EXECUTION)
        )
        # Cost-based access-path selection (repro.engine.planner): when
        # the database runs with the optimizer on, _candidates defers the
        # keyed/index/scan decision to the planner; plan_key (statement
        # fingerprint + range table + catalog/stats epochs) keys its
        # decision cache.  None leaves the fixed strategy in place.
        self._plan_key = plan_key
        planner = getattr(database, "planner", None)
        self._planner = (
            planner
            if planner is not None
            and getattr(database, "optimizer_enabled", False)
            else None
        )
        self._asof_period = self._resolve_asof()
        for name, info in analysis.vars.items():
            self._sources[name] = _VarSource(
                name=name,
                relation=info.relation,
                layout=VarLayout.for_schema(info.schema),
            )
        for source in self._sources.values():
            source.current_only = self._is_current_only(source)
        # Variable -> layout, shared by every closure compiled for this
        # statement; detachment swaps in the temporary's layout.
        self._layouts: "dict[str, VarLayout]" = {
            name: source.layout for name, source in self._sources.items()
        }

    # -- clause resolution ------------------------------------------------------

    def _resolve_asof(self) -> "Period | None":
        """The statement's as-of period (default: the event at now)."""
        analysis = self._analysis
        any_tx = any(
            info.schema.type.has_transaction_time
            for info in analysis.vars.values()
        )
        if analysis.as_of is None:
            if not any_tx:
                return None
            return Period.event(self._db.statement_now())
        at = self._eval_const_temporal(analysis.as_of.at)
        if analysis.as_of.through is None:
            return at
        through = self._eval_const_temporal(analysis.as_of.through)
        if through.stop <= at.start:
            raise ExecutionError("as-of: 'through' precedes the start event")
        return Period(at.start, through.stop)

    def _eval_const_temporal(self, expr) -> Period:
        fn = compile_temporal(expr, None, {}, {}, self._db)
        period = fn(None)
        if period is None:
            raise ExecutionError("empty period in a constant temporal clause")
        return Period(*period)

    def _is_current_only(self, source: _VarSource) -> bool:
        """Do the constraints restrict *source* to fully-current versions?

        True when the as-of clause resolves to "now" (covering transaction
        time) and, if the relation has valid time, some conjunct demands
        that the variable overlap "now".  This is the condition under which
        Section 6's structures may skip history data.
        """
        schema = source.relation.schema
        # Deliberately the *live* clock, not statement_now(): skipping
        # history is only sound when the as-of point is the newest time
        # that exists -- a session pinned at an older watermark has
        # asof == statement_now() yet must still scan history.
        now = self._db.clock.now()
        if schema.type.has_transaction_time:
            if self._asof_period is None or not (
                self._asof_period.start == now
                and self._asof_period.is_event
            ):
                return False
        if schema.type.has_valid_time:
            if not any(
                self._conjunct_is_overlap_now(conjunct, source.name)
                for conjunct in self._conjuncts
            ):
                return False
        return True

    def _conjunct_is_overlap_now(self, conjunct: Conjunct, var: str) -> bool:
        node = conjunct.expr
        if not (isinstance(node, ast.TempBin) and node.op == "overlap"):
            return False
        operands = (node.left, node.right)
        has_var = any(
            isinstance(op, ast.TempVar) and op.var == var for op in operands
        )
        # The live clock: "now" constants in statement text are parsed
        # against it, so the comparison must use the same value.
        now = self._db.clock.now()
        has_now = any(
            isinstance(op, ast.TempConst)
            and self._db.parse_temporal_text(op.text) == now
            for op in operands
        )
        return has_var and has_now

    # -- compilation helpers ----------------------------------------------------------

    def _compile_conjunct(self, conjunct: Conjunct, var: "str | None"):
        if conjunct.is_temporal:
            return compile_when(
                conjunct.expr, var, self._layouts, self._bindings, self._db
            )
        return compile_scalar(
            conjunct.expr, var, self._layouts, self._bindings
        )

    def _pending_filter_list(self, var: str, bound: "set[str]"):
        """Compile conjuncts evaluable once *var* joins the bound set.

        A conjunct applies at the first loop depth where all its variables
        are bound; constant-only conjuncts apply at the outermost loop.
        Consumes each applicable conjunct (and the variable's as-of
        filter), so call exactly once per (var, depth).  The as-of
        filter goes first: two compares that reject every version the
        as-of event cannot see before any conjunct runs.
        """
        source = self._sources[var]
        filters = []
        if (
            not source.asof_applied
            and self._asof_period is not None
            and source.layout.tx is not None
        ):
            filters.append(make_asof_filter(source.layout, self._asof_period))
            source.asof_applied = True
        available = bound | {var}
        for index, conjunct in enumerate(self._conjuncts):
            if index in self._consumed:
                continue
            if conjunct.vars <= available:
                filters.append(self._compile_conjunct(conjunct, var))
                self._consumed.add(index)
        return filters

    def _pending_filters(self, var: str, bound: "set[str]"):
        """The variable's pending conjuncts fused into ``fn(row) -> bool``."""
        return conjunction(self._pending_filter_list(var, bound))

    # -- access-path selection --------------------------------------------------------

    def _find_key_equality(self, var: str, bound: "set[str]"):
        """A ``var.attr = expr(bound)`` conjunct usable for keyed access.

        Returns ``(attribute_position, value_closure)`` or ``None``.
        """
        source = self._sources[var]
        for conjunct in self._conjuncts:
            if conjunct.is_temporal:
                continue
            node = conjunct.expr
            if not (isinstance(node, ast.Compare) and node.op == "="):
                continue
            if not conjunct.vars <= bound | {var}:
                continue
            for attr_side, value_side in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                if not (
                    isinstance(attr_side, ast.Attr) and attr_side.var == var
                ):
                    continue
                value_vars = _expr_vars(value_side)
                if var in value_vars:
                    continue
                position = source.layout.positions.get(attr_side.name)
                if position is None:
                    continue
                value_fn = compile_scalar(
                    value_side, None, self._layouts, self._bindings
                )
                yield position, value_fn

    def _scan_asof_max(self, var: str) -> "int | None":
        """Upper as-of bound a sequential scan may prune against (zone
        maps, partition tx_min), or None without one."""
        source = self._sources[var]
        if (
            self._asof_period is not None
            and source.layout.tx is not None
        ):
            return self._asof_period.stop - 1
        return None

    def access_choice(self, var: str, bound: "set[str]"):
        """The planner's decision for *var*, or None when the optimizer
        is off or the variable reads a temporary (always scanned)."""
        if self._planner is None or self._sources[var].temp is not None:
            return None
        return self._planner.choose(self, var, bound, self._plan_key)

    def _planned_source(self, choice, var: str, bound: "set[str]",
                        batch: bool, ahead: bool = False):
        """Build the row source the planner chose.

        Key-equality value closures are re-resolved here (decisions are
        cached across executions; closures are not).  Falls through to a
        sequential scan, the always-feasible path.  *ahead* as in
        :meth:`_batch_candidates`.
        """
        source = self._sources[var]
        relation = source.relation
        current_only = source.current_only
        if choice.kind == "keyed":
            for position, value_fn in self._find_key_equality(var, bound):
                if position != choice.position:
                    continue
                if batch:
                    return lambda vf=value_fn: relation.lookup_batches(
                        vf(None), current_only, ahead
                    )
                return lambda vf=value_fn: _lookup_with_rids(
                    relation, vf(None), current_only
                )
        elif choice.kind == "index":
            for position, value_fn in self._find_key_equality(var, bound):
                if position != choice.position:
                    continue
                index = relation.index_for(position)
                if index is None or index.name != choice.index_name:
                    continue
                if batch:
                    return lambda idx=index, vf=value_fn: _index_batches(
                        relation, idx, vf(None), current_only
                    )
                return lambda idx=index, vf=value_fn: _index_with_rids(
                    relation, idx, vf(None), current_only
                )
        asof_max = self._scan_asof_max(var)
        if batch:
            if choice.gather is not None and getattr(
                relation, "is_partitioned", False
            ):
                return lambda: relation.scan_batches(
                    current_only=current_only, asof_max=asof_max,
                    gather=choice.gather, ahead=ahead,
                )
            return lambda: relation.scan_batches(
                current_only, asof_max, ahead=ahead
            )
        return lambda: _scan_with_rids(relation, current_only, asof_max)

    def _candidates(self, var: str, bound: "set[str]"):
        """Build the row source for *var*: a zero-argument callable yielding
        ``(rid, row)`` pairs, re-evaluated for each outer binding."""
        source = self._sources[var]
        if source.temp is not None:
            temp = source.temp
            return lambda: _with_rids(temp.scan())
        choice = self.access_choice(var, bound)
        if choice is not None:
            return self._planned_source(choice, var, bound, batch=False)
        relation = source.relation
        current_only = source.current_only
        # 1. keyed access on the primary structure
        for position, value_fn in self._find_key_equality(var, bound):
            if relation.can_key_lookup(position):
                return lambda vf=value_fn: _lookup_with_rids(
                    relation, vf(None), current_only
                )
        # 2. secondary-index access
        for position, value_fn in self._find_key_equality(var, bound):
            index = relation.index_for(position)
            if index is not None:
                return lambda idx=index, vf=value_fn: _index_with_rids(
                    relation, idx, vf(None), current_only
                )
        # 3. sequential scan (a zone map may skip pages recorded after
        # the as-of event)
        asof_max = self._scan_asof_max(var)
        return lambda: _scan_with_rids(relation, current_only, asof_max)

    def _batch_candidates(self, var: str, bound: "set[str]", ahead: bool):
        """Batched row source for *var*: a zero-argument callable yielding
        per-page row batches.

        Chooses the same access path as :meth:`_candidates` and reads the
        same pages in the same order.  With *ahead* (nothing deeper in the
        plan reads what *var* reads) a scan range or chain is fetched as
        one metered run; without it each batch is yielded before the next
        page is fetched, so interleaved accounting (self-joins over one
        file) matches the tuple-at-a-time path exactly.
        """
        source = self._sources[var]
        if source.temp is not None:
            temp = source.temp
            return lambda: temp.scan_batches(ahead)
        choice = self.access_choice(var, bound)
        if choice is not None:
            return self._planned_source(choice, var, bound, True, ahead)
        relation = source.relation
        current_only = source.current_only
        # 1. keyed access on the primary structure
        for position, value_fn in self._find_key_equality(var, bound):
            if relation.can_key_lookup(position):
                return lambda vf=value_fn: relation.lookup_batches(
                    vf(None), current_only, ahead
                )
        # 2. secondary-index access (point reads stay single-row batches)
        for position, value_fn in self._find_key_equality(var, bound):
            index = relation.index_for(position)
            if index is not None:
                return lambda idx=index, vf=value_fn: _index_batches(
                    relation, idx, vf(None), current_only
                )
        # 3. sequential scan (zone map applies as in _candidates)
        asof_max = self._scan_asof_max(var)
        return lambda: relation.scan_batches(
            current_only, asof_max, ahead=ahead
        )

    # -- detachment ----------------------------------------------------------------------

    def _detach(self, var: str) -> None:
        """One-variable detachment: select+project *var* into a temporary."""
        source = self._sources[var]
        needed = self._needed_attributes(var)
        schema = source.relation.schema
        fields = [
            spec
            for spec in schema.fields
            if spec.name in needed or spec.name in IMPLICIT_ATTRIBUTES
        ]
        positions = [schema.position(spec.name) for spec in fields]
        temp = self._db.temporaries.create(fields)
        if self._batch:
            predicate = batch_conjunction(
                self._pending_filter_list(var, bound=set())
            )
            append = temp.append
            for batch in self._batch_candidates(var, set(), ahead=True)():
                for row in predicate(batch):
                    append(tuple(row[i] for i in positions))
        else:
            predicate = self._pending_filters(var, bound=set())
            produce = self._candidates(var, bound=set())
            for _, row in produce():
                if predicate(row):
                    temp.append(tuple(row[i] for i in positions))
        temp.finish_writing()
        source.temp = temp
        source.layout = self._layouts[var] = VarLayout.for_fields(fields)
        self._temps.append(temp)

    def _needed_attributes(self, var: str) -> "set[str]":
        """Attributes of *var* referenced outside its detached conjuncts."""
        analysis = self._analysis
        needed: "set[str]" = set()
        for _, expr, __ in analysis.targets:
            needed |= _attrs_of(expr, var)
        for index, conjunct in enumerate(self._conjuncts):
            if index in self._consumed:
                continue
            if var in conjunct.vars:
                needed |= _attrs_of(conjunct.expr, var)
        if analysis.valid is not None:
            for expr in (analysis.valid.at, analysis.valid.from_, analysis.valid.to):
                if expr is not None:
                    needed |= _attrs_of(expr, var)
        return needed

    # -- retrieve -----------------------------------------------------------------------------

    def run_retrieve(self) -> Result:
        analysis = self._analysis
        stmt = analysis.statement
        order = list(analysis.var_order)

        # One-variable detachment for variables with single-variable clauses.
        detached = 0
        if len(order) > 1:
            for var in order:
                if self._should_detach(var, order):
                    self._detach(var)
                    detached += 1
            order = self._substitution_order(order)
        metrics = getattr(self._db, "metrics", None)
        if metrics is not None:
            metrics.inc("executor.detachments", detached)
            metrics.observe("statement.detachments", detached)

        layouts = self._layouts
        columns = [name for name, _, __ in analysis.targets]

        if analysis.has_aggregates:
            return self._run_aggregates(order, layouts, columns)

        target_fns = [
            compile_scalar(expr, None, layouts, self._bindings)
            for _, expr, __ in analysis.targets
        ]

        valid_mode, valid_fn = self._result_valid(layouts)
        if valid_mode == "interval":
            columns = columns + ["valid_from", "valid_to"]
        elif valid_mode == "event":
            columns = columns + ["valid_at"]

        rows: "list[tuple]" = []

        def emit():
            values = tuple(fn(None) for fn in target_fns)
            if valid_mode == "none":
                rows.append(values)
                return
            period = valid_fn()
            if period is None:
                return
            if valid_mode == "interval":
                rows.append(values + period)
            else:
                rows.append(values + (period[0],))

        self._execute_join(order, emit)

        if stmt.unique:
            seen = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows

        if stmt.coalesced:
            if valid_mode != "interval":
                raise TQuelSemanticError(
                    "'coalesced' needs an interval result (valid time)"
                )
            from repro.temporal.coalesce import coalesce_rows

            rows = coalesce_rows(rows, len(analysis.targets))

        for temp in self._temps:
            temp.drop()

        if stmt.into is not None:
            count = self._store_into(stmt.into, columns, rows, valid_mode)
            return Result(kind="retrieve into", count=count, columns=columns)
        return Result(
            kind="retrieve", columns=columns, rows=rows, count=len(rows)
        )

    def _run_aggregates(self, order, layouts, columns) -> Result:
        """Aggregates: fold the qualifying tuples into one row, or one row
        per group when the aggregates carry a by-list.

        The result is a snapshot (no implicit time attributes), like
        Quel's aggregate results.
        """
        analysis = self._analysis
        targets = analysis.targets
        by_list = next(
            expr.by
            for _, expr, __ in targets
            if isinstance(expr, ast.Aggregate)
        )
        if not by_list:
            kernel = self._kernel_aggregate(order)
            if kernel is not None:
                for temp in self._temps:
                    temp.drop()
                rows = [tuple(kernel)]
                stmt = analysis.statement
                if stmt.into is not None:
                    count = self._store_into(
                        stmt.into, columns, rows, "none"
                    )
                    return Result(
                        kind="retrieve into", count=count, columns=columns
                    )
                return Result(
                    kind="retrieve", columns=columns, rows=rows, count=1
                )

        group_fns = [
            compile_scalar(expr, None, layouts, self._bindings)
            for expr in by_list
        ]
        # Per target: ("group", position in by-list) for plain targets,
        # ("agg", slot, Aggregate) for aggregates accumulating into a slot.
        plan = []
        operand_fns = []
        for _, expr, __ in targets:
            if isinstance(expr, ast.Aggregate):
                plan.append(("agg", len(operand_fns), expr))
                operand_fns.append(
                    compile_scalar(
                        expr.operand, None, layouts, self._bindings
                    )
                )
            else:
                plan.append(("group", list(by_list).index(expr), None))

        groups: "dict[tuple, list[list]]" = {}

        def emit():
            key = tuple(fn(None) for fn in group_fns)
            states = groups.get(key)
            if states is None:
                states = [[] for _ in operand_fns]
                groups[key] = states
            for state, fn in zip(states, operand_fns):
                state.append(fn(None))

        self._execute_join(order, emit)
        for temp in self._temps:
            temp.drop()

        if not by_list and not groups:
            groups[()] = [[] for _ in operand_fns]

        rows = []
        for key, states in groups.items():
            row = []
            for kind, slot, agg in plan:
                if kind == "group":
                    row.append(key[slot])
                    continue
                row.append(_fold_aggregate(agg, states[slot]))
            rows.append(tuple(row))

        stmt = analysis.statement
        if stmt.into is not None:
            count = self._store_into(stmt.into, columns, rows, "none")
            return Result(kind="retrieve into", count=count, columns=columns)
        return Result(
            kind="retrieve", columns=columns, rows=rows, count=len(rows)
        )

    # Integer-valued attribute types whose sums are order-independent
    # (float accumulation order differs between serial and scattered
    # folds, so sum/avg over floats stay on the interpreter).
    _KERNEL_SUM_TYPES = (
        AttributeType.I1,
        AttributeType.I2,
        AttributeType.I4,
        AttributeType.TIME,
    )
    _FLIPPED_OPS = {
        "=": "=",
        "!=": "!=",
        "<": ">",
        "<=": ">=",
        ">": "<",
        ">=": "<=",
    }

    def _kernel_aggregate(self, order) -> "list | None":
        """Push an ungrouped aggregate to the partition scan kernel.

        When the single variable ranges over a process-parallel
        partitioned relation and every target and conjunct translates to
        the kernel's position-level specs, the whole fold runs as a
        scatter-gather over raw page images -- same rows, same page
        accounting, no per-row interpretation.  Returns the final target
        values, or None when the statement must run on the interpreter.
        """
        if len(order) != 1 or not self._batch:
            return None
        var = order[0]
        source = self._sources[var]
        if source.temp is not None:
            return None
        relation = source.relation
        if not getattr(relation, "is_partitioned", False):
            return None
        if not relation.kernel_eligible():
            return None
        for position, _ in self._find_key_equality(var, set()):
            # Only bail when the interpreter would actually take a keyed
            # path instead of this full scan.
            if (
                relation.can_key_lookup(position)
                or relation.index_for(position) is not None
            ):
                return None
        layout = source.layout
        schema = relation.schema
        aggs = []
        for _, expr, __ in self._analysis.targets:
            if not isinstance(expr, ast.Aggregate):
                return None
            operand = expr.operand
            if not (isinstance(operand, ast.Attr) and operand.var == var):
                return None
            position = layout.positions.get(operand.name)
            if position is None:
                return None
            attr_type = schema.fields[position].type
            if expr.func in ("sum", "avg"):
                if attr_type not in self._KERNEL_SUM_TYPES:
                    return None
            elif expr.func in ("min", "max"):
                if not (
                    attr_type.is_numeric or attr_type is AttributeType.TIME
                ):
                    return None
            aggs.append((expr.func, position))
        filters = []
        for conjunct in self._conjuncts:
            if conjunct.is_temporal or not conjunct.vars <= {var}:
                return None
            spec = self._kernel_filter_spec(conjunct.expr, var, layout)
            if spec is None:
                return None
            filters.append(spec)
        asof_max = None
        if self._asof_period is not None and layout.tx is not None:
            tx_start, tx_stop = layout.tx
            filters.append(
                (
                    "asof",
                    tx_start,
                    tx_stop,
                    self._asof_period.start,
                    self._asof_period.stop,
                )
            )
            asof_max = self._asof_period.stop - 1
        try:
            compile_page_fold(filters, aggs)  # validate before scattering
        except ValueError:
            return None
        metrics = getattr(self._db, "metrics", None)
        if metrics is not None:
            metrics.inc("partition.kernel_pushdown")
        results = relation.partition_aggregate(filters, aggs, asof_max)
        merged = merge_partials(aggs, results)
        return [
            self._finish_partial(func, partial)
            for (func, _), partial in zip(aggs, merged)
        ]

    def _kernel_filter_spec(self, node, var: str, layout) -> "tuple | None":
        """Translate one conjunct into a kernel ``cmp`` spec, if possible."""
        if not isinstance(node, ast.Compare):
            return None
        for attr_side, const_side, op in (
            (node.left, node.right, node.op),
            (node.right, node.left, self._FLIPPED_OPS.get(node.op)),
        ):
            if op is None:
                continue
            if not (
                isinstance(attr_side, ast.Attr) and attr_side.var == var
            ):
                continue
            if not isinstance(const_side, ast.Const):
                return None
            position = layout.positions.get(attr_side.name)
            if position is None:
                return None
            return ("cmp", position, op, const_side.value)
        return None

    @staticmethod
    def _finish_partial(func: str, partial):
        """Turn a merged kernel partial into the aggregate's final value,
        with :func:`_fold_aggregate`'s empty-result semantics."""
        if func == "count":
            return partial if partial is not None else 0
        if func == "sum":
            return partial if partial is not None else 0
        if func == "avg":
            if partial is None or not partial[1]:
                raise ExecutionError("avg() over an empty result")
            total, count = partial
            return total / count
        if partial is None:
            raise ExecutionError(f"{func}() over an empty result")
        return partial

    def _build_plan(self, order: "list[str]") -> list:
        """Per-depth (variable, row source, filter) triples, compiled once.

        Filters and access paths are fixed per loop depth; only the value
        closures read the changing outer bindings.
        """
        plan = []
        for depth, var in enumerate(order):
            bound = set(order[:depth])
            produce = self._candidates(var, bound)
            predicate = self._pending_filters(var, bound)
            plan.append((var, produce, predicate))
        return plan

    def _build_batch_plan(self, order: "list[str]") -> list:
        """Like :meth:`_build_plan`, with batched sources and each depth's
        conjuncts fused into one per-batch predicate.

        A depth may fetch its pages as runs only when no deeper depth
        reads the same relation (or temporary): a deeper read of that
        file between two of its batches would see a different pool.
        """
        reads = [
            source.temp if source.temp is not None else source.relation
            for source in (self._sources[var] for var in order)
        ]
        plan = []
        for depth, var in enumerate(order):
            bound = set(order[:depth])
            ahead = all(
                deeper is not reads[depth] for deeper in reads[depth + 1:]
            )
            produce = self._batch_candidates(var, bound, ahead)
            predicate = batch_conjunction(
                self._pending_filter_list(var, bound)
            )
            plan.append((var, produce, predicate))
        return plan

    def _execute_join(self, order: "list[str]", emit) -> None:
        """Run the nested-loop join over *order*, batched when enabled."""
        if self._batch:
            self._join_batches(self._build_batch_plan(order), 0, emit)
        else:
            self._join(self._build_plan(order), 0, emit)

    def _join(self, plan, depth, emit) -> None:
        if depth == len(plan):
            emit()
            return
        var, produce, predicate = plan[depth]
        bindings = self._bindings
        if depth == len(plan) - 1:
            for _, row in produce():
                if predicate(row):
                    bindings[var] = row
                    emit()
        else:
            for _, row in produce():
                if predicate(row):
                    bindings[var] = row
                    self._join(plan, depth + 1, emit)
        bindings.pop(var, None)

    def _join_batches(self, plan, depth, emit) -> None:
        """Batched nested loops: each depth filters a whole page batch in
        one predicate call, then binds the survivors one by one.

        The page backing a batch is read when the batch is produced --
        before any inner-depth reads for its rows -- which is exactly when
        the tuple-at-a-time loop reads it (on the page's first row).
        """
        if depth == len(plan):
            emit()
            return
        var, produce, predicate = plan[depth]
        bindings = self._bindings
        if depth == len(plan) - 1:
            for batch in produce():
                for row in predicate(batch):
                    bindings[var] = row
                    emit()
        else:
            for batch in produce():
                for row in predicate(batch):
                    bindings[var] = row
                    self._join_batches(plan, depth + 1, emit)
        bindings.pop(var, None)

    def _should_detach(self, var: str, order: "list[str]") -> bool:
        """Whether one-variable detachment applies to *var*.

        A variable detaches when it has single-variable clauses -- except
        when those clauses are all temporal (``x overlap "now"``) and the
        variable can be probed through its primary key during tuple
        substitution.  Detaching such a variable would replace Q09's "one
        hashed access for each tuple in the temporary relation" with a
        quadratic temporary-x-temporary join; the prototype keeps the
        keyed relation as the substitution target.
        """
        own = [
            conjunct
            for conjunct in self._conjuncts
            if conjunct.vars == frozenset((var,))
        ]
        if not own:
            return False
        if all(conjunct.is_temporal for conjunct in own):
            others = {name for name in order if name != var}
            source = self._sources[var]
            for position, _ in self._find_key_equality(var, others):
                if source.relation.can_key_lookup(position):
                    return False
        return True

    def _substitution_order(self, order: "list[str]") -> "list[str]":
        """Tuple-substitution order.

        Detached temporaries go first (they are the small relations the
        prototype substitutes from); the remaining variables are ordered
        greedily so that inner variables get keyed access paths -- the
        choice that makes Q09 "one hashed access for each tuple in the
        temporary relation" rather than a quadratic scan.  Ties keep the
        statement's first-reference order.
        """
        temps = [v for v in order if self._sources[v].temp is not None]
        remaining = [v for v in order if self._sources[v].temp is None]
        result = list(temps)
        while remaining:
            best = None
            best_score = -1
            for candidate in remaining:
                bound = set(result) | {candidate}
                score = sum(
                    1
                    for other in remaining
                    if other != candidate
                    and self._has_keyed_path(other, bound)
                )
                if score > best_score:
                    best, best_score = candidate, score
            result.append(best)
            remaining.remove(best)
        return result

    def _has_keyed_path(self, var: str, bound: "set[str]") -> bool:
        """Whether *var* could be accessed by key/index given *bound*."""
        source = self._sources[var]
        if source.temp is not None:
            return False
        for position, _ in self._find_key_equality(var, bound - {var}):
            if source.relation.can_key_lookup(position):
                return True
            if source.relation.index_for(position) is not None:
                return True
        return False

    def _result_valid(self, layouts):
        """How the result's implicit time attributes are computed.

        Returns ``(mode, fn)`` where mode is ``"none"``, ``"interval"`` or
        ``"event"`` and ``fn()`` yields the per-tuple ``(start, stop)``
        period (or ``None`` to drop the tuple, when the default
        intersection is empty).
        """
        analysis = self._analysis
        valid = analysis.valid
        if valid is not None:
            if valid.at is not None:
                at_fn = compile_temporal(
                    valid.at, None, layouts, self._bindings, self._db
                )
                return "event", lambda: at_fn(None)
            from_fn = compile_temporal(
                valid.from_, None, layouts, self._bindings, self._db
            )
            to_fn = compile_temporal(
                valid.to, None, layouts, self._bindings, self._db
            )

            def interval_fn():
                start = from_fn(None)
                stop = to_fn(None)
                if start is None or stop is None:
                    return None
                if stop[1] <= start[0]:
                    return None
                return (start[0], stop[1])

            return "interval", interval_fn

        valid_vars = [
            name
            for name, source in self._sources.items()
            if source.layout.valid is not None
            or source.layout.valid_at is not None
        ]
        if not valid_vars:
            return "none", None
        periods = [
            (name, self._sources[name].layout.valid_period)
            for name in valid_vars
        ]
        bindings = self._bindings
        if len(periods) == 1:
            [(name, valid_period)] = periods
            return "interval", lambda: valid_period(bindings[name])

        def default_fn():
            start, stop = BEGINNING, FOREVER
            for name, valid_period in periods:
                own_start, own_stop = valid_period(bindings[name])
                start = max(start, own_start)
                stop = min(stop, own_stop)
                if stop <= start:
                    return None
            return (start, stop)

        return "interval", default_fn

    def _store_into(self, name, columns, rows, valid_mode) -> int:
        analysis = self._analysis
        fields = [
            FieldSpec(col, spec.type, spec.width)
            for (col, (_, __, spec)) in zip(
                columns[: len(analysis.targets)], analysis.targets
            )
        ]
        timed = "interval" if valid_mode == "interval" else (
            "event" if valid_mode == "event" else None
        )
        relation = self._db.create_relation(
            name, [(f.name, f.type_text) for f in fields], kind=timed
        )
        mutate.load_rows(relation, rows, self._db.statement_now())
        relation.storage.file.flush()
        return len(rows)

    # -- updates --------------------------------------------------------------------------------

    def _collect_targets(self, target_var: str):
        """Join all variables, collecting matching (rid, row) pairs of the
        update's target variable (first match per rid wins)."""
        analysis = self._analysis
        order = [target_var] + [
            name for name in analysis.var_order if name != target_var
        ]
        collected: "dict[object, tuple]" = {}
        current_rid = {}

        def emit():
            rid = current_rid["value"]
            if rid not in collected:
                collected[rid] = (
                    rid,
                    self._bindings[target_var],
                    {
                        name: self._bindings[name]
                        for name in analysis.var_order
                    },
                )

        self._join_tracking(
            self._build_plan(order), 0, emit, target_var, current_rid
        )
        return list(collected.values())

    def _join_tracking(self, plan, depth, emit, target_var, current_rid):
        if depth == len(plan):
            emit()
            return
        var, produce, predicate = plan[depth]
        for rid, row in produce():
            if predicate(row):
                self._bindings[var] = row
                if var == target_var:
                    current_rid["value"] = rid
                self._join_tracking(
                    plan, depth + 1, emit, target_var, current_rid
                )
        self._bindings.pop(var, None)

    def run_delete(self) -> Result:
        stmt = self._analysis.statement
        relation = self._sources[stmt.var].relation
        self._require_mutable(relation)
        targets = [
            (rid, row) for rid, row, _ in self._collect_targets(stmt.var)
        ]
        now = self._db.statement_now()
        count = mutate.apply_delete(relation, targets, now)
        self._db.pool.flush_statement()
        return Result(kind="delete", count=count)

    def run_replace(self) -> Result:
        analysis = self._analysis
        stmt = analysis.statement
        relation = self._sources[stmt.var].relation
        self._require_mutable(relation)
        schema = relation.schema
        layouts = self._layouts

        collected = self._collect_targets(stmt.var)
        # Evaluate assignments while bindings are known, per target.
        assignments = {}
        valid_specs = {}
        assign_fns = [
            (schema.position(name), compile_scalar(
                expr, stmt.var, layouts, self._bindings
            ))
            for name, expr, _ in analysis.targets
        ]
        valid_fns = self._valid_spec_fns(layouts, stmt.var)
        params = self._bindings.get("$params")
        for rid, row, binding_snapshot in collected:
            self._bindings.update(binding_snapshot)
            new_user = list(row[: schema.user_count])
            for position, fn in assign_fns:
                value = fn(row)
                if isinstance(value, float) and (
                    schema.fields[position].type.value.startswith("i")
                ):
                    value = int(value)
                new_user[position] = value
            assignments[rid] = tuple(new_user)
            valid_specs[rid] = valid_fns(row)
            self._bindings.clear()
            if params is not None:
                self._bindings["$params"] = params

        now = self._db.statement_now()
        count = mutate.apply_replace(
            relation,
            [(rid, row) for rid, row, _ in collected],
            lambda rid, row: assignments[rid],
            now,
            valid_for=lambda rid, row: valid_specs[rid],
        )
        self._db.pool.flush_statement()
        return Result(kind="replace", count=count)

    def run_append(self) -> Result:
        analysis = self._analysis
        stmt = analysis.statement
        relation = self._db.relation(stmt.relation)
        self._require_mutable(relation)
        schema = relation.schema
        layouts = self._layouts
        assigned = {name: expr for name, expr, _ in analysis.targets}
        value_fns = []
        for spec in schema.user_fields:
            if spec.name in assigned:
                value_fns.append(
                    compile_scalar(
                        assigned[spec.name], None, layouts, self._bindings
                    )
                )
            else:
                default = "" if spec.type.value == "c" else 0
                value_fns.append(lambda row, d=default: d)
        valid_fns = self._valid_spec_fns(layouts, None)

        produced: "list[tuple]" = []

        def emit():
            produced.append(
                (
                    tuple(fn(None) for fn in value_fns),
                    valid_fns(None),
                )
            )

        if analysis.var_order:
            self._execute_join(list(analysis.var_order), emit)
        else:
            emit()

        now = self._db.statement_now()
        count = 0
        for user_values, valid_spec in produced:
            count += mutate.apply_append(
                relation, [user_values], now, valid_spec
            )
        self._db.pool.flush_statement()
        return Result(kind="append", count=count)

    def _valid_spec_fns(self, layouts, var):
        """Build ``fn(row) -> ValidSpec`` from the statement's valid clause."""
        valid = self._analysis.valid
        if valid is None:
            return lambda row: mutate.NO_VALID
        if valid.at is not None:
            at_fn = compile_temporal(
                valid.at, var, layouts, self._bindings, self._db
            )

            def at_spec(row):
                period = at_fn(row)
                if period is None:
                    raise ExecutionError("empty 'valid at' period")
                return mutate.ValidSpec(valid_at=period[0])

            return at_spec
        from_fn = compile_temporal(
            valid.from_, var, layouts, self._bindings, self._db
        )
        to_fn = compile_temporal(
            valid.to, var, layouts, self._bindings, self._db
        )

        def interval_spec(row):
            start = from_fn(row)
            stop = to_fn(row)
            if start is None or stop is None:
                raise ExecutionError("empty period in valid clause")
            if stop[1] <= start[0]:
                raise ExecutionError(
                    "valid clause: 'to' precedes 'from'"
                )
            return mutate.ValidSpec(valid_from=start[0], valid_to=stop[1])

        return interval_spec

    def _require_mutable(self, relation) -> None:
        if getattr(relation, "read_only", False):
            raise TQuelSemanticError(
                f"{relation.schema.name} is a system relation and cannot "
                "be modified"
            )


# -- helpers ------------------------------------------------------------------------


def _fold_aggregate(agg, state: list):
    """Fold one aggregate's accumulated operand values."""
    if agg.func == "count":
        return len(state)
    if agg.func == "sum":
        return sum(state) if state else 0
    if agg.func == "avg":
        if not state:
            raise ExecutionError("avg() over an empty result")
        return sum(state) / len(state)
    if not state:
        raise ExecutionError(f"{agg.func}() over an empty result")
    return min(state) if agg.func == "min" else max(state)


def _expr_vars(node) -> "set[str]":
    found: "set[str]" = set()

    def walk(n):
        if isinstance(n, ast.Attr):
            if n.var is not None:
                found.add(n.var)
        elif isinstance(n, (ast.BinOp, ast.Compare)):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, ast.UnaryOp):
            walk(n.operand)
        elif isinstance(n, ast.BoolOp):
            for operand in n.operands:
                walk(operand)
        elif isinstance(n, ast.NotOp):
            walk(n.operand)
        elif isinstance(n, ast.TempVar):
            found.add(n.var)
        elif isinstance(n, ast.TempEdge):
            walk(n.operand)
        elif isinstance(n, ast.TempBin):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, ast.Aggregate):
            walk(n.operand)
            for by_expr in n.by:
                walk(by_expr)

    walk(node)
    return found


def _attrs_of(node, var: str) -> "set[str]":
    """User/implicit attribute names of *var* referenced by *node*."""
    found: "set[str]" = set()

    def walk(n):
        if isinstance(n, ast.Attr):
            if n.var == var:
                found.add(n.name)
        elif isinstance(n, (ast.BinOp, ast.Compare, ast.TempBin)):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (ast.UnaryOp, ast.NotOp)):
            walk(n.operand)
        elif isinstance(n, ast.TempEdge):
            walk(n.operand)
        elif isinstance(n, ast.Aggregate):
            walk(n.operand)
            for by_expr in n.by:
                walk(by_expr)
        elif isinstance(n, ast.BoolOp):
            for operand in n.operands:
                walk(operand)

    walk(node)
    return found


def _with_rids(rows):
    for index, row in enumerate(rows):
        yield index, row


def _scan_with_rids(relation, current_only, asof_max=None):
    yield from relation.scan_with_rids(
        current_only=current_only, asof_max=asof_max
    )


def _lookup_with_rids(relation, key, current_only):
    yield from relation.lookup_with_rids(key, current_only=current_only)


def _index_with_rids(relation, index, value, current_only):
    seen = set()
    for tid in index.search(value, current_only=current_only):
        if tid in seen:
            continue
        seen.add(tid)
        yield relation.rid_from_tid(tid), relation.read_tid(tid)


def _index_batches(relation, index, value, current_only):
    """Secondary-index probes as single-row batches (each tid resolves to
    one scattered data-page read, so there is nothing to batch)."""
    for _, row in _index_with_rids(relation, index, value, current_only):
        yield [row]
