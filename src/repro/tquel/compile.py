"""Compilation of expression ASTs into Python closures.

The prototype's one-variable query processor interprets qualifications
tuple-by-tuple; here each expression compiles once per statement execution
into a closure evaluated per tuple -- the hot path of every scan.

A closure is built relative to:

* ``var``       -- the *loop variable*: its attributes read from the closure's
  row argument;
* ``layouts``   -- per-variable :class:`VarLayout` mapping attribute names to
  tuple positions (relations and temporaries share this shape);
* ``bindings``  -- a mutable dict the interpreter updates as outer loops bind
  variables; closures for non-loop variables read through it.

Temporal string constants (including ``"now"``) resolve against the
database clock at compile time, i.e. once per statement execution, matching
the prototype where a statement executes at one instant.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.errors import ExecutionError, TQuelSemanticError
from repro.temporal.chronon import FOREVER
from repro.temporal.interval import Period
from repro.tquel import ast

# id(schema) -> its VarLayout.  Executor construction runs per statement
# (the prepared-statement hot path), while a relation's schema and field
# order are fixed for its lifetime, so the layout is computed once per
# schema object.  Keyed by id because RelationSchema is an unhashable
# dataclass; a finalizer evicts the entry when the schema is collected,
# before its id can be reused.
_LAYOUTS_BY_SCHEMA: "dict[int, VarLayout]" = {}


@dataclass(frozen=True)
class VarLayout:
    """Where a variable's attributes live inside its row tuples."""

    positions: "dict[str, int]"
    tx: "tuple[int, int] | None" = None  # (transaction_start, transaction_stop)
    valid: "tuple[int, int] | None" = None  # (valid_from, valid_to)
    valid_at: "int | None" = None

    @classmethod
    def for_schema(cls, schema) -> "VarLayout":
        key = id(schema)
        layout = _LAYOUTS_BY_SCHEMA.get(key)
        if layout is not None:
            return layout
        positions = {
            spec.name: index for index, spec in enumerate(schema.fields)
        }
        tx = None
        if schema.type.has_transaction_time:
            tx = (positions["transaction_start"], positions["transaction_stop"])
        valid = None
        valid_at = None
        if schema.type.has_valid_time:
            if "valid_at" in positions:
                valid_at = positions["valid_at"]
            else:
                valid = (positions["valid_from"], positions["valid_to"])
        layout = cls(positions=positions, tx=tx, valid=valid, valid_at=valid_at)
        _LAYOUTS_BY_SCHEMA[key] = layout
        weakref.finalize(schema, _LAYOUTS_BY_SCHEMA.pop, key, None)
        return layout

    @classmethod
    def for_fields(cls, fields) -> "VarLayout":
        """Layout of a temporary relation carrying copied time attributes."""
        positions = {spec.name: index for index, spec in enumerate(fields)}
        tx = None
        if "transaction_start" in positions:
            tx = (positions["transaction_start"], positions["transaction_stop"])
        valid = None
        valid_at = positions.get("valid_at")
        if "valid_from" in positions:
            valid = (positions["valid_from"], positions["valid_to"])
        return cls(positions=positions, tx=tx, valid=valid, valid_at=valid_at)

    def valid_period(self, row: tuple) -> "tuple[int, int]":
        """The row's valid time as a ``(start, stop)`` pair, normalised
        as :class:`Period` would be: a degenerate one is its start event."""
        if self.valid is not None:
            start = row[self.valid[0]]
            stop = row[self.valid[1]]
            return (start, stop) if stop > start else _event(start)
        if self.valid_at is not None:
            return _event(row[self.valid_at])
        raise ExecutionError("variable has no valid time")

    def tx_period(self, row: tuple) -> "tuple[int, int]":
        """The row's transaction time as a ``(start, stop)`` pair."""
        if self.tx is None:
            raise ExecutionError("variable has no transaction time")
        start = row[self.tx[0]]
        stop = row[self.tx[1]]
        return (start, stop) if stop > start else _event(start)


def _event(at: int) -> "tuple[int, int]":
    """The event at chronon *at*, pinned at FOREVER like Period.event."""
    return (FOREVER - 1, FOREVER) if at == FOREVER else (at, at + 1)


def _truncating_div(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _truncating_div,
}

_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compile_scalar(expr, var: "str | None", layouts, bindings):
    """Compile a scalar expression into ``fn(row) -> value``."""
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Param):
        # Parameter values live in the interpreter's bindings dict under
        # the reserved "$params" key ("$" cannot start a range variable),
        # so prepared statements re-execute with fresh values without
        # recompiling any closure.
        name = expr.name

        def param_value(row):
            values = bindings.get("$params")
            if values is None or name not in values:
                raise ExecutionError(
                    f"parameter ${name} is not bound (pass params=...)"
                )
            return values[name]

        return param_value
    if isinstance(expr, ast.Attr):
        owner = expr.var if expr.var is not None else var
        layout = layouts[owner]
        position = layout.positions[expr.name]
        if owner == var:
            return lambda row: row[position]
        return lambda row: bindings[owner][position]
    if isinstance(expr, ast.UnaryOp):
        inner = compile_scalar(expr.operand, var, layouts, bindings)
        return lambda row: -inner(row)
    if isinstance(expr, ast.BinOp):
        left = compile_scalar(expr.left, var, layouts, bindings)
        right = compile_scalar(expr.right, var, layouts, bindings)
        op = _ARITH[expr.op]
        return lambda row: op(left(row), right(row))
    if isinstance(expr, ast.Compare):
        left = compile_scalar(expr.left, var, layouts, bindings)
        right = compile_scalar(expr.right, var, layouts, bindings)
        op = _COMPARE[expr.op]
        return lambda row: op(left(row), right(row))
    if isinstance(expr, ast.BoolOp):
        parts = [
            compile_scalar(operand, var, layouts, bindings)
            for operand in expr.operands
        ]
        if expr.op == "and":
            return lambda row: all(part(row) for part in parts)
        return lambda row: any(part(row) for part in parts)
    if isinstance(expr, ast.NotOp):
        inner = compile_scalar(expr.operand, var, layouts, bindings)
        return lambda row: not inner(row)
    raise ExecutionError(f"cannot compile scalar node {expr!r}")


def compile_temporal(expr, var, layouts, bindings, clock):
    """Compile a temporal operand into ``fn(row) -> (start, stop) | None``.

    Periods are half-open integer pairs and the operators are endpoint
    comparisons, exactly the :class:`Period` algebra: ``start of`` is
    ``(start, start + 1)``, ``end of`` is ``(stop - 1, stop)`` (the
    pinned ``FOREVER`` event for a current period), ``overlap`` the
    intersection and ``extend`` the span.  Constants enter through
    :class:`Period`, so they are validated once per statement.

    ``None`` denotes an empty period (an ``overlap`` of disjoint operands)
    and propagates: predicates over it are false, ``extend`` ignores the
    empty side.
    """
    if isinstance(expr, ast.TempConst):
        event = Period.event(clock.parse(expr.text))
        period = (event.start, event.stop)
        return lambda row: period
    if isinstance(expr, ast.TempVar):
        valid_period = layouts[expr.var].valid_period
        if expr.var == var:
            return valid_period
        name = expr.var
        return lambda row: valid_period(bindings[name])
    if isinstance(expr, ast.TempEdge):
        inner = compile_temporal(expr.operand, var, layouts, bindings, clock)
        if expr.which == "start":

            def start_of(row):
                period = inner(row)
                return None if period is None else (period[0], period[0] + 1)

            return start_of

        def end_of(row):
            period = inner(row)
            return None if period is None else (period[1] - 1, period[1])

        return end_of
    if isinstance(expr, ast.TempBin):
        left = compile_temporal(expr.left, var, layouts, bindings, clock)
        right = compile_temporal(expr.right, var, layouts, bindings, clock)
        if expr.op == "overlap":

            def intersection(row):
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                start = max(a[0], b[0])
                stop = min(a[1], b[1])
                return (start, stop) if start < stop else None

            return intersection
        if expr.op == "extend":

            def span(row):
                a = left(row)
                b = right(row)
                if a is None:
                    return b
                if b is None:
                    return a
                return (min(a[0], b[0]), max(a[1], b[1]))

            return span
        raise TQuelSemanticError(
            f"'{expr.op}' cannot be used as a temporal operand"
        )
    raise ExecutionError(f"cannot compile temporal node {expr!r}")


def compile_when(node, var, layouts, bindings, clock):
    """Compile a when-clause predicate into ``fn(row) -> bool``."""
    if isinstance(node, ast.BoolOp):
        parts = [
            compile_when(operand, var, layouts, bindings, clock)
            for operand in node.operands
        ]
        if node.op == "and":
            return conjunction(parts)
        return lambda row: any(part(row) for part in parts)
    if isinstance(node, ast.NotOp):
        inner = compile_when(node.operand, var, layouts, bindings, clock)
        return lambda row: not inner(row)
    if isinstance(node, ast.TempBin) and node.op in ("overlap", "precede"):
        left = compile_temporal(node.left, var, layouts, bindings, clock)
        right = compile_temporal(node.right, var, layouts, bindings, clock)
        if node.op == "overlap":

            def overlap_pred(row):
                a = left(row)
                b = right(row)
                return (
                    a is not None and b is not None
                    and a[0] < b[1] and b[0] < a[1]
                )

            return overlap_pred

        def precede_pred(row):
            a = left(row)
            b = right(row)
            return a is not None and b is not None and a[1] - 1 <= b[0]

        return precede_pred
    raise ExecutionError(f"cannot compile when node {node!r}")


def make_asof_filter(layout: VarLayout, period: Period):
    """``fn(row) -> bool``: the version's transaction period overlaps the
    as-of period (the rollback visibility rule)."""
    tx_start, tx_stop = layout.tx
    p_start, p_stop = period.start, period.stop

    def visible(row):
        start = row[tx_start]
        stop = row[tx_stop]
        if stop <= start:
            stop = start + 1  # degenerate: created and stamped at once
        return start < p_stop and p_start < stop

    return visible


def conjunction(filters):
    """Combine row filters, evaluated in order with short-circuit; an
    empty list accepts everything."""
    if not filters:
        return lambda row: True
    if len(filters) == 1:
        return filters[0]
    first, rest = filters[0], conjunction(filters[1:])
    return lambda row: first(row) and rest(row)


def batch_conjunction(filters):
    """Fuse row filters into one ``fn(rows) -> list`` applied per batch.

    The batch execution kernel hands each page's decoded rows to this
    closure in one call, replacing a per-tuple closure invocation with a
    single list comprehension over the page.
    """
    if not filters:
        return lambda rows: rows
    check = conjunction(filters)
    return lambda rows: [row for row in rows if check(row)]
