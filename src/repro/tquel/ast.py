"""Abstract syntax for TQuel.

Two expression families:

* **scalar expressions** (:class:`Attr`, :class:`Const`, :class:`BinOp`,
  :class:`UnaryOp`, :class:`Compare`, :class:`BoolOp`, :class:`NotOp`) --
  the ``where`` clause and target lists;
* **temporal expressions** (:class:`TempVar`, :class:`TempConst`,
  :class:`TempEdge`, :class:`TempBin`) -- the ``when``, ``valid`` and
  ``as of`` clauses.  Following TQuel, ``overlap`` and ``extend`` are
  period-valued constructors while a ``when`` clause's *outermost* temporal
  node is read as a predicate (``a overlap b``: do the periods intersect;
  ``a precede b``: does *a* end before *b* starts).  ``start of`` /
  ``end of`` (:class:`TempEdge`) extract a period's bounding events.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- scalar expressions -------------------------------------------------------


@dataclass(frozen=True)
class Attr:
    """A qualified attribute reference ``var.attribute``."""

    var: str
    name: str


@dataclass(frozen=True)
class Const:
    """A literal: int, float or string."""

    value: object


@dataclass(frozen=True)
class Param:
    """A named statement parameter ``$name``, bound at execution time.

    Parameters make prepared statements reusable: ``db.prepare("retrieve
    (h.id) where h.id = $id")`` compiles once and executes for any
    binding of ``id``.  A parameter's type is unknown until bound, so
    semantic analysis treats it as a wildcard scalar.
    """

    name: str


@dataclass(frozen=True)
class BinOp:
    """Arithmetic: ``+ - * /``."""

    op: str
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    """Unary minus."""

    op: str
    operand: object


@dataclass(frozen=True)
class Compare:
    """Comparison: ``= != < <= > >=``."""

    op: str
    left: object
    right: object


@dataclass(frozen=True)
class BoolOp:
    """``and`` / ``or`` over predicate expressions."""

    op: str
    operands: tuple


@dataclass(frozen=True)
class NotOp:
    """Logical negation."""

    operand: object


AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """A Quel aggregate: ``count(e.x)``, ``sum(e.sal by e.dept)``, ...

    With a ``by``-list the aggregate is computed per group; the statement's
    plain targets must be exactly the grouping expressions.
    """

    func: str
    operand: object
    by: tuple = ()


# -- temporal expressions ------------------------------------------------------


@dataclass(frozen=True)
class TempVar:
    """A range variable used temporally: its tuple's valid period."""

    var: str


@dataclass(frozen=True)
class TempConst:
    """A temporal string constant: ``"now"``, ``"08:00 1/1/80"``, ..."""

    text: str


@dataclass(frozen=True)
class TempEdge:
    """``start of e`` / ``end of e``: a period's bounding event."""

    which: str  # "start" | "end"
    operand: object


@dataclass(frozen=True)
class TempBin:
    """``overlap`` / ``extend`` / ``precede`` between temporal operands.

    ``overlap`` is intersection when used as an operand and an intersection
    test when used as a ``when`` predicate; ``extend`` is the covering span;
    ``precede`` is only a predicate.
    """

    op: str
    left: object
    right: object


# -- clauses ---------------------------------------------------------------------


@dataclass(frozen=True)
class ValidClause:
    """``valid from e1 to e2`` (interval) or ``valid at e`` (event)."""

    at: "object | None" = None
    from_: "object | None" = None
    to: "object | None" = None


@dataclass(frozen=True)
class AsOfClause:
    """``as of e1 [through e2]``."""

    at: object
    through: "object | None" = None


@dataclass(frozen=True)
class TargetItem:
    """One target-list element, optionally named (``res = expr``)."""

    name: "str | None"
    expr: object


# -- statements -------------------------------------------------------------------


@dataclass(frozen=True)
class RangeStmt:
    var: str
    relation: str


@dataclass(frozen=True)
class RetrieveStmt:
    targets: "tuple[TargetItem, ...]"
    into: "str | None" = None
    unique: bool = False
    coalesced: bool = False
    valid: "ValidClause | None" = None
    where: "object | None" = None
    when: "object | None" = None
    as_of: "AsOfClause | None" = None


@dataclass(frozen=True)
class AppendStmt:
    relation: str
    targets: "tuple[TargetItem, ...]"
    valid: "ValidClause | None" = None
    where: "object | None" = None
    when: "object | None" = None
    as_of: "AsOfClause | None" = None


@dataclass(frozen=True)
class DeleteStmt:
    var: str
    where: "object | None" = None
    when: "object | None" = None
    as_of: "AsOfClause | None" = None


@dataclass(frozen=True)
class ReplaceStmt:
    var: str
    targets: "tuple[TargetItem, ...]"
    valid: "ValidClause | None" = None
    where: "object | None" = None
    when: "object | None" = None
    as_of: "AsOfClause | None" = None


@dataclass(frozen=True)
class CreateStmt:
    relation: str
    columns: "tuple[tuple[str, str], ...]"
    persistent: bool = False
    kind: "str | None" = None  # None | "interval" | "event"


@dataclass(frozen=True)
class ModifyStmt:
    relation: str
    structure: str
    key: "str | None" = None
    options: "tuple[tuple[str, object], ...]" = field(default=())


@dataclass(frozen=True)
class CopyStmt:
    relation: str
    direction: str  # "from" | "into"
    path: str


@dataclass(frozen=True)
class DestroyStmt:
    relations: "tuple[str, ...]"


@dataclass(frozen=True)
class VacuumStmt:
    """``vacuum RELATION before TEXPR``: physically discard versions whose
    transaction period ended before the cutoff (TSQL2-style pruning)."""

    relation: str
    before: object


@dataclass(frozen=True)
class IndexStmt:
    relation: str
    index_name: str
    attribute: str
    options: "tuple[tuple[str, object], ...]" = field(default=())


@dataclass(frozen=True)
class PartitionStmt:
    """``partition R by hash|range on attr into N [where opt = v, ...]``.

    ``into 1`` collapses the relation back to a single store.  Options:
    ``parallel`` (``"serial"``/``"process"``) picks whether aggregate
    scans scatter to the page-fold kernel, ``bounds`` (a comma-separated
    string) gives the N-1 cut values of a range partitioning.
    """

    relation: str
    method: str  # "hash" | "range"
    attribute: str
    count: int
    options: "tuple[tuple[str, object], ...]" = field(default=())
