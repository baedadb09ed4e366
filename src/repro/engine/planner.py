"""The cost-based optimizer: Fig. 9's law choosing access paths.

ROADMAP item 1: the paper *validates* an analytical cost model
(``cost = fixed + variable * (1 + growth_rate * n)``, Section 5.3 /
Fig. 9); this module turns it into a working planner.  Per statement
variable, the planner enumerates every feasible access path -- keyed
probe of the primary structure (hash bucket chain, ISAM directory
descent, B-tree root-to-leaf walk, two-level split read), secondary-
index lookup, and sequential scan (with zone-map and partition
pruning) -- prices each with :mod:`repro.engine.cost` from catalog
statistics only (page/bucket/directory counts, tuple and update counts,
fillfactor, per-partition transaction bounds; never a metered page), and
picks the cheapest.

Near-ties go to the fixed strategy the engine always used (keyed probe,
then secondary index, then scan): an alternative is chosen only when it
wins by more than the model's error bar (``RATIO_TOLERANCE``), so with
uniform costs the optimizer is plan-for-plan identical to
``REPRO_OPTIMIZER=off`` -- the differential test harness compares the
two modes row-for-row.

For partitioned relations the planner additionally decides the gather
mode: a scatter-gather scan whose surviving partitions hold almost no
pages is forced serial (fan-out overhead would dominate), everything
larger keeps the relation's configured mode.

Decisions are cached per ``(statement fingerprint, range table, catalog
epoch, stats epoch)``; any DDL or bulk load bumps an epoch, so no stale
plan is ever served.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.cost import (
    RATIO_TOLERANCE,
    PathCost,
    index_cost,
    keyed_cost,
    scan_cost,
)

# The optimizer is on by default; REPRO_OPTIMIZER=off (or 0/false)
# restores the fixed keyed-probe/index/scan strategy everywhere --
# subprocess benchmark workers inherit the choice via the environment.
DEFAULT_OPTIMIZER = os.environ.get(
    "REPRO_OPTIMIZER", "on"
).strip().lower() not in ("off", "0", "false")

# A partitioned scan whose surviving partitions hold at most this many
# data pages is gathered serially: thread/process fan-out costs more
# than reading the pages.
SERIAL_GATHER_PAGES = 2.0

# Decision-cache capacity (decisions are tiny tuples).
DECISION_CACHE_CAPACITY = 256

# Legacy priority used for tie-breaking: keyed probe, then secondary
# index, then sequential scan -- the fixed strategy's order.
_RANK = {"keyed": 0, "index": 1, "scan": 2}


def _rank(cost: PathCost) -> int:
    return _RANK.get(cost.path.split(":", 1)[0], 3)


@dataclass
class AccessChoice:
    """The planner's decision for one statement variable."""

    kind: str  # "keyed" | "index" | "scan"
    position: "int | None" = None  # key attribute for keyed/index paths
    index_name: "str | None" = None
    gather: "str | None" = None  # "serial" to override a partitioned scan
    chosen: "PathCost | None" = None
    rejected: "list[PathCost]" = field(default_factory=list)

    def freeze(self) -> tuple:
        return (
            self.kind, self.position, self.index_name, self.gather,
            self.chosen, tuple(self.rejected),
        )

    @classmethod
    def thaw(cls, frozen: tuple) -> "AccessChoice":
        kind, position, index_name, gather, chosen, rejected = frozen
        return cls(kind, position, index_name, gather, chosen,
                   list(rejected))


class Planner:
    """Costs access paths for one database's statements."""

    def __init__(self, db):
        self._db = db
        # (fingerprint, ranges, catalog epoch, stats epoch, var, bound)
        # -> frozen AccessChoice.
        self._decisions: "OrderedDict[tuple, tuple]" = OrderedDict()

    # -- introspection -----------------------------------------------------

    @property
    def cached_decisions(self) -> int:
        return len(self._decisions)

    def clear(self) -> None:
        self._decisions.clear()

    # -- the decision procedure --------------------------------------------

    def choose(self, executor, var: str, bound, plan_key) -> AccessChoice:
        """Pick the cheapest access path for *var* under *bound*.

        *executor* supplies the statement's key-equality conjuncts and
        per-variable currency/as-of state; *plan_key* (the statement
        fingerprint + range table + epochs) keys the decision cache and
        is None for uncached planning (EXPLAIN).
        """
        cache_key = None
        if plan_key is not None:
            cache_key = (plan_key, var, frozenset(bound))
            frozen = self._decisions.get(cache_key)
            if frozen is not None:
                self._decisions.move_to_end(cache_key)
                self._db.metrics.inc("planner.cache_hits")
                return AccessChoice.thaw(frozen)
            self._db.metrics.inc("planner.cache_misses")
        choice = self._decide(executor, var, bound)
        if cache_key is not None:
            self._decisions[cache_key] = choice.freeze()
            while len(self._decisions) > DECISION_CACHE_CAPACITY:
                self._decisions.popitem(last=False)
        return choice

    def _decide(self, executor, var: str, bound) -> AccessChoice:
        source = executor._sources[var]
        relation = source.relation
        current_only = source.current_only
        asof_max = executor._scan_asof_max(var)
        growth = self._growth_for(relation)
        candidates: "list[tuple[PathCost, AccessChoice]]" = []

        seen_keyed: "set[int]" = set()
        seen_index: "set[str]" = set()
        for position, _ in executor._find_key_equality(var, bound):
            if (
                position not in seen_keyed
                and relation.can_key_lookup(position)
            ):
                seen_keyed.add(position)
                cost = self._safe(
                    keyed_cost, relation, position, current_only, growth
                )
                if cost is not None:
                    candidates.append(
                        (cost, AccessChoice("keyed", position=position))
                    )
            index = relation.index_for(position)
            if index is not None and index.name not in seen_index:
                seen_index.add(index.name)
                cost = self._safe(
                    index_cost, relation, index,
                    self._tuple_estimate(relation), current_only, growth,
                )
                if cost is not None:
                    candidates.append(
                        (
                            cost,
                            AccessChoice(
                                "index", position=position,
                                index_name=index.name,
                            ),
                        )
                    )

        scan = self._safe(
            scan_cost, relation, current_only, asof_max, growth
        )
        scan_choice = AccessChoice("scan", chosen=scan)
        if scan is not None:
            scan_choice.gather = self._gather_override(relation, scan)
        if not candidates:
            return scan_choice
        if scan is not None:
            candidates.append((scan, scan_choice))

        # The fixed strategy's pick (the first candidate of the best rank)
        # stands unless an alternative beats it by more than the model's
        # own error bar: a near-tie is within what the estimate cannot
        # tell apart, so it is no reason to flip.
        fixed = min(candidates, key=lambda item: _rank(item[0]))
        candidates.sort(key=lambda item: (item[0].predicted, _rank(item[0])))
        if candidates[0][0].predicted * (1 + RATIO_TOLERANCE) >= (
            fixed[0].predicted
        ):
            candidates.remove(fixed)
            candidates.insert(0, fixed)
        best_cost, best = candidates[0]
        best.chosen = best_cost
        best.rejected = [cost for cost, _ in candidates[1:]]
        self._db.metrics.inc("planner.decisions")
        return best

    @staticmethod
    def _safe(estimator, *args):
        """Estimate, tolerating surfaces without structure metadata
        (system-relation adapters, test doubles): no estimate means the
        path is not priced, and the fixed strategy's order decides."""
        try:
            return estimator(*args)
        except (AttributeError, TypeError):
            return None

    def _gather_override(self, relation, scan: PathCost) -> "str | None":
        if not getattr(relation, "is_partitioned", False):
            return None
        if getattr(relation, "parallel", "serial") == "serial":
            return None
        if scan.variable <= SERIAL_GATHER_PAGES:
            return "serial"
        return None

    def _growth_for(self, relation) -> "float | None":
        from repro.observe.stats import growth_rate_for

        schema = getattr(relation, "schema", None)
        if schema is None:
            return None
        try:
            return growth_rate_for(
                schema.type.value, getattr(relation, "fillfactor", 100)
            )
        except Exception:
            return None

    def _tuple_estimate(self, relation) -> "int | None":
        """Logical tuples from catalog statistics.

        Exact for two-level stores (the primary holds one current
        version per tuple); elsewhere, versions-per-tuple is estimated
        from the relation's update count.
        """
        storage = getattr(relation, "storage", None)
        primary = getattr(storage, "primary", None)
        if primary is not None:
            return primary.row_count
        rows = getattr(relation, "row_count", 0)
        updates = self._db._update_counts.get(
            getattr(relation, "name", ""), 0
        )
        return max(1, rows - updates)
