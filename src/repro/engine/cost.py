"""Access-path cost estimation from the paper's Fig. 9 model.

Section 5.3 fits every measured query cost to one law::

    cost(n) = fixed + variable * (1 + growth_rate * n)

where *n* is the number of update statements applied since loading and
``growth_rate`` follows the database type and loading factor
(:func:`repro.observe.stats.growth_rate_for`).  The planner
(:mod:`repro.engine.planner`) prices each feasible access path with that
law, reading only *unmetered* structure metadata -- page counts, bucket
counts, directory heights, zone maps, per-partition transaction bounds --
so estimation itself never costs a page.

Each estimator returns a :class:`PathCost` whose ``fixed`` component is
the paper's access overhead (directory descent, hash bucket, index
search) and whose ``variable`` component is the data-page volume the
path touches today; ``predicted`` applies the growth term for updates
accumulated since the estimate was anchored (zero at plan time, so the
prediction is the current physical cost).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.access.btree import BTreeFile
from repro.access.hashfile import HashFile
from repro.access.isam import IsamFile
from repro.access.twolevel import HistoryLayout, TwoLevelStore

__all__ = [
    "RATIO_TOLERANCE",
    "PathCost",
    "scan_cost",
    "keyed_cost",
    "index_cost",
]

#: The model's error bar: relative tolerance on predicted/actual page
#: reads.  Re-executing a query at an unchanged update count predicts its
#: own measurement exactly; the budget absorbs model drift when updates
#: run between executions (Fig. 9 holds to a few percent).  The planner
#: flips away from the fixed strategy only by more than this margin.
RATIO_TOLERANCE = 0.25


@dataclass(frozen=True)
class PathCost:
    """One access path priced by the Fig. 9 law."""

    path: str  # "scan" | "keyed" | "index:<name>"
    description: str  # EXPLAIN's wording for the path
    fixed: float  # access overhead in pages (directories, buckets)
    variable: float  # data pages the path reads today
    growth: "float | None" = None  # Fig. 9 growth rate g (None: static)
    updates: int = 0  # update statements since this estimate

    @property
    def predicted(self) -> float:
        """Predicted page reads: fixed + variable * (1 + g * n)."""
        if self.growth is None or self.updates <= 0:
            return self.fixed + self.variable
        return self.fixed + self.variable * (1.0 + self.growth * self.updates)

    def aged(self, updates: int) -> "PathCost":
        """The same estimate re-anchored *updates* statements later."""
        return replace(self, updates=updates)


def _chain_pages(page_count: int, buckets: int) -> float:
    """Average bucket-chain length of a hash file (>= 1 page)."""
    if page_count <= 0:
        return 0.0
    return max(1.0, page_count / max(1, buckets))


def _probe_pages(storage, current_only: bool) -> "tuple[float, float]":
    """(fixed, variable) page reads of one keyed probe of *storage*."""
    if isinstance(storage, TwoLevelStore):
        fixed, variable = _probe_pages(storage.primary, True)
        if not current_only:
            variable += _history_pages_per_key(storage)
        return fixed, variable
    if isinstance(storage, HashFile):
        # One bucket page plus its overflow chain.
        chain = _chain_pages(storage.page_count, storage.buckets)
        return 1.0, max(0.0, chain - 1.0)
    if isinstance(storage, IsamFile):
        # Directory descent (the paper's fixed cost) plus the data page
        # and the average overflow chain hanging off it.
        data = max(1, storage.data_pages)
        overflow = max(
            0, storage.page_count - storage.directory_pages - data
        )
        return float(storage.directory_height), 1.0 + overflow / data
    if isinstance(storage, BTreeFile):
        # Root-to-leaf descent, then the leaf.
        return float(storage.height), 1.0
    return None  # heap and friends: no keyed path


def _history_pages_per_key(storage: TwoLevelStore) -> float:
    """History pages one keyed version-scan reads (per logical tuple)."""
    history_pages = storage.history_pages
    history_rows = storage.row_count - storage.primary.row_count
    if history_pages <= 0 or history_rows <= 0:
        return 0.0
    keys = max(1, storage.primary.row_count)
    versions = history_rows / keys
    if storage.layout is HistoryLayout.CLUSTERED:
        # Pages are dedicated per tuple: each key owns its share.
        return max(1.0, history_pages / keys)
    # Simple layout meters one read per version along the chain.
    return versions


def scannable_pages(
    relation, current_only: bool = False, asof_max=None
) -> float:
    """Data pages a sequential scan of *relation* reads.

    Honors the two-level primary-store shortcut, transaction-time zone
    maps (pages whose minimum ``transaction_start`` postdates the as-of
    event are skipped), and -- for partitioned relations -- per-partition
    pruning by minimum transaction bound.
    """
    if getattr(relation, "is_partitioned", False):
        pids = relation.survivors(asof_max, count=False)
        return float(
            sum(
                scannable_pages(relation.children[pid], current_only,
                                asof_max)
                for pid in pids
            )
        )
    storage = getattr(relation, "storage", None)
    if storage is None:
        return float(getattr(relation, "page_count", 0))
    zone_map = getattr(relation, "zone_map", None)
    if zone_map is not None and asof_max is not None:
        return float(
            sum(1 for minimum in zone_map.values() if minimum <= asof_max)
        )
    if isinstance(storage, TwoLevelStore):
        if current_only:
            return float(storage.primary_pages)
        return float(storage.page_count)
    if isinstance(storage, IsamFile):
        # Scans walk data and overflow pages; the directory is skipped.
        return float(storage.page_count - storage.directory_pages)
    if isinstance(storage, BTreeFile):
        # Descend to the leftmost leaf, then follow the leaf chain.
        return float(storage.height + storage.leaf_pages)
    return float(storage.page_count)


def scan_cost(
    relation, current_only: bool = False, asof_max=None,
    growth: "float | None" = None,
) -> PathCost:
    """Price a sequential scan (the always-feasible path)."""
    return PathCost(
        path="scan",
        description="sequential scan",
        fixed=0.0,
        variable=scannable_pages(relation, current_only, asof_max),
        growth=growth,
    )


def keyed_cost(
    relation, position: int, current_only: bool = False,
    growth: "float | None" = None,
) -> "PathCost | None":
    """Price a keyed probe of the primary structure, or None."""
    if not relation.can_key_lookup(position):
        return None
    attribute = relation.schema.fields[position].name
    if getattr(relation, "is_partitioned", False):
        return _partitioned_keyed_cost(
            relation, position, attribute, current_only, growth
        )
    storage = getattr(relation, "storage", None)
    if storage is None:
        return None
    probe = _probe_pages(storage, current_only)
    if probe is None:
        return None
    fixed, variable = probe
    structure = (
        storage.primary.kind.value
        if isinstance(storage, TwoLevelStore)
        else relation.structure.value
    )
    return PathCost(
        path="keyed",
        description=f"keyed {structure} access on {attribute}",
        fixed=fixed,
        variable=variable,
        growth=growth,
    )


def _partitioned_keyed_cost(
    relation, position, attribute, current_only, growth
) -> "PathCost | None":
    """Keyed probe through a partitioned facade.

    A probe on the routing attribute pins one partition; on any other
    keyable attribute every partition is probed.
    """
    children = list(getattr(relation, "children", ()))
    if not children:
        return None
    probes = []
    for child in children:
        probe = _probe_pages(getattr(child, "storage", None), current_only)
        if probe is None:
            return None
        probes.append(probe)
    route_position = relation.schema.position(relation.partition_attribute)
    if route_position == position:
        # Routed: one partition, costed at the average child.
        fixed = sum(f for f, _ in probes) / len(probes)
        variable = sum(v for _, v in probes) / len(probes)
        suffix = f" [routed to 1 of {len(probes)} partitions]"
    else:
        fixed = sum(f for f, _ in probes)
        variable = sum(v for _, v in probes)
        suffix = f" [all {len(probes)} partitions probed]"
    return PathCost(
        path="keyed",
        description=(
            f"keyed {relation.structure.value} access on {attribute}"
            f"{suffix}"
        ),
        fixed=fixed,
        variable=variable,
        growth=growth,
    )


def index_cost(
    relation, index, tuples: "int | None" = None,
    current_only: bool = False, growth: "float | None" = None,
) -> "PathCost | None":
    """Price a secondary-index lookup: index search plus data fetches.

    *tuples* is the catalog's logical-tuple estimate; the expected number
    of matching versions for an equality probe is ``rows / tuples`` (the
    benchmark's secondary attributes are unique per tuple), each fetched
    with one data-page read (tids are deduplicated per page, but history
    versions scatter).
    """
    if index is None:
        return None
    search = index.search_pages()
    rows = getattr(relation, "row_count", 0)
    if tuples is None or tuples <= 0:
        tuples = rows
    matches = max(1.0, rows / max(1, tuples)) if rows else 0.0
    page_count = float(getattr(relation, "page_count", matches))
    fetches = min(matches, page_count) if page_count else matches
    levels = (
        "current index only"
        if current_only and index.levels.value == 2
        else f"{index.levels.value}-level"
    )
    return PathCost(
        path=f"index:{index.name}",
        description=(
            f"secondary index {index.name} "
            f"({index.structure.value}, {levels})"
        ),
        fixed=search,
        variable=fetches,
        growth=growth,
    )
