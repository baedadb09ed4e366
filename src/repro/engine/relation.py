"""Stored relations: schema + storage structure + secondary indexes.

A :class:`StoredRelation` owns the storage structure a relation currently
uses (heap after ``create``; hash, ISAM or a two-level store after
``modify``) and its secondary indexes, and exposes the uniform access paths
the query processor consumes:

* :meth:`seq_scan` -- sequential scan;
* :meth:`key_lookup` -- keyed access on the primary key;
* :meth:`index_paths` / :meth:`index_lookup` -- secondary-index access;

each with a ``current_only`` flag that lets enhanced structures (two-level
store, 2-level index) skip history data for non-temporal queries, as
Section 6 prescribes.  On conventional structures the flag is a no-op: this
is precisely the difference the Figure 10 benchmark measures.

Record ids: conventional structures use ``(page, slot)``, the two-level
store uses ``(store, page, slot)``; :meth:`tid_for` / :meth:`read_tid`
convert to and from the packed four-byte tids stored in secondary indexes.
"""

from __future__ import annotations

from typing import Iterator

from repro.access.base import StructureKind
from repro.access.btree import BTreeFile
from repro.access.hashfile import HashFile
from repro.access.heap import HeapFile
from repro.access.isam import IsamFile
from repro.access.secondary import (
    IndexLevels,
    SecondaryIndex,
    pack_tid,
    unpack_tid,
)
from repro.access.twolevel import HistoryLayout, TwoLevelStore
from repro.catalog.schema import RelationSchema
from repro.errors import CatalogError, SchemaError
from repro.storage.buffer import BufferPool


class StoredRelation:
    """One user relation and everything stored for it."""

    def __init__(
        self,
        schema: RelationSchema,
        pool: BufferPool,
        buffers: "int | None" = None,
        clock=None,
    ):
        self.schema = schema
        self._pool = pool
        self._buffers = buffers
        self._clock = clock
        self.structure = StructureKind.HEAP
        self.key_attribute: "str | None" = None
        self.fillfactor = 100
        self.history_layout: "HistoryLayout | None" = None
        self.indexes: "dict[str, SecondaryIndex]" = {}
        # Transaction-time zone map (Section 6 "structures tailored to the
        # particular characteristics of temporal databases"): page id ->
        # minimum transaction_start stored on the page.  Rollback scans
        # skip pages whose minimum postdates the as-of event.  None when
        # disabled.
        self.zone_map: "dict[int, int] | None" = None
        self._storage = HeapFile(
            pool.create_file(schema.name, schema.record_size, buffers=buffers),
            schema.codec,
        )
        self._storage.build([])

    # -- metadata -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def storage(self):
        """The underlying access method or two-level store."""
        return self._storage

    @property
    def is_two_level(self) -> bool:
        return isinstance(self._storage, TwoLevelStore)

    @property
    def page_count(self) -> int:
        total = self._storage.page_count
        return total

    @property
    def row_count(self) -> int:
        return self._storage.row_count

    @property
    def key_position(self) -> "int | None":
        if self.key_attribute is None:
            return None
        return self.schema.position(self.key_attribute)

    # -- restructuring ----------------------------------------------------------

    def all_rows(self) -> "list[tuple]":
        """Every stored version (metered scan)."""
        return [row for _, row in self._storage.scan()]

    def rebuild(
        self,
        structure: StructureKind,
        key_attribute: "str | None" = None,
        fillfactor: int = 100,
        primary: StructureKind = StructureKind.HASH,
        history: HistoryLayout = HistoryLayout.SIMPLE,
        rows: "list[tuple] | None" = None,
    ) -> None:
        """``modify`` the relation to a new storage structure.

        Like Ingres, this reads every tuple out of the old structure and
        bulk-loads a fresh one.  Rebuilding into a two-level store splits
        versions between the stores by currency; secondary indexes survive a
        rebuild by being rebuilt against the new record addresses.  An
        explicit *rows* list replaces the contents (``vacuum`` uses this to
        discard pruned versions).
        """
        if structure is not StructureKind.HEAP and key_attribute is None:
            raise CatalogError(f"modify to {structure.value} requires a key")
        if key_attribute is not None and not self.schema.has_attribute(
            key_attribute
        ):
            raise SchemaError(
                f"{self.name} has no attribute {key_attribute!r}"
            )
        if structure is StructureKind.BTREE and self.indexes:
            raise CatalogError(
                f"{self.name}: drop the secondary indexes before a modify "
                "to btree (splits relocate records, invalidating tids)"
            )
        if rows is None:
            rows = self.all_rows()
        key_index = (
            self.schema.position(key_attribute)
            if key_attribute is not None
            else None
        )
        if structure is StructureKind.TWO_LEVEL:
            store = TwoLevelStore(
                self._pool,
                self.name,
                self.schema.codec,
                key_index,
                primary_kind=primary,
                layout=history,
            )
            current, historic = self._split_by_currency(rows)
            store.build(current, fillfactor)
            for row in historic:
                store.append_history(row[key_index], row)
            self.history_layout = history
            self._storage = store
        else:
            file = self._pool.create_file(
                self.name, self.schema.record_size, buffers=self._buffers
            )
            if structure is StructureKind.HEAP:
                storage = HeapFile(file, self.schema.codec, key_index)
            elif structure is StructureKind.HASH:
                storage = HashFile(file, self.schema.codec, key_index)
            elif structure is StructureKind.ISAM:
                storage = IsamFile(file, self.schema.codec, key_index)
            elif structure is StructureKind.BTREE:
                storage = BTreeFile(file, self.schema.codec, key_index)
            else:  # pragma: no cover - exhaustive
                raise CatalogError(f"unknown structure {structure}")
            storage.build(rows, fillfactor)
            self.history_layout = None
            self._storage = storage
        self.structure = structure
        self.key_attribute = key_attribute
        self.fillfactor = fillfactor
        for index in list(self.indexes.values()):
            self._rebuild_index(index)
        if self.zone_map is not None:
            if self.is_two_level or structure is StructureKind.BTREE:
                self.zone_map = None
            else:
                # The map is maintained incrementally: rebuilt here from
                # the pages just written (unmetered peeks -- the tuples
                # were all in memory a moment ago) and kept current by
                # :meth:`note_insert` on every later append.  Only an
                # explicit enable pays a metered build scan.
                self.zone_map = self.zone_map_from_pages()

    def _split_by_currency(self, rows) -> "tuple[list, list]":
        """Partition versions into (current, history) for a two-level load.

        The primary store gets, per logical key, the version that is
        transaction-current and valid the latest; everything else is
        history.
        """
        schema = self.schema
        if not schema.type.has_transaction_time and not schema.type.has_valid_time:
            return rows, []
        current, historic = [], []
        for row in rows:
            if self._is_currentish(row):
                current.append(row)
            else:
                historic.append(row)
        return current, historic

    # -- secondary indexes ---------------------------------------------------------

    def create_index(
        self,
        index_name: str,
        attribute: str,
        structure: StructureKind = StructureKind.HASH,
        levels: IndexLevels = IndexLevels.ONE_LEVEL,
        fillfactor: int = 100,
    ) -> SecondaryIndex:
        """Build a secondary index over *attribute* (Section 6)."""
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        if self.structure is StructureKind.BTREE:
            # The paper, on dynamic structures: "It is also difficult to
            # maintain secondary indices for these methods, which often
            # split a bucket and rearrange records in it."  Splits
            # relocate records, so stored tids cannot stay valid.
            raise CatalogError(
                f"{self.name}: secondary indexes are not supported on "
                "B-trees (splits relocate records)"
            )
        position = self.schema.position(attribute)
        index = SecondaryIndex(
            self._pool,
            index_name,
            attribute,
            position,
            self.schema.field_for(attribute),
            structure=structure,
            levels=levels,
        )
        self.indexes[index_name] = index
        self._rebuild_index(index, fillfactor)
        return index

    def drop_index(self, index_name: str) -> None:
        index = self.indexes.pop(index_name, None)
        if index is None:
            raise CatalogError(f"no index {index_name!r}")
        self._pool.drop_file(index_name)
        self._pool.drop_file(f"{index_name}.current")
        self._pool.drop_file(f"{index_name}.history")

    def _rebuild_index(
        self, index: SecondaryIndex, fillfactor: int = 100
    ) -> None:
        """(Re)load an index from the current storage contents."""
        position = index.attribute_index
        key_position = self.key_position
        current_entries = []
        history_entries = []
        for rid, row in self._iter_with_rids():
            tid = self.tid_for(rid)
            tuple_key = (
                row[key_position] if key_position is not None else tid
            )
            if self._is_currentish(row):
                current_entries.append((tuple_key, row[position], tid))
            else:
                history_entries.append((row[position], tid))
        index.build(current_entries, history_entries, fillfactor)

    def _is_currentish(self, row: tuple) -> bool:
        """Current for placement purposes: could this version still be an
        update target, or satisfy a current-data query, in the future?

        Transaction-stamped versions are history forever.  On the valid
        axis the cut is ``valid_to > now`` -- the clock only moves forward,
        so a version whose validity already ended can never again overlap
        "now" nor be updated, while a version valid into the future must
        stay in the primary store (it is updatable and overlaps now).
        Without a clock the conservative ``valid_to == forever`` rule
        applies.
        """
        schema = self.schema
        if schema.type.has_transaction_time and not (
            schema.is_current_transaction(row)
        ):
            return False
        if schema.type.has_valid_time and schema.has_attribute("valid_to"):
            valid_to = row[schema.position("valid_to")]
            if self._clock is not None:
                return valid_to > self._clock.now()
            return valid_to == 2**31 - 1
        return True

    # -- transaction-time zone map ------------------------------------------------

    def enable_zone_map(self) -> None:
        """Build/refresh the transaction-time zone map for this relation."""
        if not self.schema.type.has_transaction_time:
            raise CatalogError(
                f"{self.name}: a zone map tracks transaction_start and "
                "needs a rollback or temporal relation"
            )
        if self.is_two_level:
            raise CatalogError(
                f"{self.name}: zone maps apply to conventional structures "
                "(a two-level store already isolates history)"
            )
        if self.structure is StructureKind.BTREE:
            raise CatalogError(
                f"{self.name}: zone maps are not supported on B-trees "
                "(splits relocate records across pages)"
            )
        position = self.schema.position("transaction_start")
        zone_map: "dict[int, int]" = {}
        for (page_id, _), row in self._storage.scan():
            start = row[position]
            if page_id not in zone_map or start < zone_map[page_id]:
                zone_map[page_id] = start
        self.zone_map = zone_map

    def zone_map_from_pages(self) -> "dict[int, int]":
        """Zone-map contents recomputed through unmetered peeks.

        Used where the tuples are already known to be in memory (a
        rebuild that just wrote them, a partition bulk load), so charging
        a second metered scan would double-count the paper's metric.
        """
        position = self.schema.position("transaction_start")
        codec = self.schema.codec
        file = self._storage.file
        zone_map: "dict[int, int]" = {}
        for page_id in range(file.page_count):
            page = file.peek(page_id)
            if page.record_size != codec.record_size:
                continue  # ISAM directory pages hold keys, not records
            for row in codec.decode_page(page):
                start = row[position]
                if page_id not in zone_map or start < zone_map[page_id]:
                    zone_map[page_id] = start
        return zone_map

    def disable_zone_map(self) -> None:
        self.zone_map = None

    def note_insert(self, rid, row: tuple) -> None:
        """Maintain the zone map after a physical insert (mutate layer)."""
        if self.zone_map is None or self.is_two_level:
            return
        page_id = rid[0]
        start = row[self.schema.position("transaction_start")]
        current = self.zone_map.get(page_id)
        if current is None or start < current:
            self.zone_map[page_id] = start

    def index_for(self, attribute_position: int) -> "SecondaryIndex | None":
        """An index usable for equality on *attribute_position*, if any."""
        for index in self.indexes.values():
            if index.attribute_index == attribute_position:
                return index
        return None

    # -- record addressing ----------------------------------------------------------

    def _iter_with_rids(self) -> "Iterator[tuple]":
        yield from self._storage.scan()

    def tid_for(self, rid) -> int:
        """Pack a record id into the four-byte tid stored in indexes."""
        if self.is_two_level:
            store, page, slot = rid
            return pack_tid(page, slot, history=(store == "h"))
        page, slot = rid
        return pack_tid(page, slot, history=False)

    def read_tid(self, tid: int) -> tuple:
        """Fetch the record a tid points at (metered)."""
        history, page, slot = unpack_tid(tid)
        if self.is_two_level:
            return self._storage.read_rid(("h" if history else "p", page, slot))
        return self._storage.read_rid((page, slot))

    # -- access paths -------------------------------------------------------------

    def can_key_lookup(self, attribute_position: int) -> bool:
        """Whether equality on this attribute can use the primary structure."""
        return self._storage.keyed_on(attribute_position)

    def scan_with_rids(
        self,
        current_only: bool = False,
        asof_max: "int | None" = None,
    ) -> "Iterator[tuple]":
        """Sequential scan yielding ``(rid, row)`` pairs.

        With an active zone map, *asof_max* (the last chronon the query's
        as-of clause can see) skips pages whose versions were all recorded
        later -- for free, like an ISAM directory skip.
        """
        if self.is_two_level and current_only:
            yield from self._storage.scan_current()
            return
        if (
            asof_max is not None
            and self.zone_map is not None
            and not self.is_two_level
        ):
            zone_map = self.zone_map

            def visible(page_id, _map=zone_map, _max=asof_max):
                # Pages without an entry hold no versions at all.
                earliest = _map.get(page_id)
                return earliest is not None and earliest <= _max

            yield from self._storage.scan(page_filter=visible)
            return
        yield from self._storage.scan()

    def lookup_with_rids(self, key, current_only: bool = False):
        """Keyed access yielding ``(rid, row)`` pairs."""
        if self.is_two_level and current_only:
            yield from self._storage.lookup_current(key)
        else:
            yield from self._storage.lookup(key)

    # -- batch access paths (page-at-a-time execution kernel) ----------------

    def scan_batches(
        self,
        current_only: bool = False,
        asof_max: "int | None" = None,
        ahead: bool = False,
    ) -> "Iterator[list[tuple]]":
        """Sequential scan yielding per-page row batches.

        Reads the same pages in the same order as :meth:`scan_with_rids`
        (including zone-map skips); each batch is the decoded rows of one
        page, yielded before the next page is fetched -- or, with
        *ahead*, after the whole range was fetched as one run.
        """
        if self.is_two_level and current_only:
            for _, rows in self._storage.scan_batches_current(ahead):
                yield rows
            return
        if (
            asof_max is not None
            and self.zone_map is not None
            and not self.is_two_level
        ):
            zone_map = self.zone_map

            def visible(page_id, _map=zone_map, _max=asof_max):
                earliest = _map.get(page_id)
                return earliest is not None and earliest <= _max

            for _, rows in self._storage.scan_batches(visible, ahead):
                yield rows
            return
        for _, rows in self._storage.scan_batches(ahead=ahead):
            yield rows

    def lookup_batches(
        self, key, current_only: bool = False, ahead: bool = False
    ) -> "Iterator[list[tuple]]":
        """Keyed access yielding per-page batches of matching rows."""
        if self.is_two_level and current_only:
            yield from self._storage.primary.lookup_batches(key, ahead)
        else:
            yield from self._storage.lookup_batches(key, ahead)

    def rid_from_tid(self, tid: int):
        """The native record id a packed tid denotes."""
        history, page, slot = unpack_tid(tid)
        if self.is_two_level:
            return ("h" if history else "p", page, slot)
        return (page, slot)

    def seq_scan(self, current_only: bool = False) -> "Iterator[tuple]":
        """Yield rows sequentially; two-level stores may skip history."""
        if self.is_two_level and current_only:
            for _, row in self._storage.scan_current():
                yield row
        else:
            for _, row in self._storage.scan():
                yield row

    def key_lookup(self, key, current_only: bool = False) -> "Iterator[tuple]":
        """Yield rows whose primary key equals *key*."""
        if self.is_two_level and current_only:
            source = self._storage.lookup_current(key)
        else:
            source = self._storage.lookup(key)
        for _, row in source:
            yield row

    def index_lookup(
        self, index: SecondaryIndex, value, current_only: bool = False
    ) -> "Iterator[tuple]":
        """Yield rows via a secondary index (index pages + data pages)."""
        for tid in index.search(value, current_only=current_only):
            yield self.read_tid(tid)
