"""B+-trees (``modify ... to btree on key``): the dynamic alternative the
paper weighs and dismisses.

Section 6: "There are other access methods that adapt to dynamic growth
better, such as B-trees [Comer 1979] ...  But these methods require complex
algorithms and significant overhead to maintain certain structures as new
records are added.  Furthermore, a large number of versions for some tuples
will require more than a bucket for a single key, causing similar problems
exhibited in conventional hashing and ISAM."

This module implements the structure so the claim can be measured
(``benchmarks/bench_ext_btree.py``): keyed-access cost under version growth
is still linear in the update count -- a B+-tree clusters each key's
versions into leaves but cannot make "all versions of tuple 500" smaller
than versions/leaf-capacity pages.

Layout (within the engine's fixed 1024-byte pages):

* **leaf pages** hold full records sorted by key; the page's overflow
  pointer links to the next leaf (the classic sequence set);
* **internal pages** hold ``(separator_key, child_page_id)`` records sorted
  by key; the page's overflow pointer holds the leftmost child.  A child
  under separator *k* covers keys ``>= k`` (and below the next separator).
* which pages are internal is structure metadata, like an ISAM directory's
  page list (catalog-resident, persisted via ``snapshot_meta``).

Splits allocate fresh pages at the end of the file; the root page id
changes when the root splits.  Duplicate keys may span leaves; lookups
continue through the leaf chain while keys match.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.access.base import (
    RID,
    AccessMethod,
    DecodeCache,
    StructureKind,
    effective_capacity,
)
from repro.errors import AccessMethodError
from repro.storage.page import NO_PAGE, records_per_page
from repro.storage.record import FieldSpec, RecordCodec


class BTreeFile(AccessMethod):
    """A B+-tree over one buffered file."""

    kind = StructureKind.BTREE

    def __init__(self, file, codec, key_index: int):
        if key_index is None:
            raise AccessMethodError("B-trees require a key attribute")
        super().__init__(file, codec, key_index)
        key_field = codec.fields[key_index]
        self._entry_codec = RecordCodec(
            [
                FieldSpec("key", key_field.type, key_field.width),
                FieldSpec.parse("child", "i4"),
            ]
        )
        self._entry_cache = DecodeCache(self._entry_codec)
        self._root = NO_PAGE
        self._internal: "set[int]" = set()
        self._leaf_capacity = records_per_page(codec.record_size)
        self._fanout = records_per_page(self._entry_codec.record_size)

    # -- metadata ----------------------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    @property
    def height(self) -> int:
        """Internal levels above the leaves (0 for a single-leaf tree)."""
        height = 0
        page_id = self._root
        while page_id in self._internal:
            height += 1
            page_id = self._file.peek(page_id).overflow
        return height

    @property
    def leaf_pages(self) -> int:
        return self.page_count - len(self._internal)

    def snapshot_meta(self) -> dict:
        meta = super().snapshot_meta()
        meta["root"] = self._root
        meta["internal"] = sorted(self._internal)
        return meta

    def restore_meta(self, meta: dict) -> None:
        super().restore_meta(meta)
        self._root = int(meta["root"])
        self._internal = {int(p) for p in meta["internal"]}

    # -- page helpers ------------------------------------------------------------

    def _leaf_rows(self, page_id: int):
        page = self._file.read(page_id)
        return page, self._cache.rows(page_id, page)

    def _node_entries(self, page_id: int):
        page = self._file.read(page_id)
        return page, self._entry_cache.rows(page_id, page)

    def _rewrite(self, page_id: int, page, records: "list[bytes]",
                 overflow: "int | None" = None) -> None:
        """Replace a page's records (and optionally its link) in place."""
        for slot, record in enumerate(records):
            if slot < page.count:
                page.write(slot, record)
            else:
                page.append(record)
        while page.count > len(records):
            page.delete(page.count - 1)
        if overflow is not None:
            page.set_overflow(overflow)
        self._file.mark_dirty(page_id)

    # -- build --------------------------------------------------------------------

    def build(self, rows: "list[tuple]", fillfactor: int = 100) -> None:
        if self.page_count:
            raise AccessMethodError("build requires an empty file")
        key_index = self._key_index
        ordered = sorted(rows, key=lambda row: row[key_index])
        quota = effective_capacity(self._leaf_capacity, fillfactor)
        encode = self._codec.encode

        # Leaves, linked left to right.
        leaf_count = max(1, math.ceil(len(ordered) / quota))
        leaf_ids = []
        separators = []
        for index in range(leaf_count):
            page_id, page = self._file.allocate()
            chunk = ordered[index * quota : (index + 1) * quota]
            for row in chunk:
                page.append(encode(row))
                self._row_count += 1
            self._file.mark_dirty(page_id)
            if leaf_ids:
                previous = self._file.read(leaf_ids[-1])
                previous.set_overflow(page_id)
                self._file.mark_dirty(leaf_ids[-1])
            leaf_ids.append(page_id)
            if index:
                separators.append(chunk[0][key_index] if chunk else None)

        # Internal levels, bottom-up.
        level_children = leaf_ids
        level_keys = separators
        entry_encode = self._entry_codec.encode
        while len(level_children) > 1:
            parent_ids = []
            parent_keys = []
            position = 0
            while position < len(level_children):
                take = min(self._fanout + 1, len(level_children) - position)
                if take == 1 and parent_ids:
                    # Avoid a childless separator: steal one from before.
                    position -= 1
                    take = 2
                    # Re-open the previous parent and drop its last entry.
                    previous_id = parent_ids[-1]
                    page = self._file.read(previous_id)
                    page.delete(page.count - 1)
                    self._file.mark_dirty(previous_id)
                page_id, page = self._file.allocate(
                    self._entry_codec.record_size
                )
                self._internal.add(page_id)
                page.set_overflow(level_children[position])
                for offset in range(1, take):
                    key = level_keys[position + offset - 1]
                    page.append(
                        entry_encode(
                            (key, level_children[position + offset])
                        )
                    )
                self._file.mark_dirty(page_id)
                parent_ids.append(page_id)
                if parent_ids[:-1]:
                    parent_keys.append(level_keys[position - 1])
                position += take
            level_children = parent_ids
            level_keys = parent_keys
        self._root = level_children[0]
        self._file.flush()

    # -- search -------------------------------------------------------------------

    def _descend(self, key, for_insert: bool = False) -> "tuple[int, list[int]]":
        """Leaf page id for *key*, plus the internal path visited.

        Lookups descend to the *leftmost* child that can hold the key (a
        run of duplicates is then followed along the leaf chain); inserts
        descend to the *rightmost* such child, appending new versions at
        the tail of an equal-key run.  Equal separator keys are kept in
        leaf-chain order by :meth:`_insert_separator`, which makes both
        rules correct.
        """
        path = []
        page_id = self._root
        while page_id in self._internal:
            path.append(page_id)
            page, entries = self._node_entries(page_id)
            keys = [entry[0] for entry in entries]
            if for_insert:
                position = bisect_right(keys, key) - 1
            else:
                position = bisect_left(keys, key) - 1
            if position < 0:
                page_id = page.overflow
            else:
                page_id = entries[position][1]
        return page_id, path

    def lookup(self, key) -> "Iterator[tuple[RID, tuple]]":
        if self._root == NO_PAGE:
            raise AccessMethodError("B-tree was never built")
        key_index = self._key_index
        page_id, _ = self._descend(key)
        while page_id != NO_PAGE:
            page, rows = self._leaf_rows(page_id)
            keys = [row[key_index] for row in rows]
            start = bisect_left(keys, key)
            if start == len(keys) and keys and keys[-1] < key:
                # Keys on this leaf all smaller: continue right once.
                page_id = page.overflow
                continue
            for slot in range(start, len(rows)):
                if keys[slot] != key:
                    return
                yield (page_id, slot), rows[slot]
            if keys and keys[-1] == key:
                page_id = page.overflow  # duplicates may continue
            else:
                return

    def delete(self, rid: RID) -> None:
        """Physically remove a record, preserving the leaf's sort order.

        The base implementation swaps the page's last record into the
        hole, which would unsort a leaf; here the tail shifts left
        instead.  Callers deleting several slots of one page must still
        proceed in descending slot order.
        """
        page_id, slot = rid
        page = self._file.read(page_id)
        records = page.records()
        if not 0 <= slot < len(records):
            raise AccessMethodError(f"invalid rid {rid}")
        records.pop(slot)
        self._rewrite(page_id, page, records)
        self._row_count -= 1

    def scan(self, page_filter=None) -> "Iterator[tuple[RID, tuple]]":
        """Key-ordered scan along the leaf chain (internal pages unread)."""
        if self._root == NO_PAGE:
            return
        page_id = self._root
        while page_id in self._internal:
            page_id = self._file.peek(page_id).overflow
        while page_id != NO_PAGE:
            if page_filter is not None and not page_filter(page_id):
                page_id = self._file.peek(page_id).overflow
                continue
            page, rows = self._leaf_rows(page_id)
            for slot, row in enumerate(rows):
                yield (page_id, slot), row
            page_id = page.overflow

    def scan_batches(self, page_filter=None, ahead=False):
        """Per-leaf batches along the leaf chain (internal pages unread)."""
        if self._root == NO_PAGE:
            return
        page_id = self._root
        while page_id in self._internal:
            page_id = self._file.peek(page_id).overflow
        leaves = [
            leaf for leaf in self._chain_ids(page_id)
            if page_filter is None or page_filter(leaf)
        ]
        yield from self._batches(leaves, ahead)

    def lookup_batches(self, key, ahead=False):
        """Per-leaf batches of the key's run (same metered descent/walk).

        Page by page whatever *ahead* says: where the run ends is only
        known once its last leaf has been read."""
        if self._root == NO_PAGE:
            raise AccessMethodError("B-tree was never built")
        key_index = self._key_index
        page_id, _ = self._descend(key)
        while page_id != NO_PAGE:
            page, rows = self._leaf_rows(page_id)
            keys = [row[key_index] for row in rows]
            start = bisect_left(keys, key)
            if start == len(keys) and keys and keys[-1] < key:
                page_id = page.overflow
                continue
            batch = []
            for slot in range(start, len(rows)):
                if keys[slot] != key:
                    yield batch
                    return
                batch.append(rows[slot])
            yield batch
            if keys and keys[-1] == key:
                page_id = page.overflow  # duplicates may continue
            else:
                return

    # -- insertion ------------------------------------------------------------------

    def insert(self, row: tuple) -> RID:
        if self._root == NO_PAGE:
            raise AccessMethodError("B-tree was never built")
        key = row[self._key_index]
        record = self._codec.encode(row)
        leaf_id, path = self._descend(key, for_insert=True)
        page, rows = self._leaf_rows(leaf_id)
        keys = [r[self._key_index] for r in rows]
        position = bisect_right(keys, key)
        records = page.records()
        records.insert(position, record)
        self._row_count += 1
        if len(records) <= page.capacity:
            self._rewrite(leaf_id, page, records)
            return (leaf_id, position)
        # Split the leaf.
        middle = len(records) // 2
        right_id, right_page = self._file.allocate()
        for moved in records[middle:]:
            right_page.append(moved)
        right_page.set_overflow(page.overflow)
        self._file.mark_dirty(right_id)
        page = self._file.read(leaf_id)
        self._rewrite(leaf_id, page, records[:middle], overflow=right_id)
        separator = self._codec.decode(records[middle])[self._key_index]
        self._insert_separator(path, separator, right_id, split_child=leaf_id)
        if position < middle:
            return (leaf_id, position)
        return (right_id, position - middle)

    def _insert_separator(
        self, path: "list[int]", key, child: int, split_child: int
    ) -> None:
        """Insert (key -> child) into the lowest internal node on *path*,
        splitting upwards as needed.

        The new entry goes immediately after *split_child* -- positioning
        by the split child's identity rather than by key keeps equal
        separator keys in leaf-chain order, which duplicate-heavy version
        workloads produce constantly.
        """
        entry = self._entry_codec.encode((key, child))
        while path:
            node_id = path.pop()
            page, entries = self._node_entries(node_id)
            children = [page.overflow] + [e[1] for e in entries]
            try:
                position = children.index(split_child)
            except ValueError:  # pragma: no cover - structural invariant
                raise AccessMethodError(
                    f"B-tree parent {node_id} lost child {split_child}"
                )
            records = page.records()
            records.insert(position, entry)
            if len(records) <= page.capacity:
                self._rewrite(node_id, page, records)
                return
            middle = len(records) // 2
            promoted = self._entry_codec.decode(records[middle])
            right_id, right_page = self._file.allocate(
                self._entry_codec.record_size
            )
            self._internal.add(right_id)
            right_page.set_overflow(promoted[1])
            for moved in records[middle + 1 :]:
                right_page.append(moved)
            self._file.mark_dirty(right_id)
            page = self._file.read(node_id)
            self._rewrite(node_id, page, records[:middle])
            key, child = promoted[0], right_id
            entry = self._entry_codec.encode((key, child))
            split_child = node_id
        # The root split: grow a new root.
        old_root = self._root
        root_id, root_page = self._file.allocate(
            self._entry_codec.record_size
        )
        self._internal.add(root_id)
        root_page.set_overflow(old_root)
        root_page.append(entry)
        self._file.mark_dirty(root_id)
        self._root = root_id
