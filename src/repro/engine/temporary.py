"""Temporary relations created by one-variable detachment.

Ingres's decomposition stores the result of a detached one-variable
subquery in a temporary relation; the paper's output costs "result from
storing temporary relations" and their reads during tuple substitution are
part of the input costs (56 pages each for Q09 and Q10, 4 for Q12).
Temporaries are therefore metered exactly like user relations.

A temporary is always a heap; it lives for the duration of one statement.
"""

from __future__ import annotations

import itertools

from repro.access.heap import HeapFile
from repro.storage.buffer import BufferPool
from repro.storage.record import FieldSpec, RecordCodec


class TemporaryRelation:
    """A single-statement heap of intermediate tuples."""

    def __init__(self, pool: BufferPool, name: str, fields: "list[FieldSpec]"):
        self._pool = pool
        self.name = name
        self.fields = list(fields)
        self.codec = RecordCodec(self.fields)
        self._heap = HeapFile(
            pool.create_file(name, self.codec.record_size), self.codec
        )
        self._heap.build([])

    @property
    def row_count(self) -> int:
        return self._heap.row_count

    @property
    def page_count(self) -> int:
        return self._heap.page_count

    def append(self, row: tuple) -> None:
        self._heap.insert(row)

    def finish_writing(self) -> None:
        """Flush buffered pages so output writes are accounted."""
        self._heap.file.flush()

    def scan(self):
        """Yield stored rows (metered reads)."""
        for _, row in self._heap.scan():
            yield row

    def scan_batches(self, ahead: bool = False):
        """Yield per-page row batches (same metered reads as scan)."""
        for _, rows in self._heap.scan_batches(ahead=ahead):
            yield rows

    def drop(self) -> None:
        self._pool.drop_file(self.name)


class TemporaryFactory:
    """Names and creates temporaries for one database."""

    def __init__(self, pool: BufferPool):
        self._pool = pool
        # itertools.count: atomic under the GIL, so concurrent statements
        # detaching at the same time can never collide on a name.
        self._ids = itertools.count(1)

    def create(self, fields: "list[FieldSpec]") -> TemporaryRelation:
        return TemporaryRelation(
            self._pool, f"_temp{next(self._ids)}", fields
        )
