"""Database persistence: journaled, checksummed checkpoints.

The benchmark's metric depends on *physical layout* (which page each
version occupies, how long each overflow chain is), so persistence saves
exact page images rather than a logical dump:

* ``database.json`` -- the clock, range variables, per-relation metadata
  (schema, storage structure, ``snapshot_meta`` internals, secondary
  indexes) and a ``files`` map carrying each page file's whole-file CRC
  and page count;
* ``<file>.pages``  -- one binary file per stored relation file (primary
  and history stores and index files included): a header followed by
  each page's record size, CRC-32 and 1024-byte image.

``save(db, path)`` / ``load(path)`` round-trip everything: a restored
database answers every query with the same rows *and the same page
counts* as the original.  I/O statistics are not persisted (a restored
database starts with fresh counters), and in-flight temporaries do not
exist between statements.

Crash safety
------------

``save`` never writes into a live checkpoint.  It builds the complete
new checkpoint in a ``<path>.tmp`` sibling (manifest written and fsynced
*last*, so a readable manifest implies every page file was fully
written), then swaps directories: the old checkpoint is renamed to
``<path>.old``, the journal renamed into place, and the old checkpoint
removed.  A crash at any point leaves at least one complete checkpoint
on disk; :func:`recover_checkpoint` inspects the three directories and
promotes the surviving one.

``load`` verifies every checksum and the structural integrity of every
file.  Corruption raises a :class:`PersistError` subclass carrying the
offending ``path`` (and ``page`` for page-granular damage):
:class:`ChecksumError`, :class:`TruncatedFileError`,
:class:`TrailingGarbageError`, :class:`FormatVersionError`.  With
``salvage=True`` damaged relations are skipped instead: intact
relations load normally and ``db.salvage_report`` lists what was
recovered and what was dropped, with the error per dropped relation.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import struct
import zlib

from repro import fault
from repro.access.base import StructureKind
from repro.access.btree import BTreeFile
from repro.access.hashfile import HashFile
from repro.access.heap import HeapFile
from repro.access.isam import IsamFile
from repro.access.secondary import IndexLevels, SecondaryIndex
from repro.access.twolevel import HistoryLayout, TwoLevelStore
from repro.catalog.schema import DatabaseType, RelationKind, RelationSchema
from repro.engine.partition import PartitionedRelation
from repro.engine.relation import StoredRelation
from repro.errors import ReproError, StorageError
from repro.storage.record import FieldSpec
from repro.temporal.chronon import Clock

_MAGIC = b"TQRP"
_VERSION = 2
_HEADER = struct.Struct("<4sHI")  # magic, version, page count
_PAGE_HEADER = struct.Struct("<HI")  # record size, CRC-32 of the image
_PAGE_SIZE = 1024

MANIFEST = "database.json"


class PersistError(ReproError):
    """A checkpoint directory is missing, corrupt, or incompatible.

    ``path`` names the offending file (or directory) when known;
    ``page`` gives the zero-based page index for page-granular damage.
    """

    def __init__(self, message: str, path=None, page: "int | None" = None):
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.page = page


class ChecksumError(PersistError):
    """Stored and recomputed CRC-32 disagree: the bytes changed on disk."""


class TruncatedFileError(PersistError):
    """A file ends mid-structure (torn write or partial copy)."""


class TrailingGarbageError(PersistError):
    """A page file continues past its last declared page."""


class FormatVersionError(PersistError):
    """The checkpoint was written by an incompatible format version."""


# -- page files --------------------------------------------------------------


def _dump_file(buffered, path: pathlib.Path) -> dict:
    """Write one ``.pages`` file; return its manifest entry (crc, pages)."""
    pages = list(buffered.dump_pages())
    crc = 0
    with open(path, "wb") as handle:
        chunk = _HEADER.pack(_MAGIC, _VERSION, len(pages))
        handle.write(chunk)
        crc = zlib.crc32(chunk, crc)
        for record_size, image in pages:
            chunk = _PAGE_HEADER.pack(record_size, zlib.crc32(image))
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
            fault.point("pager.write")
            handle.write(image)
            crc = zlib.crc32(image, crc)
        handle.flush()
        os.fsync(handle.fileno())
    return {"crc": crc, "pages": len(pages)}


def _load_file(buffered, path: pathlib.Path, expected: "dict | None") -> None:
    """Verify and restore one ``.pages`` file into *buffered*.

    Structural damage is reported page-first (a page coordinate beats a
    bare "file is bad"); the whole-file CRC runs last and catches
    corruption the structural pass cannot localise (header fields,
    stored checksums themselves).
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise PersistError(
            f"{path}: missing page file", path=path
        ) from None
    if len(data) < _HEADER.size:
        raise TruncatedFileError(
            f"{path}: truncated page file (no header)", path=path
        )
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise PersistError(
            f"{path}: not a tquel-repro page file", path=path
        )
    if version != _VERSION:
        raise FormatVersionError(
            f"{path}: unsupported page-file format version {version} "
            f"(this build reads version {_VERSION})",
            path=path,
        )
    if expected is not None and count != expected.get("pages"):
        raise PersistError(
            f"{path}: header declares {count} pages but the manifest "
            f"recorded {expected.get('pages')}",
            path=path,
        )

    pairs = []
    offset = _HEADER.size
    for page_id in range(count):
        if offset + _PAGE_HEADER.size > len(data):
            raise TruncatedFileError(
                f"{path}: truncated at page {page_id} header",
                path=path,
                page=page_id,
            )
        record_size, stored_crc = _PAGE_HEADER.unpack_from(data, offset)
        offset += _PAGE_HEADER.size
        image = data[offset : offset + _PAGE_SIZE]
        if len(image) != _PAGE_SIZE:
            raise TruncatedFileError(
                f"{path}: truncated page image at page {page_id}",
                path=path,
                page=page_id,
            )
        offset += _PAGE_SIZE
        if zlib.crc32(image) != stored_crc:
            raise ChecksumError(
                f"{path}: page {page_id} checksum mismatch",
                path=path,
                page=page_id,
            )
        pairs.append((record_size, image))
    if offset != len(data):
        raise TrailingGarbageError(
            f"{path}: {len(data) - offset} byte(s) of trailing garbage "
            f"after the last page",
            path=path,
        )
    if expected is not None and zlib.crc32(data) != expected.get("crc"):
        raise ChecksumError(
            f"{path}: file checksum mismatch", path=path
        )

    try:
        buffered.load_pages(pairs)
    except StorageError as exc:
        raise PersistError(
            f"{path}: corrupt page structure: {exc}", path=path
        ) from exc


def _relation_files(relation: StoredRelation) -> "list[str]":
    if getattr(relation, "is_partitioned", False):
        return list(relation.file_names())
    if relation.is_two_level:
        files = [f"{relation.name}.primary", f"{relation.name}.history"]
    else:
        files = [relation.name]
    for index in relation.indexes.values():
        if index.levels is IndexLevels.TWO_LEVEL:
            files.extend([f"{index.name}.current", f"{index.name}.history"])
        else:
            files.append(index.name)
    return files


def _schema_meta(schema: RelationSchema) -> dict:
    return {
        "name": schema.name,
        "type": schema.type.value,
        "kind": schema.kind.value,
        "user_fields": [
            [spec.name, spec.type_text] for spec in schema.user_fields
        ],
    }


def _schema_from_meta(meta: dict) -> RelationSchema:
    return RelationSchema(
        meta["name"],
        [FieldSpec.parse(name, text) for name, text in meta["user_fields"]],
        type=DatabaseType(meta["type"]),
        kind=RelationKind(meta["kind"]),
    )


# -- save --------------------------------------------------------------------


def _journal_paths(path):
    root = pathlib.Path(path)
    return (
        root,
        root.parent / (root.name + ".tmp"),
        root.parent / (root.name + ".old"),
    )


def save(db, path) -> None:
    """Checkpoint *db* into directory *path*, journaled.

    The checkpoint is built complete in ``<path>.tmp`` and atomically
    swapped into place; an existing checkpoint at *path* survives any
    crash before the swap finishes.
    """
    root, tmp, old = _journal_paths(path)
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    db.pool.flush_all()

    relations = []
    files = {}
    for name in db.relation_names():
        relation = db.relation(name)
        entry = {
            "schema": _schema_meta(relation.schema),
            "structure": relation.structure.value,
            "key_attribute": relation.key_attribute,
            "fillfactor": relation.fillfactor,
            "history_layout": (
                relation.history_layout.value
                if relation.history_layout is not None
                else None
            ),
            "storage": relation.storage.snapshot_meta(),
            "zone_map": (
                sorted(relation.zone_map.items())
                if relation.zone_map is not None
                else None
            ),
            "indexes": [
                {
                    "name": index.name,
                    "attribute": index.attribute,
                    "structure": index.structure.value,
                    "levels": index.levels.value,
                    "meta": index.snapshot_meta(),
                }
                for index in relation.indexes.values()
            ],
        }
        if getattr(relation, "is_partitioned", False):
            entry["partition"] = {
                "method": relation.partition_method,
                "attribute": relation.partition_attribute,
                "count": relation.partition_count,
                "bounds": relation.partition_bounds,
                "parallel": relation.parallel,
            }
        relations.append(entry)
        for file_name in _relation_files(relation):
            files[file_name] = _dump_file(
                db.pool.file(file_name), tmp / f"{file_name}.pages"
            )

    manifest = {
        "format": _VERSION,
        "name": db.name,
        "clock": {"now": db.clock.now(), "tick": db.clock.tick},
        "ranges": dict(db.ranges),
        "files": files,
        "relations": relations,
    }
    query_stats = getattr(db, "query_stats", None)
    if query_stats is not None and len(query_stats):
        # Statistics ride along so a restored database keeps its
        # per-fingerprint history (pg_stat_statements survives restarts
        # the same way).  Absent on older checkpoints -- load() treats
        # the key as optional.
        manifest["querystats"] = query_stats.snapshot()
    update_counts = getattr(db, "_update_counts", None)
    if update_counts is not None:
        # Optimizer statistics ride along too: the Fig. 9 cost model's
        # update counts and the epoch that invalidates cached plans.
        # Absent on older checkpoints -- load() treats the key as
        # optional.
        manifest["catalogstats"] = {
            "stats_epoch": getattr(db, "stats_epoch", 0),
            "update_counts": {
                name: count
                for name, count in sorted(update_counts.items())
                if count
            },
        }
    # The manifest is written and fsynced last: its presence marks the
    # journal directory complete (its checksums then prove the rest).
    with open(tmp / MANIFEST, "w", encoding="ascii") as handle:
        handle.write(json.dumps(manifest, indent=2))
        fault.point("checkpoint.fsync")
        handle.flush()
        os.fsync(handle.fileno())

    fault.point("checkpoint.rename")
    if old.exists():
        shutil.rmtree(old)
    if root.exists():
        root.rename(old)
    fault.point("checkpoint.swap")
    tmp.rename(root)
    if old.exists():
        shutil.rmtree(old)
    recorder = getattr(db, "recorder", None)
    if recorder is not None:
        recorder.record(
            "checkpoint.save", path=str(root), files=len(files)
        )


def _manifest_ok(directory: pathlib.Path) -> bool:
    """Whether *directory* holds a complete checkpoint (manifest parses).

    The manifest is written last during :func:`save`, so a parseable
    manifest implies the directory's page files were all fully written;
    their checksums are verified at :func:`load` time.
    """
    manifest_path = directory / MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    except (OSError, ValueError, UnicodeDecodeError):
        return False
    return isinstance(manifest, dict) and "format" in manifest


def recover_checkpoint(path) -> str:
    """Repair the checkpoint at *path* after an interrupted save.

    Inspects ``<path>``, ``<path>.tmp`` and ``<path>.old`` and keeps the
    best complete checkpoint: the current directory if its manifest is
    complete, else the journal (a save that crashed after the manifest
    fsync but before the swap finished), else the previous checkpoint.
    Returns what happened: ``"clean"`` (nothing to do),
    ``"kept-current"`` (leftovers removed), ``"promoted-journal"`` or
    ``"restored-previous"``.  Raises :class:`PersistError` when no
    complete checkpoint survives.
    """
    root, tmp, old = _journal_paths(path)
    leftovers = tmp.exists() or old.exists()
    if _manifest_ok(root):
        for leftover in (tmp, old):
            if leftover.exists():
                shutil.rmtree(leftover)
        return "kept-current" if leftovers else "clean"
    if _manifest_ok(tmp):
        if root.exists():
            shutil.rmtree(root)
        tmp.rename(root)
        if old.exists():
            shutil.rmtree(old)
        return "promoted-journal"
    if _manifest_ok(old):
        if root.exists():
            shutil.rmtree(root)
        old.rename(root)
        if tmp.exists():
            shutil.rmtree(tmp)
        return "restored-previous"
    raise PersistError(
        f"{root}: no complete checkpoint found (checked {root.name}, "
        f"{tmp.name}, {old.name})",
        path=root,
    )


# -- load --------------------------------------------------------------------


def _restore_conventional(db, relation: StoredRelation, entry, root, files):
    structure = StructureKind(entry["structure"])
    schema = relation.schema
    key_index = (
        schema.position(entry["key_attribute"])
        if entry["key_attribute"]
        else None
    )
    file = db.pool.create_file(schema.name, schema.record_size)
    _load_file(
        file, root / f"{schema.name}.pages", files.get(schema.name)
    )
    if structure is StructureKind.HEAP:
        storage = HeapFile(file, schema.codec, key_index)
    elif structure is StructureKind.HASH:
        storage = HashFile(file, schema.codec, key_index)
    elif structure is StructureKind.ISAM:
        storage = IsamFile(file, schema.codec, key_index)
    elif structure is StructureKind.BTREE:
        storage = BTreeFile(file, schema.codec, key_index)
    else:  # pragma: no cover - dispatched by caller
        raise PersistError(f"unknown structure {structure}")
    storage.restore_meta(entry["storage"])
    relation._storage = storage


def _restore_two_level(db, relation: StoredRelation, entry, root, files):
    schema = relation.schema
    meta = entry["storage"]
    key_index = schema.position(entry["key_attribute"])
    store = TwoLevelStore(
        db.pool,
        schema.name,
        schema.codec,
        key_index,
        primary_kind=StructureKind(meta["primary_kind"]),
        layout=HistoryLayout(meta["layout"]),
    )
    for part in ("primary", "history"):
        name = f"{schema.name}.{part}"
        _load_file(db.pool.file(name), root / f"{name}.pages", files.get(name))
    store.restore_meta(meta)
    relation._storage = store
    relation.history_layout = HistoryLayout(meta["layout"])


def _restore_indexes(db, relation: StoredRelation, entry, root, files):
    for index_entry in entry["indexes"]:
        index = SecondaryIndex(
            db.pool,
            index_entry["name"],
            index_entry["attribute"],
            relation.schema.position(index_entry["attribute"]),
            relation.schema.field_for(index_entry["attribute"]),
            structure=StructureKind(index_entry["structure"]),
            levels=IndexLevels(index_entry["levels"]),
        )
        if index.levels is IndexLevels.TWO_LEVEL:
            names = [f"{index.name}.current", f"{index.name}.history"]
        else:
            names = [index.name]
        for file_name in names:
            _load_file(
                db.pool.file(file_name),
                root / f"{file_name}.pages",
                files.get(file_name),
            )
        index.restore_meta(index_entry["meta"])
        relation.indexes[index.name] = index


def _restore_partitioned(db, entry, root, files) -> PartitionedRelation:
    """Restore a partitioned relation: facade, children, pruning bounds."""
    schema = _schema_from_meta(entry["schema"])
    part = entry["partition"]
    relation = PartitionedRelation(
        schema,
        db.pool,
        clock=db.clock,
        method=part["method"],
        attribute=part["attribute"],
        count=int(part["count"]),
        bounds=part["bounds"],
        # Thread gather was removed; a checkpoint that stored it loads
        # as the serial scan it always matched.
        parallel=(
            "serial" if part["parallel"] == "thread" else part["parallel"]
        ),
        metrics=getattr(db, "metrics", None),
        tracer=getattr(db, "tracer", None),
        recorder=getattr(db, "recorder", None),
        heatmap=getattr(db, "heatmap", None),
    )
    structure = StructureKind(entry["structure"])
    key = entry["key_attribute"] or None
    fillfactor = int(entry["fillfactor"])
    store_meta = entry["storage"]
    for child, child_meta in zip(relation.children, store_meta["children"]):
        child_entry = {
            "structure": entry["structure"],
            "key_attribute": entry["key_attribute"],
            "storage": child_meta,
        }
        _restore_conventional(db, child, child_entry, root, files)
        child.structure = structure
        child.key_attribute = key
        child.fillfactor = fillfactor
    relation.structure = structure
    relation.key_attribute = key
    relation.fillfactor = fillfactor
    relation.tx_min = [
        None if value is None else int(value)
        for value in store_meta["tx_min"]
    ]
    if entry.get("zone_map") is not None:
        relation.zone_map = {
            (int(key_pair[0]), int(key_pair[1])): int(start)
            for key_pair, start in entry["zone_map"]
        }
    return relation


def _restore_relation(db, entry, root, files) -> StoredRelation:
    """Restore one relation (storage, zone map, indexes) from *entry*."""
    if entry.get("partition") is not None:
        return _restore_partitioned(db, entry, root, files)
    schema = _schema_from_meta(entry["schema"])
    relation = StoredRelation(schema, db.pool, clock=db.clock)
    structure = StructureKind(entry["structure"])
    if structure is StructureKind.TWO_LEVEL:
        _restore_two_level(db, relation, entry, root, files)
    else:
        _restore_conventional(db, relation, entry, root, files)
    relation.structure = structure
    relation.key_attribute = entry["key_attribute"] or None
    relation.fillfactor = int(entry["fillfactor"])
    if entry.get("zone_map") is not None:
        relation.zone_map = {
            int(page_id): int(start) for page_id, start in entry["zone_map"]
        }
    _restore_indexes(db, relation, entry, root, files)
    return relation


def _drop_relation_files(db, entry) -> None:
    """Forget pool files of a relation whose restore failed (salvage)."""
    name = entry.get("schema", {}).get("name", "")
    candidates = [name, f"{name}.primary", f"{name}.history"]
    partition = entry.get("partition") or {}
    for pid in range(int(partition.get("count", 0) or 0)):
        candidates.append(f"{name}#{pid}")
    for index_entry in entry.get("indexes", []):
        index_name = index_entry.get("name", "")
        candidates.extend(
            [index_name, f"{index_name}.current", f"{index_name}.history"]
        )
    for candidate in candidates:
        if candidate:
            db.pool.drop_file(candidate)


def _read_manifest(root: pathlib.Path) -> dict:
    manifest_path = root / MANIFEST
    if not manifest_path.exists():
        hint = ""
        _, tmp, old = _journal_paths(root)
        if tmp.exists() or old.exists():
            hint = (
                " (an interrupted save left journal directories; run "
                "recover_checkpoint first)"
            )
        raise PersistError(
            f"{root}: no {MANIFEST} checkpoint found{hint}",
            path=manifest_path,
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise PersistError(
            f"{manifest_path}: corrupt manifest: {exc}", path=manifest_path
        ) from exc
    if not isinstance(manifest, dict):
        raise PersistError(
            f"{manifest_path}: corrupt manifest: not an object",
            path=manifest_path,
        )
    if manifest.get("format") != _VERSION:
        raise FormatVersionError(
            f"{manifest_path}: unsupported checkpoint format "
            f"{manifest.get('format')!r} (this build reads version "
            f"{_VERSION})",
            path=manifest_path,
        )
    return manifest


def load(path, database_class=None, salvage: bool = False):
    """Restore a database checkpointed with :func:`save`.

    Every checksum is verified; corruption raises a structured
    :class:`PersistError` naming the damaged file (and page).  With
    ``salvage=True`` relations whose files are damaged are skipped
    instead and ``db.salvage_report`` describes the outcome::

        {"recovered": [names...],
         "skipped": [{"relation": name, "error": message}, ...]}
    """
    from repro.engine.database import TemporalDatabase

    root = pathlib.Path(path)
    manifest = _read_manifest(root)

    cls = database_class if database_class is not None else TemporalDatabase
    try:
        db = cls(
            name=manifest["name"],
            clock=Clock(
                start=int(manifest["clock"]["now"]),
                tick=int(manifest["clock"]["tick"]),
            ),
        )
        files = manifest.get("files", {})
        entries = manifest["relations"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(
            f"{root / MANIFEST}: malformed manifest: {exc!r}",
            path=root / MANIFEST,
        ) from exc

    report = {"recovered": [], "skipped": []}
    for entry in entries:
        try:
            relation = _restore_relation(db, entry, root, files)
        except PersistError as exc:
            if not salvage:
                raise
            _drop_relation_files(db, entry)
            report["skipped"].append(
                {
                    "relation": entry.get("schema", {}).get("name", "?"),
                    "error": str(exc),
                }
            )
            continue
        except (KeyError, TypeError, ValueError) as exc:
            wrapped = PersistError(
                f"{root / MANIFEST}: malformed relation entry: {exc!r}",
                path=root / MANIFEST,
            )
            if not salvage:
                raise wrapped from exc
            _drop_relation_files(db, entry)
            report["skipped"].append(
                {
                    "relation": entry.get("schema", {}).get("name", "?"),
                    "error": str(wrapped),
                }
            )
            continue
        schema = relation.schema
        report["recovered"].append(schema.name)
        db._relations[schema.name] = relation
        db.catalog.record_create(schema)
        db.catalog.record_modify(
            schema.name,
            relation.structure.value,
            relation.key_attribute or "",
            relation.fillfactor,
        )
        if getattr(relation, "is_partitioned", False):
            db.catalog.record_partition(
                schema.name,
                relation.partition_method,
                relation.partition_attribute,
                relation.partition_count,
                relation.parallel,
            )

    for var, relation_name in manifest.get("ranges", {}).items():
        if relation_name in db._relations or relation_name in (
            "relations", "attributes", "partitions",
        ):
            db.ranges[var] = relation_name
    db.pool.flush_all()
    db.stats.reset()
    query_stats = getattr(db, "query_stats", None)
    if query_stats is not None and manifest.get("querystats"):
        query_stats.restore(manifest["querystats"])
    catalog_stats = manifest.get("catalogstats")
    if catalog_stats and hasattr(db, "_update_counts"):
        db._update_counts.clear()
        for name, count in catalog_stats.get("update_counts", {}).items():
            db._update_counts[name] = int(count)
        db._epoch = int(catalog_stats.get("stats_epoch", 0))
    if salvage:
        db.salvage_report = report
    recorder = getattr(db, "recorder", None)
    if recorder is not None:
        recorder.record(
            "checkpoint.restore",
            path=str(root),
            relations=len(report["recovered"]),
            skipped=len(report["skipped"]),
        )
    return db
