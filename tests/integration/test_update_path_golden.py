"""Golden page accounting of the update path.

``replace ... where`` and ``delete ... where`` select their targets with
the same join ``retrieve`` runs; this file pins what those selections
read.  A fixed script of keyed, secondary-index, scan and undetached
self-join statements (retrieve, replace, delete) runs over a static and
a temporal relation on every structure, with one and three buffers per
relation and with statement atomicity on and off.  Every statement's
sorted rows, count and per-relation I/O (``result.io.as_dict()``) must
equal the committed golden file, entry for entry.

The temporal relation's repeated keyed replace grows key 3's version
chain past one page, so chained keyed reads are covered too.

Regenerate (only when a change is *meant* to move page counts)::

    PYTHONPATH=src python -m tests.integration.test_update_path_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Clock, TemporalDatabase, parse_temporal
from repro.errors import ReproError

GOLDEN = Path(__file__).resolve().parents[1] / "corpus" / "update_path.json"

STRUCTURES = ("heap", "hash", "isam", "btree", "twolevel")
BUFFERS = (1, 3)
CREATE = {
    "static": "create r (id = i4, v = i4, w = i4, pad = c40)",
    "temporal": "create persistent interval r "
                "(id = i4, v = i4, w = i4, pad = c40)",
}

SCRIPT = (
    # keyed
    "retrieve (x.id, x.v) where x.id = 3",
    *["replace x (v = x.v + 1) where x.id = 3"] * 6,
    "retrieve (x.id, x.v) where x.id = 3",
    # secondary index on w (a scan where the structure has no index)
    "retrieve (x.id, x.v) where x.w = 2",
    "replace x (v = x.v + 2) where x.w = 2",
    # scan
    "retrieve (x.id, x.v) where x.v > 150",
    "replace x (v = x.v + 3) where x.v > 200",
    # undetached self-joins: no conjunct names one variable alone
    "retrieve (x.id, y.v) where x.id = y.w",
    "replace x (v = y.v) where x.id = y.w",
    # deletes, same four shapes
    "delete x where x.id = 7",
    "delete x where x.w = 4",
    "delete x where x.v < 60",
    "delete x where x.id = y.w",
    "retrieve (x.id, x.v, x.w)",
)


def cells():
    for db_type in CREATE:
        for structure in STRUCTURES:
            if db_type == "static" and structure == "twolevel":
                continue  # a two-level store needs versions to split
            for buffers in BUFFERS:
                for atomic in (True, False):
                    yield db_type, structure, buffers, atomic


def label(db_type, structure, buffers, atomic) -> str:
    return (
        f"{db_type}/{structure}/buffers={buffers}/"
        f"atomic={'on' if atomic else 'off'}"
    )


def observe(db_type, structure, buffers, atomic) -> "list[dict]":
    """Run the script on a fresh database; one entry per statement."""
    db = TemporalDatabase(
        "golden",
        clock=Clock(start=parse_temporal("3/1/80"), tick=60),
        buffers_per_relation=buffers,
        atomic_statements=atomic,
    )
    db.execute(CREATE[db_type])
    db.copy_in("r", [(i, i * 10, i % 6, "p") for i in range(1, 25)])
    if structure != "heap":
        db.execute(f"modify r to {structure} on id")
    if structure != "btree":  # B-trees refuse secondary indexes
        levels = ' where structure = "hash", levels = 2' if (
            db_type == "temporal"
        ) else ""
        db.execute(f"index on r is rw (w){levels}")
    db.execute("range of x is r")
    db.execute("range of y is r")
    entries = []
    for text in SCRIPT:
        try:
            result = db.execute(text)
        except ReproError as error:
            entries.append({"error": type(error).__name__})
            continue
        entries.append({
            "rows": sorted(list(row) for row in result.rows),
            "count": result.count,
            "io": result.io.as_dict(),
        })
    return entries


def observe_all() -> "dict[str, list[dict]]":
    return {label(*cell): observe(*cell) for cell in cells()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_update_path_matches_golden(golden, cell):
    want = golden[label(*cell)]
    got = observe(*cell)
    assert len(got) == len(want) == len(SCRIPT)
    for text, mine, theirs in zip(SCRIPT, got, want):
        assert mine == theirs, text


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(label(*cell) for cell in cells())


def _write() -> None:
    observed = observe_all()
    lines = ["{"]
    for position, (key, entries) in enumerate(observed.items()):
        lines.append(f"  {json.dumps(key)}: [")
        for index, entry in enumerate(entries):
            comma = "," if index < len(entries) - 1 else ""
            lines.append(f"    {json.dumps(entry, sort_keys=True)}{comma}")
        lines.append("  ]," if position < len(observed) - 1 else "  ]")
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(observed)} cells to {GOLDEN}")


if __name__ == "__main__":
    _write()
