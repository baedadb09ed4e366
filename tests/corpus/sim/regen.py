"""Regenerate the committed sim seed corpus.

Each case is a small hand-written TQuel workload shaped after the
paper's twelve benchmark queries (Q01-Q12, ``repro.bench.queries``),
spread across the four database types and the five access methods.  The
script runs every case through the differential harness and refuses to
write a file whose engine/oracle runs disagree, so the committed corpus
is by construction a zero-divergence baseline.

    PYTHONPATH=src python tests/corpus/sim/regen.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.sim.corpus import write_case
from repro.sim.generator import (
    DEFAULT_CLOCK_START,
    DEFAULT_CLOCK_TICK,
    Workload,
)
from repro.sim.harness import Config, run_workload
from repro.tquel.parser import parse_statement

HERE = Path(__file__).resolve().parent

# (name, db_type, structure, atomic, statements)
CASES = [
    (
        "01-static-heap-keyprobe",
        "static",
        "heap",
        True,
        [
            'create hrel (id = i4, seq = i4, amount = i4)',
            'create irel (id = i4, seq = i4, amount = i4)',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 50)',
            'append to hrel (id = 2, seq = 20, amount = 60)',
            'append to hrel (id = 3, seq = 30, amount = 50)',
            'append to irel (id = 1, seq = 11, amount = 2)',
            'append to irel (id = 2, seq = 21, amount = 3)',
            # Q01/Q02: key probes.
            'retrieve (h.id, h.seq) where h.id = 2',
            'retrieve (i.id, i.seq) where i.id = 1',
            # Q07: non-key probe.
            'retrieve (h.id, h.seq) where h.amount = 50',
            'replace h (amount = 70) where h.id = 3',
            'retrieve (h.id, h.seq) where h.amount = 50',
            'retrieve (n = count(h.id))',
        ],
    ),
    (
        "02-static-hash-amountprobe",
        "static",
        "hash",
        False,
        [
            'create hrel (id = i4, seq = i4, amount = i4)',
            'modify hrel to hash on id',
            'index on hrel is ixam (amount)',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 50)',
            'append to hrel (id = 2, seq = 20, amount = 60)',
            'append to hrel (id = 3, seq = 30, amount = 60)',
            # Q01: hashed key probe; Q07/Q08: secondary-index probe.
            'retrieve (h.id, h.seq) where h.id = 1',
            'retrieve (h.id, h.seq) where h.amount = 60',
            # Key-changing replace relocates the record (deferred move).
            'replace h (id = 9) where h.id = 2',
            'retrieve (h.id, h.seq) where h.id = 9',
            'delete h where h.amount = 50',
            'retrieve (h.id, h.seq) where h.id = 1',
            'retrieve (h.id, h.seq) where h.amount = 60',
        ],
    ),
    (
        "03-static-btree-join",
        "static",
        "btree",
        True,
        [
            'create hrel (id = i4, seq = i4, amount = i4)',
            'create irel (id = i4, seq = i4, amount = i4)',
            'modify hrel to btree on id',
            'modify irel to btree on id',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2)',
            'append to hrel (id = 2, seq = 20, amount = 1)',
            'append to irel (id = 1, seq = 11, amount = 2)',
            'append to irel (id = 2, seq = 21, amount = 1)',
            # Q09/Q10: two-variable joins on id = amount.
            'retrieve (h.id, i.id, i.amount) where h.id = i.amount',
            'retrieve (i.id, h.id, h.amount) where i.id = h.amount',
            'retrieve unique (h.amount) where h.id > 0',
        ],
    ),
    (
        "04-rollback-hash-asof",
        "rollback",
        "hash",
        True,
        [
            'create persistent hrel (id = i4, seq = i4, amount = i4)',
            'create persistent irel (id = i4, seq = i4, amount = i4)',
            'modify hrel to hash on id',
            'modify irel to hash on id',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 50)',
            'append to hrel (id = 2, seq = 20, amount = 60)',
            'append to irel (id = 1, seq = 11, amount = 1)',
            'delete h where h.id = 1',
            'replace i (seq = 12) where i.id = 1',
            # Q03/Q04: rollback queries into the transaction past.
            'retrieve (h.id, h.seq) as of "1980-03-01 02:30:00"',
            'retrieve (i.id, i.seq) as of "1980-03-01 03:30:00"',
            # Q05/Q06: current-state probes on a rollback database.
            'retrieve (h.id, h.seq) where h.id = 1 as of "now"',
            'retrieve (i.id, i.seq) where i.id = 1 as of "now"',
        ],
    ),
    (
        "05-rollback-isam-vacuum",
        "rollback",
        "isam",
        False,
        [
            'create persistent hrel (id = i4, seq = i4, amount = i4)',
            'modify hrel to isam on id',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 50)',
            'append to hrel (id = 2, seq = 20, amount = 60)',
            'append to hrel (id = 3, seq = 30, amount = 70)',
            'replace h (amount = 99) where h.id = 1',
            'delete h where h.id = 2',
            'retrieve (h.id, h.amount) as of "1980-03-01 03:30:00"',
            'vacuum hrel before "1980-03-01 04:30:00"',
            # The vacuumed past is gone; the present is intact.
            'retrieve (h.id, h.amount) as of "1980-03-01 03:30:00"',
            'retrieve (h.id, h.amount) as of "now"',
            'retrieve (n = count(h.id)) as of "now"',
        ],
    ),
    (
        "06-rollback-twolevel-join",
        "rollback",
        "twolevel",
        True,
        [
            'create persistent hrel (id = i4, seq = i4, amount = i4)',
            'create persistent irel (id = i4, seq = i4, amount = i4)',
            'modify hrel to twolevel on id',
            'modify irel to twolevel on id where primary = "isam"',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2)',
            'append to hrel (id = 2, seq = 20, amount = 1)',
            'append to irel (id = 1, seq = 11, amount = 2)',
            'append to irel (id = 2, seq = 21, amount = 1)',
            'replace h (seq = 15) where h.id = 1',
            # Q09/Q10 on a rollback database: joins as of now.
            'retrieve (h.id, i.id, i.amount) where h.id = i.amount '
            'as of "now"',
            'retrieve (i.id, h.id, h.amount) where i.id = h.amount '
            'as of "now"',
            # Key changes cannot relocate inside a two-level store: both
            # sides must refuse, leaving state untouched.
            'replace h (id = 7) where h.id = 1',
            'retrieve (h.id, h.seq) as of "1980-03-01 04:30:00"',
        ],
    ),
    (
        "07-historical-heap-current",
        "historical",
        "heap",
        True,
        [
            'create interval hrel (id = i4, seq = i4, amount = i4)',
            'create event irel (id = i4, seq = i4, amount = i4)',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 50) '
            'valid from "1980-03-01 00:30:00" to "1980-03-10"',
            'append to hrel (id = 2, seq = 20, amount = 60) '
            'valid from "1980-03-05" to "1980-03-06"',
            'append to irel (id = 1, seq = 11, amount = 2) '
            'valid at "1980-03-01 01:30:00"',
            # Q05/Q06 on a historical database: when ... overlap "now".
            'retrieve (h.id, h.seq) where h.id = 1 when h overlap "now"',
            'retrieve (h.id, h.seq) where h.id = 2 when h overlap "now"',
            'retrieve (i.id, i.seq) where i.id = 1',
            'delete h where h.id = 1',
            'retrieve (h.id, h.seq) when h overlap "now"',
            'retrieve (h.id, h.seq, h.amount)',
        ],
    ),
    (
        "08-historical-hash-index",
        "historical",
        "hash",
        True,
        [
            'create interval hrel (id = i4, seq = i4, amount = i4)',
            'modify hrel to hash on id',
            'index on hrel is ixam (amount) where structure = "hash", '
            'levels = 2',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 50) '
            'valid from "1980-03-01" to "1980-03-20"',
            'append to hrel (id = 2, seq = 20, amount = 50) '
            'valid from "1980-03-02" to "1980-03-03"',
            'append to hrel (id = 3, seq = 30, amount = 60) '
            'valid from "1980-03-10" to "1980-03-12"',
            # Q07/Q08: secondary-index probes, current and all-versions.
            'retrieve (h.id, h.seq) where h.amount = 50 '
            'when h overlap "now"',
            'retrieve (h.id, h.seq) where h.amount = 50',
            # Postactive correction that changes the hash key: the record
            # must relocate, not be rewritten into the wrong bucket.
            'replace h (id = 9, amount = 70) where h.id = 3',
            'retrieve (h.id, h.seq) where h.id = 9',
            'retrieve (h.id, h.amount) where h.amount = 70',
            'delete h where h.id = 1',
            'retrieve (h.id, h.seq) where h.amount = 50',
        ],
    ),
    (
        "09-historical-twolevel-join",
        "historical",
        "twolevel",
        False,
        [
            'create interval hrel (id = i4, seq = i4, amount = i4)',
            'create interval irel (id = i4, seq = i4, amount = i4)',
            'modify hrel to twolevel on id',
            'modify irel to twolevel on id where history = "clustered"',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2) '
            'valid from "1980-03-01" to "1980-04-01"',
            'append to hrel (id = 2, seq = 20, amount = 1) '
            'valid from "1980-03-01" to "1980-03-02"',
            'append to irel (id = 1, seq = 11, amount = 2) '
            'valid from "1980-03-01" to "1980-04-01"',
            'append to irel (id = 2, seq = 21, amount = 1) '
            'valid from "1980-03-01" to "1980-04-01"',
            'replace h (seq = 12) where h.id = 1',
            # Q09/Q10 with the paper's extra two-level currency conjunct.
            'retrieve (h.id, i.id, i.amount) where h.id = i.amount '
            'when h overlap i and i overlap "now" and h overlap "now"',
            'retrieve (i.id, h.id, h.amount) where i.id = h.amount '
            'when i overlap h and h overlap "now" and i overlap "now"',
        ],
    ),
    (
        "10-temporal-isam-q11",
        "temporal",
        "isam",
        True,
        [
            'create persistent interval hrel (id = i4, seq = i4, '
            'amount = i4)',
            'create persistent interval irel (id = i4, seq = i4, '
            'amount = i4)',
            'modify hrel to isam on id',
            'modify irel to isam on id',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2) '
            'valid from "1980-03-01 00:10:00" to "1980-03-05"',
            'append to irel (id = 1, seq = 11, amount = 2) '
            'valid from "1980-03-02" to "1980-03-08"',
            'append to irel (id = 2, seq = 21, amount = 1) '
            'valid from "1980-03-01 00:20:00" to "1980-03-03"',
            # Q11: derived validity with an event comparison.
            'retrieve (h.id, h.seq, i.id, i.seq, i.amount) '
            'valid from start of h to end of i '
            'when start of h precede i as of "now"',
            'retrieve (h.id, i.id) when h precede i',
        ],
    ),
    (
        "11-temporal-btree-q12",
        "temporal",
        "btree",
        True,
        [
            'create persistent interval hrel (id = i4, seq = i4, '
            'amount = i4)',
            'create persistent interval irel (id = i4, seq = i4, '
            'amount = i4)',
            'modify hrel to btree on id',
            'modify irel to btree on id',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2) '
            'valid from "1980-03-01 00:10:00" to "1980-03-09"',
            'append to irel (id = 1, seq = 11, amount = 2) '
            'valid from "1980-03-02" to "1980-03-08"',
            # Temporal replace: stamps the old version and inserts a
            # closing version plus the replacement (two new versions).
            'replace h (seq = 12) where h.id = 1',
            # Q12: intersection/extension validity over a join.
            'retrieve (h.id, h.seq, i.id, i.seq, i.amount) '
            'valid from start of (h overlap i) to end of (h extend i) '
            'where h.id = 1 and i.amount = 2 when h overlap i '
            'as of "now"',
            'delete h where h.id = 1',
            'retrieve (h.id, h.seq) when h overlap "now"',
            'retrieve (h.id, h.seq) as of "1980-03-01 03:30:00"',
        ],
    ),
    (
        "12-temporal-twolevel-history",
        "temporal",
        "twolevel",
        True,
        [
            'create persistent event hrel (id = i4, seq = i4, '
            'amount = i4)',
            'modify hrel to twolevel on id where primary = "hash"',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 5) '
            'valid at "1980-03-01 00:30:00"',
            'append to hrel (id = 2, seq = 20, amount = 6)',
            'replace h (seq = 11) where h.id = 1',
            'retrieve (h.id, h.seq)',
            # The pre-replace state is still visible in the past.
            'retrieve (h.id, h.seq) as of "1980-03-01 02:30:00"',
            'delete h where h.id = 2',
            'retrieve (h.id, h.seq, h.amount) as of "now"',
            'retrieve (n = count(h.id)) as of "now"',
        ],
    ),
]

# Cases on workloads where the cost-based optimizer's decisions and the
# fixed strategy's differ; 13 and 16 were written to pin the fixed
# strategy, and tests/property/test_optimizer_differential.py replays
# them with Planner.fixed_choice substituted for Planner.choose.
OPTIMIZER_CASES = [
    (
        "13-static-hash",
        "static",
        "hash",
        True,
        [
            'create hrel (id = i4, seq = i4, amount = i4)',
            'modify hrel to hash on id',
            'index on hrel is ixam (amount)',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 50)',
            'append to hrel (id = 2, seq = 20, amount = 60)',
            'append to hrel (id = 3, seq = 30, amount = 60)',
            # Fixed strategy: key probe then index probe, never a scan.
            'retrieve (h.id, h.seq) where h.id = 2',
            'retrieve (h.id, h.seq) where h.amount = 60',
            'delete h where h.id = 3',
            'retrieve (h.id, h.seq) where h.amount = 60',
        ],
    ),
    (
        "14-temporal-isam-optscan",
        "temporal",
        "isam",
        True,
        [
            'create persistent interval hrel (id = i4, seq = i4, '
            'amount = i4)',
            'modify hrel to isam on id',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 2) '
            'valid from "1980-03-01 00:10:00" to "1980-03-05"',
            'append to hrel (id = 2, seq = 20, amount = 3) '
            'valid from "1980-03-02" to "1980-03-08"',
            # One data page: the optimizer prefers the scan over the
            # two-page ISAM directory descent the fixed strategy takes.
            'retrieve (h.id, h.seq) where h.id = 1',
            'replace h (seq = 12) where h.id = 2',
            'retrieve (h.id, h.seq) where h.id = 2',
            'retrieve (h.id, h.seq) as of "1980-03-01 03:30:00"',
        ],
    ),
    (
        "15-historical-hash-optindex",
        "historical",
        "hash",
        True,
        [
            'create interval hrel (id = i4, seq = i4, amount = i4)',
            'modify hrel to hash on id',
            'index on hrel is ixam (amount) where structure = "hash", '
            'levels = 2',
            'range of h is hrel',
            'append to hrel (id = 1, seq = 10, amount = 50) '
            'valid from "1980-03-01" to "1980-03-20"',
            'append to hrel (id = 2, seq = 20, amount = 50) '
            'valid from "1980-03-02" to "1980-03-03"',
            'append to hrel (id = 3, seq = 30, amount = 60) '
            'valid from "1980-03-10" to "1980-03-12"',
            # Priced choice between the two-level secondary index and a
            # scan, current and all-versions.
            'retrieve (h.id, h.seq) where h.amount = 50 '
            'when h overlap "now"',
            'retrieve (h.id, h.seq) where h.amount = 50',
            'retrieve (h.id, h.seq) where h.id = 3',
        ],
    ),
    (
        "16-rollback-twolevel",
        "rollback",
        "twolevel",
        False,
        [
            'create persistent hrel (id = i4, seq = i4, amount = i4)',
            'create persistent irel (id = i4, seq = i4, amount = i4)',
            'modify hrel to twolevel on id',
            'modify irel to twolevel on id where primary = "isam"',
            'range of h is hrel',
            'range of i is irel',
            'append to hrel (id = 1, seq = 10, amount = 2)',
            'append to hrel (id = 2, seq = 20, amount = 1)',
            'append to irel (id = 1, seq = 11, amount = 2)',
            # Fixed two-level currency behavior under the fixed strategy.
            'retrieve (h.id, i.id, i.amount) where h.id = i.amount '
            'as of "now"',
            'retrieve (h.id, h.seq) where h.id = 2 as of "now"',
            'retrieve (h.id, h.seq) as of "1980-03-01 03:30:00"',
        ],
    ),
]


def build() -> int:
    failures = 0
    for number, (name, db_type, structure, atomic, texts) in enumerate(
        CASES + OPTIMIZER_CASES, start=1
    ):
        workload = Workload(
            seed=number,
            db_type=db_type,
            profile="corpus",
            ops=len(texts),
            clock_start=DEFAULT_CLOCK_START,
            clock_tick=DEFAULT_CLOCK_TICK,
            statements=[parse_statement(text) for text in texts],
        )
        config = Config(structure=structure, atomic=atomic)
        report = run_workload(workload, config, inject_modifies=False)
        if report.divergence is not None:
            print(f"{name}: DIVERGES\n{report.divergence}")
            failures += 1
            continue
        path = write_case(HERE / f"{name}.tquel", report)
        print(f"{name}: ok ({len(report.script)} statements) -> {path.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(build())
