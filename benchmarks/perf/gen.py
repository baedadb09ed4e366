"""Seed -> benchmark inputs: rows, TQuel text and the expected answers.

Everything the four workloads feed the system is made here, from the
seed alone, with the standard library only.  Nothing is imported from
``repro`` (in particular not ``repro.bench`` / ``repro.sim``), so a later
change to those generators cannot move the benchmark, and the self-tests
can check determinism without the engine.

Each generator also carries a small *oracle*: the answer every statement
must return, derived from the generated rows and not from the engine.
"""

from __future__ import annotations

import random

FOREVER = 2**31 - 1  # the paper's "forever" chronon (32-bit seconds)
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def rng_for(seed: int, *tags) -> random.Random:
    """A private PRNG per (seed, purpose).

    String seeds go through SHA-512 inside ``random.seed``, so the stream
    does not depend on ``PYTHONHASHSEED`` or on how many numbers another
    purpose drew.
    """
    return random.Random(":".join(str(part) for part in (seed, *tags)))


# -- paper-mix: the paper's temporal/100 % database --------------------------

PAPER_TUPLES = 1024
PAPER_UPDATE_COUNT = 8
PROBE_ID = 500
H_PROBE_AMOUNT = 69400
I_PROBE_AMOUNT = 73700
PAPER_COLUMNS = "(id = i4, amount = i4, seq = i4, string = c96)"

#: Figure 4's twelve queries in their temporal-database form.
PAPER_QUERIES = {
    "Q01": f"retrieve (h.id, h.seq) where h.id = {PROBE_ID}",
    "Q02": f"retrieve (i.id, i.seq) where i.id = {PROBE_ID}",
    "Q03": 'retrieve (h.id, h.seq) as of "08:00 1/1/80"',
    "Q04": 'retrieve (i.id, i.seq) as of "08:00 1/1/80"',
    "Q05": f'retrieve (h.id, h.seq) where h.id = {PROBE_ID} '
           'when h overlap "now"',
    "Q06": f'retrieve (i.id, i.seq) where i.id = {PROBE_ID} '
           'when i overlap "now"',
    "Q07": f'retrieve (h.id, h.seq) where h.amount = {H_PROBE_AMOUNT} '
           'when h overlap "now"',
    "Q08": f'retrieve (i.id, i.seq) where i.amount = {I_PROBE_AMOUNT} '
           'when i overlap "now"',
    "Q09": "retrieve (h.id, i.id, i.amount) where h.id = i.amount "
           'when h overlap i and i overlap "now"',
    "Q10": "retrieve (i.id, h.id, h.amount) where i.id = h.amount "
           'when i overlap h and h overlap "now"',
    "Q11": "retrieve (h.id, h.seq, i.id, i.seq, i.amount) "
           "valid from start of h to end of i "
           'when start of h precede i as of "4:00 1/1/80"',
    "Q12": "retrieve (h.id, h.seq, i.id, i.seq, i.amount) "
           "valid from start of (h overlap i) to end of (h extend i) "
           f"where h.id = {PROBE_ID} and i.amount = {I_PROBE_AMOUNT} "
           'when h overlap i as of "now"',
}

EVOLVE_STATEMENTS = (
    "replace h (seq = h.seq + 1)",
    "replace i (seq = i.seq + 1)",
)


def paper_rows(rng, probe_amount: int, early: int, lo: int, hi: int):
    """Full-width rows of one Section-5.1 relation.

    ``id`` 1..1024 is the key; ``amount`` values are distinct, outside the
    id range (so the Q09/Q10 joins stay empty) and contain the probe
    amount once; all times fall in (*lo*, *hi*) except two before *lo*,
    which pin the Q03/Q04/Q11 as-of selectivity.  *early* is the chronon
    those two count up from.
    """
    n = PAPER_TUPLES
    amounts = rng.sample(range(10000, 100000), n)
    if probe_amount not in amounts:
        amounts[rng.randrange(n)] = probe_amount
    times = [rng.randrange(lo + 1, hi) for _ in range(n)]
    for offset, position in enumerate(rng.sample(range(n), 2)):
        times[position] = early + 600 * (offset + 1)
    return [
        (
            index + 1,
            amounts[index],
            0,
            "".join(rng.choices(LETTERS, k=96)),
            times[index], FOREVER, times[index], FOREVER,
        )
        for index in range(n)
    ]


def paper_expected(h_rows, i_rows, asof: int) -> dict:
    """What Q01-Q10 must return after ``PAPER_UPDATE_COUNT`` uniform
    update passes, as ``{query: (mode, rows)}``.

    ``exact`` rows are whole result rows; ``prefix`` rows are the leading
    (id, seq) columns, because the valid times the engine stamps on new
    versions come from its logical clock.  Q11/Q12 have no closed form
    here; they are held to repeat exactly and, for the committed seed, to
    the committed digest.
    """
    top = PAPER_UPDATE_COUNT
    versions = sorted((PROBE_ID, seq) for seq in range(top + 1))

    def as_of(rows):
        return sorted(
            (row[0], 0, row[6], FOREVER) for row in rows if row[4] <= asof
        )

    def with_amount(rows, amount):
        return [(row[0], top) for row in rows if row[1] == amount]

    return {
        "Q01": ("prefix", versions),
        "Q02": ("prefix", versions),
        "Q03": ("exact", as_of(h_rows)),
        "Q04": ("exact", as_of(i_rows)),
        "Q05": ("prefix", [(PROBE_ID, top)]),
        "Q06": ("prefix", [(PROBE_ID, top)]),
        "Q07": ("prefix", with_amount(h_rows, H_PROBE_AMOUNT)),
        "Q08": ("prefix", with_amount(i_rows, I_PROBE_AMOUNT)),
        "Q09": ("exact", []),
        "Q10": ("exact", []),
    }


# -- the `load` relation of the other three workloads ------------------------

LOAD_COLUMNS = "(key = i4, grp = i4, val = i4)"


def load_rows(rng, count: int):
    """``count`` rows with dense keys 0..count-1, so every lookup hits."""
    return [
        (key, rng.randrange(64), rng.randrange(1 << 30))
        for key in range(count)
    ]


def point_block(rng, rows, size: int, skew: float):
    """``size`` distinct-literal point lookups, keys drawn as
    ``floor(n * u**skew)``; returns ``[(text, expected val)]``."""
    n = len(rows)
    block = []
    for _ in range(size):
        key = int(n * rng.random() ** skew)
        block.append(
            (f"retrieve (l.val) where l.key = {key}", rows[key][2])
        )
    return block


STREAM_QUERY = "retrieve (l.key, l.grp, l.val)"

# -- update-commit: prepared statements over a keyed temporal relation -------

UPDATE_STATEMENTS = {
    "append": "append to load (key = $k, grp = $g, val = $v)",
    "replace": "replace l (val = l.val + 1) where l.key = $k",
    "delete": "delete l where l.key = $k",
    "point": 'retrieve (l.val) where l.key = $k when l overlap "now"',
}
UPDATE_MIX = (("append", 0.35), ("replace", 0.70), ("delete", 0.80))
POINT_SKEW = 1.25  # mild: index = floor(live * u**1.25)


class UpdateStream:
    """The update-commit statement stream and its model of the relation.

    ``model`` maps every live key to its current ``val``; it is the
    oracle for point reads and for the durability check.  Replace, delete
    and read keys are always live keys, so no operation can fail.
    """

    def __init__(self, seed: int, rows):
        self._rng = rng_for(seed, "update-commit", "ops")
        self.model = {row[0]: row[2] for row in rows}
        self._live = list(self.model)
        self._next_key = len(rows)

    def block(self, size: int):
        """The next *size* operations as ``(kind, params, expected)``.

        *expected* is the affected-row count for updates and the current
        ``val`` for point reads.  The model is advanced as operations are
        generated, which is also the order they are executed in.
        """
        rng, live, model = self._rng, self._live, self.model
        ops = []
        for _ in range(size):
            draw = rng.random()
            if draw < UPDATE_MIX[0][1]:
                key = self._next_key
                self._next_key += 1
                value = rng.randrange(1 << 30)
                model[key] = value
                live.append(key)
                ops.append(
                    ("append", {"k": key, "g": key % 64, "v": value}, 1)
                )
            elif draw < UPDATE_MIX[1][1]:
                key = live[rng.randrange(len(live))]
                model[key] += 1
                ops.append(("replace", {"k": key}, 1))
            elif draw < UPDATE_MIX[2][1]:
                slot = rng.randrange(len(live))
                key = live[slot]
                live[slot] = live[-1]
                live.pop()
                del model[key]
                ops.append(("delete", {"k": key}, 1))
            else:
                key = live[int(len(live) * rng.random() ** POINT_SKEW)]
                ops.append(("point", {"k": key}, model[key]))
        return ops
