"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro import Clock, TemporalDatabase, parse_temporal

JAN1_1980 = parse_temporal("1/1/80")
MAR1_1980 = parse_temporal("3/1/80")

# The suite is a pure function of the tree: every property test draws the
# examples its own source derives (derandomize), nothing is replayed from
# or saved to a local example database, and no verdict depends on the
# machine's speed.  ``pytest --hypothesis-profile explore`` (Hypothesis's
# own option, applied after this file loads) searches instead: a random
# seed, more examples where a test does not fix its own count, failures
# kept in .hypothesis/ and printed with a reproduction blob -- promote
# what it finds to an ``@example``.
settings.register_profile(
    "tier1",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore", derandomize=False, max_examples=500, print_blob=True
)
settings.load_profile("tier1")


@pytest.fixture
def clock() -> Clock:
    """A deterministic clock starting 1 March 1980, ticking one minute."""
    return Clock(start=MAR1_1980, tick=60)


@pytest.fixture
def db(clock) -> TemporalDatabase:
    """An empty database on the deterministic clock."""
    return TemporalDatabase("test", clock=clock)


def make_db(tick: int = 60) -> TemporalDatabase:
    """Non-fixture helper for property-based tests."""
    return TemporalDatabase(
        "test", clock=Clock(start=MAR1_1980, tick=tick)
    )


@pytest.fixture
def temporal_pair(db):
    """A temporal relation pair like the benchmark's, 64 tuples, loaded."""
    from repro import FOREVER

    db.execute(
        "create persistent interval th "
        "(id = i4, amount = i4, seq = i4, string = c96)"
    )
    db.execute(
        "create persistent interval ti "
        "(id = i4, amount = i4, seq = i4, string = c96)"
    )
    rows = []
    for i in range(1, 65):
        stamp = JAN1_1980 + i * 3600
        rows.append(
            (i, 10000 + i, 0, "x" * 96, stamp, FOREVER, stamp, FOREVER)
        )
    db.copy_in("th", rows)
    db.copy_in("ti", rows)
    db.execute("modify th to hash on id where fillfactor = 100")
    db.execute("modify ti to isam on id where fillfactor = 100")
    db.execute("range of h is th")
    db.execute("range of i is ti")
    return db
