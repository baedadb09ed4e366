"""The generators are pure functions of the seed."""

import gen


def _paper(seed):
    rng = gen.rng_for(seed, "paper-mix.local", "rows")
    return gen.paper_rows(rng, gen.H_PROBE_AMOUNT, 0, 2000, 90000)


def test_same_seed_same_inputs():
    assert _paper(7) == _paper(7)
    rows = gen.load_rows(gen.rng_for(7, "rows"), 512)
    assert rows == gen.load_rows(gen.rng_for(7, "rows"), 512)
    block = gen.point_block(gen.rng_for(7, "block", 3), rows, 100, 2.5)
    assert block == gen.point_block(gen.rng_for(7, "block", 3), rows, 100, 2.5)
    first, second = gen.UpdateStream(7, rows), gen.UpdateStream(7, rows)
    assert first.block(500) == second.block(500)
    assert first.model == second.model


def test_other_seed_other_inputs():
    assert _paper(7) != _paper(8)
    rows = gen.load_rows(gen.rng_for(7, "rows"), 512)
    assert rows != gen.load_rows(gen.rng_for(8, "rows"), 512)
    assert gen.UpdateStream(7, rows).block(50) != gen.UpdateStream(8, rows).block(50)


def test_blocks_do_not_depend_on_how_many_ran_before():
    rows = gen.load_rows(gen.rng_for(1, "rows"), 256)
    alone = gen.point_block(gen.rng_for(1, "block", 5), rows, 20, 2.5)
    for index in range(5):
        gen.point_block(gen.rng_for(1, "block", index), rows, 20, 2.5)
    assert alone == gen.point_block(gen.rng_for(1, "block", 5), rows, 20, 2.5)


def test_paper_rows_follow_the_section_5_1_recipe():
    rows = _paper(3)
    assert [row[0] for row in rows] == list(range(1, gen.PAPER_TUPLES + 1))
    amounts = [row[1] for row in rows]
    assert len(set(amounts)) == len(amounts)
    assert amounts.count(gen.H_PROBE_AMOUNT) == 1
    assert min(amounts) > gen.PAPER_TUPLES  # the Q09/Q10 joins stay empty
    assert sum(1 for row in rows if row[4] <= 2000) == 2
    expected = gen.paper_expected(rows, rows, 2000)
    assert len(expected["Q03"][1]) == 2


def test_point_lookups_hit_and_are_skewed():
    rows = gen.load_rows(gen.rng_for(2, "rows"), 1024)
    block = gen.point_block(gen.rng_for(2, "block", 0), rows, 2000, 2.5)
    keys = [int(text.rsplit("=", 1)[1]) for text, _ in block]
    assert all(0 <= key < 1024 for key in keys)
    assert all(value == rows[key][2] for key, (_, value) in zip(keys, block))
    assert sum(key < 512 for key in keys) > 0.7 * len(keys)


def test_update_stream_only_touches_live_keys():
    rows = gen.load_rows(gen.rng_for(4, "rows"), 64)
    stream = gen.UpdateStream(4, rows)
    live = {row[0]: row[2] for row in rows}
    kinds = set()
    for kind, params, expected in stream.block(5000):
        kinds.add(kind)
        key = params["k"]
        if kind == "append":
            assert key not in live
            live[key] = params["v"]
        elif kind == "replace":
            live[key] += 1
        elif kind == "delete":
            del live[key]
        else:
            assert expected == live[key]
    assert kinds == set(gen.UPDATE_STATEMENTS)
    assert live == stream.model
