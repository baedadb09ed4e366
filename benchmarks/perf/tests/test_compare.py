"""compare.py's rules, and BENCHMARK.json against the code."""

import json
import os

import compare
import layers
import run

LOWER = {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.07}
HIGHER = {"name": "stmts_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.05}


def test_within_bound_is_ok():
    row = compare.verdict(LOWER, [10.0, 10.1, 10.2], [10.3, 10.4, 10.5])
    assert row["verdict"] == "ok"
    assert compare.verdict(HIGHER, [100, 101, 102], [97, 98, 99])[
        "verdict"] == "ok"


def test_beyond_bound_is_worse_in_the_metric_s_direction():
    assert compare.verdict(LOWER, [10.0, 10.1, 10.2], [11.0, 11.1, 11.2])[
        "verdict"] == "worse"
    assert compare.verdict(LOWER, [11.0, 11.1, 11.2], [10.0, 10.1, 10.2])[
        "verdict"] == "ok"
    assert compare.verdict(HIGHER, [100, 101, 102], [90, 91, 92])[
        "verdict"] == "worse"
    assert compare.verdict(HIGHER, [90, 91, 92], [100, 101, 102])[
        "verdict"] == "ok"


def test_spread_wider_than_bound_is_unresolved():
    row = compare.verdict(LOWER, [8.0, 10.0, 12.0], [8.1, 10.1, 12.1])
    assert row["verdict"] == "unresolved"
    assert row["spread"] > LOWER["bound"]


def test_absolute_floor_protects_tiny_values():
    # +50 % of 0.02 ms is 0.01 ms: below the 0.02 ms floor.
    row = compare.verdict(LOWER, [0.020, 0.020, 0.020], [0.030, 0.030, 0.030])
    assert row["verdict"] == "ok"
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert compare.verdict(setup, [0.10], [0.14])["verdict"] == "ok"
    assert compare.verdict(setup, [1.0], [1.4])["verdict"] == "worse"


def test_single_runs_have_no_spread():
    row = compare.verdict(LOWER, [10.0], [10.1])
    assert row["spread"] is None and row["verdict"] == "ok"


def _contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_has_exactly_the_agreed_keys():
    contract = _contract()
    assert sorted(contract) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_contract_names_every_layer_and_split():
    contract = _contract()
    per_layer = {m["name"] for m in contract["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.self_ms_per_stmt" in per_layer
        assert f"{layer}.calls_per_stmt" in per_layer
    assert set(run.SPLITS) == {w["name"] for w in contract["workloads"]}
    for rows in run.SPLITS.values():
        for _, names, _, _ in rows:
            assert set(names) <= set(layers.LAYERS)
