"""Self-time arithmetic of the span shims, and the probe table."""

import sys
import time
import types

import pytest

import layers


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def traced():
    """A throw-away module with one probe of every kind, installed."""
    module = types.ModuleType("perf_selftest_target")

    def leaf():
        _spin(0.002)
        return [1, 2, 3]

    def pages():
        for page in range(3):
            _spin(0.001)
            yield page

    class Scope:
        def __enter__(self):
            _spin(0.001)

        def __exit__(self, *exc):
            _spin(0.001)
            return False

    def branch():
        _spin(0.001)
        with module.scope():
            module.leaf()
            for _ in module.pages():
                _spin(0.001)  # the consumer's own time

    module.leaf, module.pages, module.branch = leaf, pages, branch
    module.scope = Scope
    sys.modules[module.__name__] = module
    name = module.__name__
    tracer = layers.Tracer(detail_roots=1).install([
        layers.Probe("upper", f"{name}:branch"),
        layers.Probe("lower", f"{name}:leaf", "fn", len),
        layers.Probe("lower", f"{name}:pages", "gen"),
        layers.Probe("scope", f"{name}:scope", "cm"),
        layers.Probe("gone", f"{name}:renamed_away"),
        layers.Probe("gone", "perf_selftest_no_such_module:f"),
    ])
    yield module, tracer
    del sys.modules[module.__name__]


def test_unresolved_probes_are_reported_not_raised(traced):
    module, tracer = traced
    assert tracer.unavailable == [
        f"{module.__name__}:renamed_away", "perf_selftest_no_such_module:f",
    ]


def test_shims_only_forward_until_armed(traced):
    module, tracer = traced
    module.branch()
    assert all(entry["calls"] == 0 for entry in tracer.totals().values())


def test_self_times_add_up_to_the_root(traced):
    module, tracer = traced
    tracer.arm()
    started = time.perf_counter()
    with tracer.root():
        module.branch()
    elapsed = time.perf_counter() - started
    tracer.disarm()
    totals = tracer.totals()
    merged = layers.aggregate(totals)
    by_layer = {k: v["self_s"] for k, v in merged["layers"].items()}
    # Everything under the root is charged exactly once ...
    assert sum(by_layer.values()) == pytest.approx(merged["root_s"], abs=1e-9)
    assert merged["root_s"] == pytest.approx(elapsed, abs=5e-4)
    # ... to the layer that spent it: leaf 2 ms + three 1 ms pages;
    # branch's own 1 ms plus the 3 ms it spends between pages; the
    # scope's enter and exit.
    assert by_layer["lower"] == pytest.approx(0.005, abs=1e-3)
    assert by_layer["upper"] == pytest.approx(0.004, abs=1e-3)
    assert by_layer["scope"] == pytest.approx(0.002, abs=1e-3)
    assert by_layer["unattributed"] < 5e-4
    name = module.__name__
    assert totals[f"{name}:leaf"]["items"] == 3      # len() of the result
    assert totals[f"{name}:pages"]["items"] == 3     # items yielded
    assert totals[f"{name}:pages"]["calls"] == 1
    assert totals[f"{name}:scope"]["calls"] == 1


def test_detail_spans_of_the_first_root(traced):
    module, tracer = traced
    tracer.arm()
    tracer.statement = 0
    with tracer.root():
        module.branch()
    with tracer.root():
        module.branch()
    assert len(tracer.details) == 1  # detail_roots=1
    spans = tracer.details[0]["spans"]
    assert spans[-1]["name"] == "client.call" and spans[-1]["depth"] == 0
    assert {span["layer"] for span in spans} == {
        "unattributed", "upper", "lower", "scope",
    }


def test_server_time_comes_out_of_the_roundtrip():
    client = {
        "benchmark:client.call": {
            "layer": "unattributed", "self_s": 0.1, "calls": 10, "items": 0},
        "c:RemoteSession.execute": {
            "layer": "server.roundtrip", "self_s": 1.0, "calls": 10,
            "items": 0},
    }
    server = {
        "s:Session.execute": {
            "layer": "engine.database", "self_s": 0.6, "calls": 10,
            "items": 0},
    }
    merged = layers.aggregate(client, server)
    assert merged["root_s"] == pytest.approx(1.1)
    assert merged["layers"]["server.roundtrip"]["self_s"] == pytest.approx(0.4)
    assert sum(
        layer["self_s"] for layer in merged["layers"].values()
    ) == pytest.approx(merged["root_s"])


def test_every_probe_resolves_on_this_tree():
    pytest.importorskip("repro")
    missing = []
    for probe in layers.PROBES:
        try:
            layers.resolve(probe.target)
        except (ImportError, AttributeError):
            missing.append(probe.target)
    assert missing == []
    assert {probe.layer for probe in layers.PROBES} <= set(layers.LAYERS)
