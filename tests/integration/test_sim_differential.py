"""The differential harness end to end: determinism, corpus replay,
and a mutation-testing check that an injected engine bug is caught and
shrunk to a small repro."""

from __future__ import annotations

import io
from pathlib import Path

from repro.engine import mutate
from repro.sim.cli import main
from repro.sim.corpus import read_case, replay_corpus, write_case
from repro.sim.harness import Config, run_seed, run_workload
from repro.sim.shrink import shrink_workload

CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "sim"


def _fingerprint(reports):
    return [
        (r.config.label, r.statements_run, r.divergence is None, r.script)
        for r in reports
    ]


def test_run_seed_is_deterministic():
    first = run_seed(3, ops=40)
    second = run_seed(3, ops=40)
    assert _fingerprint(first) == _fingerprint(second)
    assert all(r.divergence is None for r in first)


def test_cli_output_is_identical_across_jobs():
    argv = ["--seed", "1..3", "--ops", "25", "--no-shrink"]
    sequential, parallel = io.StringIO(), io.StringIO()
    assert main(argv + ["--jobs", "1"], out=sequential) == 0
    assert main(argv + ["--jobs", "2"], out=parallel) == 0
    assert sequential.getvalue() == parallel.getvalue()


def test_corpus_replays_without_divergence():
    results = replay_corpus(CORPUS)
    assert len(results) >= 10
    for path, report in results:
        assert report.divergence is None, f"{path.name}: {report.divergence}"
    types = {read_case(path)[0].db_type for path, _ in results}
    assert types == {"static", "rollback", "historical", "temporal"}
    structures = {read_case(path)[1].structure for path, _ in results}
    assert structures == {"heap", "hash", "isam", "btree", "twolevel"}


def test_case_files_round_trip(tmp_path):
    source = CORPUS / "04-rollback-hash-asof.tquel"
    workload, config, _ = read_case(source)
    report = run_workload(workload, config, inject_modifies=False)
    copy = write_case(tmp_path / "copy.tquel", report)
    reread, reconfig, _ = read_case(copy)
    assert reconfig == config
    assert len(reread.statements) == len(report.script)


def test_injected_engine_bug_is_caught_and_shrunk(monkeypatch):
    """Mutation-test the harness: an engine that quietly drops one
    delete target must produce a divergence, and the shrinker must cut
    the repro down to a handful of statements."""
    real = mutate.apply_delete

    def buggy_delete(relation, candidates, now):
        return real(relation, candidates[:-1], now)

    monkeypatch.setattr(mutate, "apply_delete", buggy_delete)

    workload, config, _ = read_case(CORPUS / "04-rollback-hash-asof.tquel")
    report = run_workload(workload, config, inject_modifies=False)
    assert report.divergence is not None

    minimized, final = shrink_workload(workload, config)
    assert final.divergence is not None
    assert len(minimized.statements) <= 12

    # The repro must be stable: re-running it diverges identically.
    again = run_workload(minimized, config)
    assert again.divergence is not None
    assert again.divergence.kind == final.divergence.kind

    # And the shrink itself is deterministic: a second pass over the
    # same workload produces a byte-identical repro script.
    minimized2, final2 = shrink_workload(workload, config)
    assert final2.script == final.script
    assert str(final2.divergence) == str(final.divergence)


def test_clean_engine_replays_the_same_corpus_case():
    workload, config, _ = read_case(CORPUS / "04-rollback-hash-asof.tquel")
    report = run_workload(workload, config, inject_modifies=False)
    assert report.divergence is None


def test_quick_matrix_covers_every_structure():
    reports = run_seed(2, ops=10)
    assert {r.config.structure for r in reports} == {
        "heap", "hash", "isam", "btree", "twolevel",
    }
    assert [r.config for r in reports] == [
        Config(r.config.structure, r.config.atomic)
        for r in reports
    ]
