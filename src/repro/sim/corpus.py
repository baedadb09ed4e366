"""Runnable ``.tquel`` case files: write, read, replay.

A case file is the *executed script* of one harness run -- generated
statements with the config's steering ``modify`` statements already
interleaved -- prefixed by ``--`` comment headers carrying everything a
replay needs:

    -- seed: 7
    -- type: temporal
    -- profile: mixed
    -- clock_start: 320716800
    -- clock_tick: 3600
    -- structure: btree
    -- atomic: off

    create persistent interval r0 (id = i4, a0 = i4)
    modify r0 to btree on id
    ...

Replaying runs the statements through the differential harness with
injection disabled (the modifies are baked in), so a committed corpus
case re-checks engine-vs-oracle agreement on every CI run, and a shrunk
failure artifact reproduces its divergence from the file alone.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.generator import (
    DEFAULT_CLOCK_START,
    DEFAULT_CLOCK_TICK,
    Workload,
)
from repro.sim.harness import Config, RunReport, run_workload
from repro.tquel.parser import parse_statement

_FLAGS = {"on": True, "off": False, "true": True, "false": False}


def write_case(path, report: RunReport) -> Path:
    """Write *report*'s executed script as a runnable case file."""
    path = Path(path)
    workload = report.workload
    config = report.config
    lines = [
        f"-- seed: {workload.seed}",
        f"-- type: {workload.db_type}",
        f"-- profile: {workload.profile}",
        f"-- clock_start: {workload.clock_start}",
        f"-- clock_tick: {workload.clock_tick}",
        f"-- structure: {config.structure}",
        f"-- atomic: {'on' if config.atomic else 'off'}",
    ]
    if report.divergence is not None:
        lines.append(f"-- diverges: {report.divergence.kind}")
    lines.append("")
    lines.extend(report.script)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_case(path) -> "tuple[Workload, Config, dict]":
    """Parse a case file back into a workload, a config and its headers."""
    meta: "dict[str, str]" = {}
    statements = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("--"):
            body = stripped[2:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            continue
        statements.append(parse_statement(stripped))
    workload = Workload(
        seed=int(meta.get("seed", 0)),
        db_type=meta.get("type", "temporal"),
        profile=meta.get("profile", "mixed"),
        ops=len(statements),
        clock_start=int(meta.get("clock_start", DEFAULT_CLOCK_START)),
        clock_tick=int(meta.get("clock_tick", DEFAULT_CLOCK_TICK)),
        statements=statements,
    )
    config = Config(
        structure=meta.get("structure", "heap"),
        atomic=_FLAGS.get(meta.get("atomic", "on"), True),
    )
    return workload, config, meta


def replay_case(path) -> RunReport:
    """Run one case file through the harness (no modify injection)."""
    workload, config, _ = read_case(path)
    return run_workload(workload, config, inject_modifies=False)


def corpus_files(directory) -> "list[Path]":
    return sorted(Path(directory).glob("*.tquel"))


def replay_corpus(directory) -> "list[tuple[Path, RunReport]]":
    """Replay every ``.tquel`` case under *directory*, in name order."""
    return [(path, replay_case(path)) for path in corpus_files(directory)]
