"""Wall-clock benchmark of the temporal DBMS: one command, four workloads.

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME] [--out FILE]
                                   [--no-trace] [--quick] [--repeat N]

runs every workload (or one) in a fresh subprocess each, untraced for the
end-to-end metrics and once more with the span shims of ``layers.py`` for
the per-layer metrics, checks every reply, and prints every metric by
name with its unit, sample count and bound.

The measuring process itself is

    run.py --workload NAME --seed N --seconds S --trace 0|1

which prints one JSON object as its last line (the contract of
``BENCHMARK.json``; see README.md).  ``--trace 0`` measures for S
seconds; ``--trace 1`` runs the checked prefix of the stream twice,
untraced and traced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1986
SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
DETAIL_STATEMENTS = 50     # statements whose spans are written out in full
P95_WINDOW = 200           # statements per p95 window: ten beyond the 95th
UPDATE_KINDS = ("append", "replace", "delete")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(ordered, percent: float):
    """Nearest-rank percentile of an ascending list, with the number of
    samples beyond it."""
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def calibrate() -> float:
    """Operations per second of a fixed pure-Python loop (best of three):
    how fast this machine is right now, whatever the program does.
    Garbage is collected first: the loop runs measurably slower on a heap
    the workload has just churned."""
    gc.collect()
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        value, table = 0, {}
        for index in range(300_000):
            value = (value * 31 + index) % 1_000_003
            table[index & 255] = value
        best = max(best, 300_000 / (time.perf_counter() - started))
    return best


class Recorder:
    """Times client calls and keeps what the metrics are made from.

    The first ``prefix_blocks`` blocks after each set-up form a *check
    unit*: its statement count, page counts, rows returned and a digest
    of every reply are exact for a seed, whatever the machine's speed.
    """

    def __init__(self, prefix_blocks: int, tracer=None):
        self.prefix_blocks = prefix_blocks
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.by_kind: "dict[str, list[float]]" = {}
        self.blocks: "list[list[float]]" = []
        self.units: "list[dict]" = []
        self.notes: "dict[str, float]" = {}
        self._block: "list[float]" = []
        self._unit = None

    def begin_episode(self) -> None:
        self._unit = {
            "blocks": 0, "statements": 0, "pages_read": 0,
            "pages_written": 0, "rows_returned": 0,
            "digest": hashlib.blake2b(digest_size=16),
        }

    def call(self, kind: str, fn, *args):
        """Run one client call, timed; None if it raised."""
        self.attempted += 1
        tracer = self.tracer
        try:
            if tracer is None:
                started = time.perf_counter()
                result = fn(*args)
                elapsed = time.perf_counter() - started
            else:
                tracer.statement = self.attempted - 1
                with tracer.root():
                    started = time.perf_counter()
                    result = fn(*args)
                    elapsed = time.perf_counter() - started
        except Exception as error:  # a failed statement is counted, not fatal
            self.fail(kind, f"{type(error).__name__}: {error}")
            return None
        self._block.append(elapsed)
        self.by_kind.setdefault(kind, []).append(elapsed)
        unit = self._unit
        if unit is not None:
            unit["statements"] += 1
            io = getattr(result, "io", None)
            if io is not None:
                unit["pages_read"] += io.input_pages
                unit["pages_written"] += io.output_pages
                unit["rows_returned"] += len(result.rows)
                unit["digest"].update(repr(result.rows).encode())
        return result

    def fail(self, kind: str, message: str) -> None:
        """A call raised, or returned what the oracle does not expect."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {message}"[:300])

    def note(self, name: str, value) -> None:
        self.notes[name] = value

    def end_block(self) -> None:
        block, self._block = self._block, []
        if block:
            self.blocks.append(block)
        unit = self._unit
        if unit is not None:
            unit["blocks"] += 1
            if unit["blocks"] == self.prefix_blocks:
                unit["digest"] = unit["digest"].hexdigest()
                self.units.append(unit)
                self._unit = None

    @property
    def latencies(self) -> "list[float]":
        """Every timed call of every finished block, in order."""
        return list(itertools.chain.from_iterable(self.blocks))

    @property
    def mean_ms(self) -> float:
        latencies = self.latencies
        return 1e3 * sum(latencies) / max(1, len(latencies))


# -- running one workload -------------------------------------------------------


def run_episode(workload, out, budget=None, tracer=None):
    """One set-up and the blocks measured on it; returns the seconds the
    set-up, the warm-up and the blocks took.

    Without a *budget* exactly the check prefix is run.  With one, a
    stationary workload runs whole blocks until *budget* seconds have
    passed (and at least the prefix); a workload with ``episode_blocks``
    always runs exactly that many, so every set-up of it does identical
    work.
    """
    started = time.perf_counter()
    inst = workload.setup()
    setup_s = time.perf_counter() - started
    try:
        started = time.perf_counter()
        workload.warm(inst)
        warm_s = time.perf_counter() - started
        gc.collect()
        if tracer is not None:
            workload.trace_window(inst, True)
            tracer.arm()
        out.begin_episode()
        limit = workload.prefix_blocks
        if budget is not None and workload.episode_blocks:
            limit = workload.episode_blocks
        started = time.perf_counter()
        index = 0
        while True:
            workload.block(inst, index, out)
            out.end_block()
            index += 1
            measured_s = time.perf_counter() - started
            if index >= limit and (
                budget is None or workload.episode_blocks
                or measured_s >= budget
            ):
                break
        if tracer is not None:
            tracer.disarm()
            workload.trace_window(inst, False)
        out.note("space_pages", workload.space_pages(inst))
        workload.finish(inst, out)
    finally:
        workload.close(inst)
    return setup_s, warm_s, measured_s


def measure_end_to_end(workload, seconds: float, setups: int) -> dict:
    """The untraced pass: measure for *seconds*, then top up set-ups."""
    out = Recorder(workload.prefix_blocks)
    calib_before = calibrate()
    setup_times, warm_times = [], []
    remaining = seconds
    while remaining > 0:
        setup_s, warm_s, measured_s = run_episode(
            workload, out, budget=remaining
        )
        setup_times.append(setup_s)
        warm_times.append(warm_s)
        remaining -= measured_s
    while len(setup_times) < setups:
        started = time.perf_counter()
        inst = workload.setup()
        setup_times.append(time.perf_counter() - started)
        workload.close(inst)
    calib_after = calibrate()

    # Throughput and median per block, p95 per window of >= 200
    # statements (ten samples beyond it); the run reports their medians,
    # which a slow second or a stray pause does not move.
    rates = [len(block) / sum(block) for block in out.blocks]
    span = math.ceil(P95_WINDOW / workload.block_statements)
    latencies = sorted(out.latencies)
    windows = [
        sorted(itertools.chain.from_iterable(out.blocks[start:start + span]))
        for start in range(0, len(out.blocks) - span + 1, span)
    ] or [latencies]
    p95s, beyond95 = zip(*(percentile(window, 95) for window in windows))
    p99, beyond99 = percentile(latencies, 99)
    unit = out.units[0]
    quarter = max(1, len(rates) // 4)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    metrics = {
        "stmts_per_s": statistics.median(rates),
        "p50_ms": 1e3 * statistics.median(
            statistics.median(block) for block in out.blocks
        ),
        "p95_ms": 1e3 * statistics.median(p95s),
        "setup_s": statistics.median(setup_times),
        "pages_read_per_stmt": unit["pages_read"] / unit["statements"],
    }
    info = {
        "statements": len(latencies),
        "blocks": len(out.blocks),
        "block_statements": workload.block_statements,
        "p95_windows": len(windows),
        "p95_window_statements": len(windows[0]),
        "samples_beyond_p95": beyond95[0],
        "p99_ms": 1e3 * p99,
        "samples_beyond_p99": beyond99,
        "p50_ms_by_kind": {
            kind: 1e3 * statistics.median(values)
            for kind, values in sorted(out.by_kind.items())
        },
        "setup_samples": setup_times,
        "warmup_s": statistics.median(warm_times),
        "pages_written_per_stmt": unit["pages_written"] / unit["statements"],
        "space_pages": out.notes.get("space_pages", 0),
        "calib_ops_per_s": [calib_before, calib_after],
        "noisy": abs(calib_after / calib_before - 1.0) > 0.05,
        "steady_ratio": (
            statistics.mean(rates[-quarter:]) / statistics.mean(rates[:quarter])
        ),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {
        "metrics": metrics, "info": info, "units": out.units,
        "attempted": out.attempted, "failed": out.failed,
        "errors": out.errors,
    }


def measure_per_layer(workload) -> dict:
    """The traced pass: the check prefix untraced, then again with the
    span shims installed (in the server too, for the tcp workloads)."""
    import layers

    plain = Recorder(workload.prefix_blocks)
    run_episode(workload, plain)

    tracer = layers.Tracer(detail_roots=DETAIL_STATEMENTS).install()
    workload.traced = True
    traced = Recorder(workload.prefix_blocks, tracer)
    run_episode(workload, traced, tracer=tracer)

    client = tracer.dump()
    server = workload.server_dump
    merged = layers.aggregate(
        client["totals"], server["totals"] if server else None
    )
    statements = max(1, traced.attempted)
    probes = merged["probes"]

    def probe(suffix: str, field: str = "calls"):
        return sum(
            entry[field] for target, entry in probes.items()
            if target.endswith(suffix)
        )

    unit = traced.units[0]
    text_statements = probe(":Session.execute")
    page_fetches = probe(":BufferedFile.read")
    decodes = probe(":DecodeCache.rows")
    walks = sum(
        probe(f".{name}")
        for name in ("scan_batches", "lookup_batches", "scan", "lookup")
    )
    updates = sum(len(traced.by_kind.get(kind, ())) for kind in UPDATE_KINDS)
    commits = plain.by_kind.get("commit", [])
    wire_bytes = sum(
        entry["items"] for target, entry in client["totals"].items()
        if target.endswith((":encode_frame", ":decode_payload"))
    )

    def ratio(numerator, denominator, default=0.0):
        return numerator / denominator if denominator else default

    metrics = {}
    for name, layer in merged["layers"].items():
        metrics[f"{name}.self_ms_per_stmt"] = 1e3 * layer["self_s"] / statements
        metrics[f"{name}.calls_per_stmt"] = layer["calls"] / statements
    metrics.update({
        "frontend.plan_cache_hit_ratio": 1.0 - ratio(
            probe(":tokenize"), text_statements
        ),
        "tquel.interpreter.rows_examined_per_row_returned": ratio(
            probe(":DecodeCache.rows", "items"), unit["rows_returned"]
        ),
        "access.pages_per_call": ratio(unit["pages_read"], walks),
        "storage.record.decode_cache_hit_ratio": 1.0 - ratio(
            probe(":RecordCodec.decode_page"), decodes, 1.0
        ),
        "storage.buffer.hit_ratio": 1.0 - ratio(
            unit["pages_read"], page_fetches, 1.0
        ),
        "storage.buffer.pages_written_per_stmt": ratio(
            unit["pages_written"], unit["statements"]
        ),
        "storage.buffer.space_pages": traced.notes.get("space_pages", 0),
        "engine.mutate.versions_written_per_update": ratio(
            probe(".insert") + probe(":AccessMethod.update"), updates
        ),
        "engine.persist.commit_p50_ms": (
            1e3 * statistics.median(commits) if commits else 0.0
        ),
        "engine.persist.checkpoint_bytes": traced.notes.get(
            "checkpoint_bytes", 0
        ),
        "server.protocol.bytes_per_stmt": wire_bytes / statements,
        "server.roundtrip.retries": traced.notes.get("retries", 0),
        "server.roundtrip.errors": traced.failed,
        "trace_overhead": traced.mean_ms / plain.mean_ms - 1.0,
        "traced_root_ms_per_stmt": 1e3 * merged["root_s"] / statements,
    })

    os.makedirs(OUT, exist_ok=True)
    with open(
        os.path.join(OUT, f"trace_{workload.name}.json"), "w"
    ) as handle:
        json.dump({
            "workload": workload.name,
            "seed": workload.seed,
            "client": client["details"],
            "server": server["details"] if server else [],
        }, handle)

    info = {
        "statements": traced.attempted,
        "untraced_ms_per_stmt": plain.mean_ms,
        "traced_ms_per_stmt": traced.mean_ms,
        "unavailable_probes": sorted(
            set(client["unavailable"])
            | set(server["unavailable"] if server else ())
        ),
    }
    return {
        "metrics": metrics, "info": info, "units": plain.units + traced.units,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
    }


def check_expected(name: str, seed: int, unit: dict) -> "str | None":
    """Compare a check unit with the committed one for the same seed."""
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    if seed != expected["seed"] or name not in expected["workloads"]:
        return None
    want = expected["workloads"][name]
    got = {key: unit[key] for key in want}
    if got != want:
        return f"committed {want}, measured {got}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int) -> dict:
    """Measure one workload in this process; the full result as a dict."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # shipped defaults only
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"run.py: no program to measure under {SRC}")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    contract = load_contract()
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, tmp)
        if trace:
            result = measure_per_layer(workload)
            wanted = contract["per_layer"]
        else:
            result = measure_end_to_end(workload, seconds, setups)
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    unit = result["units"][0]
    problems = []
    if any(other != unit for other in result["units"][1:]):
        problems.append("check units differ between set-ups or passes")
    mismatch = check_expected(name, seed, unit)
    if mismatch:
        problems.append(f"expected.json: {mismatch}")
    # A wrong count or digest is a failed output like a wrong reply.
    failed = result["failed"] + len(problems)
    problems = result["errors"] + problems
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "problems": problems,
        "metrics": {
            spec["name"]: {
                "value": result["metrics"][spec["name"]],
                "unit": spec["unit"],
            }
            for spec in wanted
        },
        "info": result["info"],
        "check_unit": unit,
    }


# -- the orchestrating command -----------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """One measuring subprocess; its full result."""
    os.makedirs(OUT, exist_ok=True)
    detail = os.path.join(OUT, f"detail-{os.getpid()}.json")
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail", detail,
    ] + (["--quick"] if quick else [])
    try:
        done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
        if not os.path.exists(detail):
            raise SystemExit(
                f"run.py: measuring {name} failed (exit {done.returncode})"
            )
        with open(detail) as handle:
            return json.load(handle)
    finally:
        if os.path.exists(detail):
            os.remove(detail)


#: What each workload was chosen to show (README, "interaction table"):
#: (label, layers summed, comparison, share of the traced root time).
FRONT = ("tquel.lexer", "tquel.parser", "tquel.semantics", "engine.planner")
STORAGE = ("access", "storage.record", "storage.buffer")
SERVER = ("server.protocol", "server.roundtrip")
SPLITS = {
    "paper-mix.local": [
        ("execute side", ("tquel.interpreter",) + STORAGE, ">=", 0.90),
    ],
    "adhoc-point.tcp": [
        ("front end", FRONT, ">=", 0.10),
        ("front end + engine.database + server",
         FRONT + ("engine.database",) + SERVER, ">=", 0.70),
        ("access + storage", STORAGE, "<=", 0.15),
    ],
    "result-stream.tcp": [
        ("server", SERVER, ">=", 0.35),
        ("front end", FRONT, "<=", 0.05),
    ],
    "update-commit.file": [
        ("front end", FRONT, "<=", 0.05),
        ("write path",
         ("engine.mutate", "engine.undo", "access", "storage.buffer",
          "engine.persist", "engine.database"), ">=", 0.70),
    ],
}


def report(contract: dict, name: str, end: dict, layer: "dict | None") -> None:
    """Print one workload's metrics by name."""
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    print(f"\n== {name} ==  seed {end['seed']}")
    print(f"   {why}")
    info = end["info"]
    print(
        f"   {info['statements']} statements in {info['blocks']} blocks of "
        f"{info['block_statements']}; {end['failed']}/{end['attempted']} "
        f"failed; correct: {end['correct']}"
    )
    for problem in end["problems"]:
        print(f"   PROBLEM {problem}")
    print("   end to end (gated):")
    samples = {
        "stmts_per_s": f"{info['blocks']} blocks",
        "p50_ms": f"{info['blocks']} block medians",
        "p95_ms": f"{info['p95_windows']} windows of "
                  f"{info['p95_window_statements']} statements, "
                  f"{info['samples_beyond_p95']} beyond each",
        "setup_s": f"{len(info['setup_samples'])} set-ups",
        "pages_read_per_stmt":
            f"{end['check_unit']['statements']} statements, exact",
    }
    for spec in contract["end_to_end"]:
        value = end["metrics"][spec["name"]]["value"]
        print(
            f"     {spec['name']:<22}{value:>14.4f} {spec['unit']:<11}"
            f"{spec['better']} is better, bound {spec['bound']:.0%}"
            f"  [{samples[spec['name']]}]"
        )
    print("   informational:")
    by_kind = "  ".join(
        f"{kind} {value:.3f}" for kind, value in info["p50_ms_by_kind"].items()
    )
    calib = info["calib_ops_per_s"]
    print(
        f"     p99_ms {info['p99_ms']:.4f} "
        f"({info['samples_beyond_p99']} beyond)   warmup_s "
        f"{info['warmup_s']:.3f}   steady_ratio {info['steady_ratio']:.3f}"
        f"   peak_rss_mb {info['peak_rss_mb']:.1f}"
    )
    print(f"     p50_ms by kind: {by_kind}")
    print(
        f"     pages_written_per_stmt {info['pages_written_per_stmt']:.4f}"
        f"   space_pages {info['space_pages']}   failed_share "
        f"{end['failed'] / end['attempted']:.6f}"
    )
    print(
        f"     calib_ops_per_s {calib[0]:.0f} -> {calib[1]:.0f}"
        f"{'   NOISY (differ > 5 %)' if info['noisy'] else ''}"
    )
    unit = end["check_unit"]
    print(
        f"     check unit: {unit['statements']} statements, "
        f"{unit['pages_read']} pages read, {unit['pages_written']} written, "
        f"{unit['rows_returned']} rows, digest {unit['digest']}"
    )
    if layer is None:
        return
    metrics = {key: entry["value"] for key, entry in layer["metrics"].items()}
    root = metrics["traced_root_ms_per_stmt"]
    print(
        f"   per layer (traced pass, {layer['info']['statements']} "
        f"statements; root {root:.4f} ms/stmt; trace_overhead "
        f"{metrics['trace_overhead']:+.1%}):"
    )
    for problem in layer["problems"]:
        print(f"   PROBLEM {problem}")
    print(f"     {'layer':<20}{'self ms/stmt':>14}{'share':>8}{'calls/stmt':>12}")
    for spec in contract["per_layer"]:
        key = spec["name"]
        if not key.endswith(".self_ms_per_stmt"):
            continue
        name_ = key[: -len(".self_ms_per_stmt")]
        print(
            f"     {name_:<20}{metrics[key]:>14.4f}"
            f"{metrics[key] / root:>8.1%}"
            f"{metrics[name_ + '.calls_per_stmt']:>12.2f}"
        )
    for spec in contract["per_layer"]:
        key = spec["name"]
        if key.endswith((".self_ms_per_stmt", ".calls_per_stmt")) or key in (
            "trace_overhead", "traced_root_ms_per_stmt"
        ):
            continue
        print(f"     {key:<52}{metrics[key]:>14.4f} {spec['unit']}")
    if layer["info"]["unavailable_probes"]:
        print(
            "     unavailable probes: "
            + ", ".join(layer["info"]["unavailable_probes"])
        )
    for label, names, comparison, threshold in SPLITS[name]:
        share = sum(metrics[f"{n}.self_ms_per_stmt"] for n in names) / root
        met = share >= threshold if comparison == ">=" else share <= threshold
        print(
            f"     split: {label} = {share:.1%} "
            f"(chosen for {comparison} {threshold:.0%}: "
            f"{'met' if met else 'NOT MET'})"
        )
    share = metrics["unattributed.self_ms_per_stmt"] / root
    print(
        f"     split: unattributed = {share:.1%} "
        f"(<= 10%: {'met' if share <= 0.10 else 'NOT MET'})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure in this process and print the "
                             "contract's JSON line")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="~2 s and one set-up per workload; not for "
                             "gating")
    parser.add_argument("--repeat", type=int, default=1,
                        help="invocations, with seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None,
                        help="write every invocation's results as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this run's check units to "
                             "expected.json (after an intended change)")
    parser.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--reopen", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.reopen is not None:
        sys.path.insert(0, SRC)
        from workloads import reopen_digest

        print(reopen_digest(args.reopen))
        return 0

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.quick else float(contract["run_seconds"])
    setups = 1 if args.quick else SETUP_SAMPLES

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), setups
        )
        if args.detail:
            with open(args.detail, "w") as handle:
                json.dump(result, handle)
        for problem in result["problems"]:
            print(f"PROBLEM {problem}")
        for key, entry in result["metrics"].items():
            print(f"{key} = {entry['value']!r} {entry['unit']}")
        print(json.dumps({
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0 if result["correct"] else 1

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"run.py: no program to measure under {SRC}")
    runs = []
    correct = True
    for offset in range(args.repeat):
        seed = args.seed + offset
        run = {"seed": seed, "seconds": seconds, "quick": args.quick,
               "workloads": {}}
        for name in names if args.workload is None else [args.workload]:
            end = run_child(name, seed, seconds, 0, args.quick)
            layer = None
            if not args.no_trace:
                layer = run_child(name, seed, seconds, 1, args.quick)
            report(contract, name, end, layer)
            run["workloads"][name] = {"end_to_end": end, "per_layer": layer}
            correct = correct and end["correct"] and (
                layer is None or layer["correct"]
            )
        runs.append(run)
    if args.write_expected:
        with open(os.path.join(HERE, "expected.json"), "w") as handle:
            json.dump({
                "seed": runs[-1]["seed"],
                "workloads": {
                    name: {
                        key: value for key, value in
                        result["end_to_end"]["check_unit"].items()
                        if key != "blocks"
                    }
                    for name, result in runs[-1]["workloads"].items()
                },
            }, handle, indent=2)
            handle.write("\n")
    if args.quick:
        print("\n--quick: too short to gate anything on.")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    print(f"\nall outputs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
