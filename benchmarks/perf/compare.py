"""Apply the committed bounds to two sets of benchmark runs.

    python3 benchmarks/perf/compare.py A.json B.json
    python3 benchmarks/perf/compare.py --aa N [--seed S] [--workload NAME]

A.json and B.json are files written by ``run.py --out`` (use ``--repeat``
for several invocations per file).  ``--aa N`` makes them itself: N
untraced invocations of this checkout, twice, with the same seeds -- the
benchmark compared with itself, which must come out ``ok`` everywhere.

For every workload and every end-to-end metric of ``BENCHMARK.json`` one
row is printed with both medians, the change, the run-to-run spread and
a verdict:

``worse``       B's median is worse than A's by more than the bound (and
                by more than the absolute floor of 0.02 ms / 0.05 s);
``unresolved``  not worse, but the spread (distance between the first and
                third quartile over the median, the larger of the two
                sides) is wider than the bound, so "no change" cannot be
                told from a change of that size;
``ok``          otherwise.

The check units (statement, page and row counts and the digest of all
replies) of runs with the same seed must be identical on both sides.
Exit code 1 if any row is ``worse`` or any check unit differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, OUT, load_contract

ABSOLUTE_FLOOR = {"ms": 0.02, "s": 0.05}


def spread(values) -> "float | None":
    """Interquartile distance as a share of the median (None below two
    values, where it is not defined)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(spec: dict, a_values, b_values) -> dict:
    """One row: medians, relative worsening, spread and the verdict."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    worse_by = (b - a) if spec["better"] == "lower" else (a - b)
    relative = worse_by / a if a else 0.0
    spreads = [s for s in (spread(a_values), spread(b_values)) if s is not None]
    widest = max(spreads) if spreads else None
    floor = ABSOLUTE_FLOOR.get(spec["unit"], 0.0)
    if relative > spec["bound"] and worse_by > floor:
        word = "worse"
    elif widest is not None and widest > spec["bound"]:
        word = "unresolved"
    else:
        word = "ok"
    return {"a": a, "b": b, "worse_by": relative, "spread": widest,
            "verdict": word}


def collect(document: dict) -> dict:
    """``{workload: {"metrics": {name: [values]}, "units": {seed: unit}}}``."""
    collected: dict = {}
    for run in document["runs"]:
        for name, result in run["workloads"].items():
            end = result["end_to_end"]
            entry = collected.setdefault(name, {"metrics": {}, "units": {}})
            for metric, value in end["metrics"].items():
                entry["metrics"].setdefault(metric, []).append(value["value"])
            entry["units"][run["seed"]] = end["check_unit"]
            if not end["correct"]:
                entry["incorrect"] = True
    return collected


def compare(contract: dict, a: dict, b: dict) -> bool:
    """Print the table; true when nothing is worse or different."""
    left, right = collect(a), collect(b)
    passed = True
    print(
        f"{'workload':<20}{'metric':<22}{'A median':>13}{'B median':>13}"
        f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in left or workload not in right:
            continue
        for spec in contract["end_to_end"]:
            row = verdict(
                spec,
                left[workload]["metrics"][spec["name"]],
                right[workload]["metrics"][spec["name"]],
            )
            passed = passed and row["verdict"] != "worse"
            shown = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
            print(
                f"{workload:<20}{spec['name']:<22}{row['a']:>13.4f}"
                f"{row['b']:>13.4f}{row['worse_by']:>+10.1%}{shown:>9}"
                f"{spec['bound']:>7.0%}  {row['verdict']}"
            )
        shared = sorted(
            set(left[workload]["units"]) & set(right[workload]["units"])
        )
        same = all(
            left[workload]["units"][seed] == right[workload]["units"][seed]
            for seed in shared
        )
        wrong = any(side[workload].get("incorrect") for side in (left, right))
        passed = passed and same and not wrong
        print(
            f"{workload:<20}counts and digests of {len(shared)} shared "
            f"seed(s): {'identical' if same else 'DIFFERENT'}"
            f"{'; INCORRECT OUTPUT in a run' if wrong else ''}"
        )
    return passed


def invoke(count: int, seed: int, workload: "str | None", path: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--no-trace",
        "--repeat", str(count), "--seed", str(seed), "--out", path,
    ]
    if workload:
        command += ["--workload", workload]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("files", nargs="*", metavar="FILE")
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", default=None)
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.aa:
        os.makedirs(OUT, exist_ok=True)
        a, b = (
            invoke(args.aa, args.seed, args.workload,
                   os.path.join(OUT, f"aa-{side}.json"))
            for side in "AB"
        )
    elif len(args.files) == 2:
        with open(args.files[0]) as left, open(args.files[1]) as right:
            a, b = json.load(left), json.load(right)
    else:
        parser.error("give two result files, or --aa N")
    return 0 if compare(contract, a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
