"""Run every workload several times and summarize, or compare runs.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --runs 5 --out results.jsonl
    python3 perfbench/suite.py --runs 5 --out new.jsonl --compare old.jsonl
    python3 perfbench/suite.py --load new.jsonl --compare old.jsonl

Each run is one ``run.py`` process with its own workload seed (seeds
``--first-seed`` upward), appended to ``--out`` as one JSON line.  The
report gives, per workload and metric, the median, the quartiles, a
bootstrap 95% interval of the median (50 resamples), and with
``--compare`` the change of the median against the earlier results.  A
metric whose inter-quartile spread, as a share of the median, exceeds
its bound in ``BENCHMARK.json`` is marked ``unresolved``: a change
smaller than the run-to-run noise cannot be read off it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("delegation", "graph-search", "sweep-runtime", "service")


def load(path) -> dict:
    """``{(workload, trace): [record, ...]}`` from a results file."""
    grouped = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            grouped[(record["workload"], record["trace"])].append(record)
    return grouped


def _bounds() -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["bound"] for entry in config["end_to_end"]}


def summarize(records: list) -> dict:
    """Per metric: median, quartiles, bootstrap CI, spread."""
    by_metric = defaultdict(list)
    for record in records:
        for name, value in record["metrics"].items():
            by_metric[name].append(float(value))
    summary = {}
    for name, values in by_metric.items():
        q1, median, q3 = stats.quartiles(values)
        low, high = stats.bootstrap_median_ci(values)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "ci": (low, high), "spread": stats.spread(values),
            "runs": len(values),
        }
    return summary


def report(current: dict, previous: dict = None) -> bool:
    """Print the table; True when every run was correct."""
    bounds = _bounds()
    all_correct = True
    header = (f"{'workload':14s} {'metric':28s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'ci95 of median':>27s} "
              f"{'spread':>7s}")
    if previous is not None:
        header += f" {'delta':>8s}"
    print(header)
    for key in sorted(current):
        workload, trace = key
        records = current[key]
        failed = sum(record["failed"] for record in records)
        attempted = sum(record["attempted"] for record in records)
        all_correct &= all(record["correct"] for record in records)
        summary = summarize(records)
        before = summarize(previous[key]) if previous and key in previous else {}
        for name, entry in summary.items():
            line = (
                f"{workload:14s} {name:28s} {entry['median']:12.6g} "
                f"{entry['q1']:12.6g} {entry['q3']:12.6g} "
                f"[{entry['ci'][0]:12.6g},{entry['ci'][1]:12.6g}] "
                f"{entry['spread']:7.3f}"
            )
            if name in before and before[name]["median"]:
                delta = entry["median"] / before[name]["median"] - 1.0
                line += f" {delta:+8.3f}"
            bound = bounds.get(name) if not trace else None
            if bound is not None and max(
                entry["spread"], before.get(name, {}).get("spread", 0.0)
            ) > bound:
                line += "  unresolved"
            print(line)
        print(f"{workload:14s} {'error_rate':28s} "
              f"{failed / max(attempted, 1):12.6g}  "
              f"({failed} of {attempted} units failed)")
    return all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append run records here")
    parser.add_argument("--load", default=None,
                        help="summarize this results file instead of running")
    parser.add_argument("--compare", default=None,
                        help="earlier results file to compare against")
    args = parser.parse_args(argv)

    if args.load:
        current = load(args.load)
    else:
        if not args.out:
            parser.error("--out is required when running")
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in args.workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]),
                    "--trace", str(args.trace),
                    "--record", args.out,
                ]
                done = subprocess.run(command, cwd=ROOT,
                                      stdout=subprocess.DEVNULL)
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
        current = load(args.out)
    previous = load(args.compare) if args.compare else None
    return 0 if report(current, previous) else 1


if __name__ == "__main__":
    sys.exit(main())
