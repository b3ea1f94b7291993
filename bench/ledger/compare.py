#!/usr/bin/env python3
"""Compares two sets of ledger results, metric by metric and workload by workload.

    python3 bench/ledger/compare.py --parent <file|dir>... --change <file|dir>...
    python3 bench/ledger/compare.py --same <set A> <set B>

A result file is the saved stdout of one `run.py` call (a directory stands
for every *.out file in it). Runs pair up by (workload, seed). For each
(metric, workload) the table gives each set's median and quartiles, the
parent's quartile spread as a share of its median, the pairs the change
won (ties count for neither side), and a verdict:

  improved    the change won at least 9 of every 10 pairs and the medians
              differ by more than the parent's own quartile spread;
  unresolved  the parent's quartile spread is wider than the metric's bound
              and not every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound BENCHMARK.json fixes for the metric;
  unchanged   otherwise.

Per-layer metrics have no bound; they are reported as improved, regressed
(the mirror of the improved rule) or unchanged. --same is the A/A check: two
sets of the same commit must put every end-to-end median pair inside its
bound with no improved or regressed verdict; it exits 1 otherwise. Any run
that failed its output check makes the comparison exit 1 as well.
"""
import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
WORKLOAD_LINE = re.compile(r"^ledger: workload=(\S+) seed=(\d+)")


def load_runs(paths):
    """{(workload, seed): result} for every result file under `paths`."""
    runs = {}
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.out")) if path.is_dir() else [path]
    for file in files:
        lines = file.read_text().strip().splitlines()
        header = next((m for m in map(WORKLOAD_LINE.match, lines) if m), None)
        if header is None or not lines:
            sys.exit(f"compare.py: {file} is not a ledger result")
        result = json.loads(lines[-1])
        runs[(header.group(1), int(header.group(2)))] = result
    return runs


def better(direction, a, b):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def summarize(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec, parent, change, pairs):
    direction, bound = spec["better"], spec.get("bound")
    p_q1, p_med, p_q3 = summarize(parent)
    _, c_med, _ = summarize(change)
    wins = sum(better(direction, c, p) for p, c in pairs)
    losses = sum(better(direction, p, c) for p, c in pairs)
    spread = p_q3 - p_q1
    if pairs and abs(c_med - p_med) > spread:
        if wins >= 0.9 * len(pairs) and better(direction, c_med, p_med):
            return "improved", wins
        if bound is None and losses >= 0.9 * len(pairs):
            return "regressed", wins
    if bound is None:
        return "unchanged", wins
    worse_share = (c_med - p_med) / p_med
    if direction == "higher":
        worse_share = -worse_share
    all_better = all(better(direction, c, p) for c in change for p in parent)
    if spread / p_med > bound and not all_better:
        return "unresolved", wins
    if worse_share > bound:
        return "regressed", wins
    return "unchanged", wins


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--same", nargs=2, metavar=("SET_A", "SET_B"),
                        help="A/A agreement check of two sets of one commit")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    if args.same:
        args.parent, args.change = [args.same[0]], [args.same[1]]
    if not args.parent or not args.change:
        parser.error("give --parent and --change, or --same")

    benchmark = json.loads(Path(args.benchmark).read_text())
    specs = {m["name"]: dict(m, kind="end_to_end") for m in benchmark["end_to_end"]}
    specs.update({m["name"]: dict(m, kind="per_layer") for m in benchmark["per_layer"]})
    parent, change = load_runs(args.parent), load_runs(args.change)

    status = 0
    for label, runs in (("parent", parent), ("change", change)):
        for (workload, seed), result in sorted(runs.items()):
            if not result["correct"] or result["failed"]:
                print(f"{label} run {workload} seed {seed} failed its checks")
                status = 1

    print(f"{'workload':<15} {'metric':<34} {'parent q1 / median / q3':>32} "
          f"{'change q1 / median / q3':>32} {'spread':>7} {'won':>6}  verdict")
    same_failures = []
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    for workload in workloads:
        seeds = sorted({s for w, s in parent if w == workload} &
                       {s for w, s in change if w == workload})
        names = [n for n in specs
                 if all(n in parent[(workload, s)]["metrics"] and
                        n in change[(workload, s)]["metrics"] for s in seeds)]
        for name in names if seeds else []:
            spec = specs[name]
            p_values = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c_values = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            result, wins = verdict(spec, p_values, c_values,
                                   list(zip(p_values, c_values)))
            p, c = summarize(p_values), summarize(c_values)
            print(f"{workload:<15} {name:<34} "
                  f"{p[0]:>10.4g} {p[1]:>10.4g} {p[2]:>10.4g} "
                  f"{c[0]:>10.4g} {c[1]:>10.4g} {c[2]:>10.4g} "
                  f"{(p[2] - p[0]) / abs(p[1]) if p[1] else 0:>7.1%} "
                  f"{wins:>3}/{len(seeds):<2}  {result}")
            if spec["kind"] == "end_to_end":
                drift = abs(c[1] - p[1]) / p[1]
                if result in ("improved", "regressed") or drift > spec["bound"]:
                    same_failures.append(f"{workload} {name}: {result}, "
                                         f"medians {drift:.1%} apart "
                                         f"(bound {spec['bound']:.0%})")
    if args.same:
        if same_failures:
            print("A/A check FAILED:\n  " + "\n  ".join(same_failures))
            status = 1
        else:
            print("A/A check passed: every end-to-end median pair is inside "
                  "its bound, with no improved or regressed verdict.")
    return status


if __name__ == "__main__":
    sys.exit(main())
