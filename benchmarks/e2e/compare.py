"""Compare two sets of benchmark runs by the rules BENCHMARK.json fixes.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per ``run.py --out FILE`` invocation
(untraced lines are compared; traced lines are skipped).  Run i of one
file is paired with run i of the other, so alternate which side runs
first while collecting them.  For every workload and end-to-end metric
it prints each side's median and quartiles and a verdict:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``gain`` — the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` — the parent's own spread is wider than the bound, and
  not every run of the change reads better than every run of the parent;
* ``within bound`` — otherwise.

The exit code is 1 when any pairing is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Host fingerprint fields that must match for timings to compare.
HOST_KEYS = ("cpu", "nproc", "python", "numpy")


def load(path: str) -> tuple[dict, list[dict]]:
    """workload -> metric -> values (in file order), and the hosts."""
    values: dict[str, dict[str, list[float]]] = {}
    hosts = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            hosts.append(record["host"])
            for workload, result in record["workloads"].items():
                for name, value in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(
                        name, []).append(value)
    return values, hosts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, second, third = statistics.quantiles(values, n=4)
    return first, second, third


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float, int, int]:
    """Verdict, relative median change (positive = worse), pairs won by
    the change, and pairs compared."""
    sign = 1.0 if better == "lower" else -1.0
    low, mid, high = quartiles(parent)
    change_mid = statistics.median(change)
    worse = sign * (change_mid - mid) / abs(mid) if mid else \
        sign * (change_mid - mid)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) < 0)
    spread = (high - low) / abs(mid) if mid else 0.0
    if worse > bound:
        return "regression", worse, wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and worse < 0 and \
            abs(change_mid - mid) > high - low:
        return "gain", worse, wins, len(pairs)
    if spread > bound and not all(sign * (new - old) < 0
                                  for old in parent for new in change):
        return "unresolved", worse, wins, len(pairs)
    return "within bound", worse, wins, len(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change runs of the end-to-end "
                    "benchmark (see README.md).")
    parser.add_argument("parent", help="run.py --out file of the parent")
    parser.add_argument("change", help="run.py --out file of the change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, parent_hosts = load(args.parent)
    change, change_hosts = load(args.change)
    hosts = {tuple(host[key] for key in HOST_KEYS)
             for host in parent_hosts + change_hosts}
    if len(hosts) > 1:
        print(f"warning: runs come from {len(hosts)} different hosts; "
              f"timings do not compare across hosts", file=sys.stderr)
    regressions = 0
    print(f"{'workload':14} {'metric':13} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'worse':>8} {'wins':>6}  "
          f"verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            old = parent[workload].get(name)
            new = change[workload].get(name)
            if not old or not new:
                continue
            result, worse, wins, pairs = verdict(old, new, metric["better"],
                                                 metric["bound"])
            regressions += result == "regression"
            print(f"{workload:14} {name:13} {_fmt(old):>30} "
                  f"{_fmt(new):>30} {100 * worse:+7.2f}% "
                  f"{wins:>3}/{pairs:<2}  {result} "
                  f"(bound {100 * metric['bound']:g}%)")
    return 1 if regressions else 0


def _fmt(values: list[float]) -> str:
    low, mid, high = quartiles(values)
    return f"{mid:.4g} [{low:.4g}, {high:.4g}] n={len(values)}"


if __name__ == "__main__":
    sys.exit(main())
