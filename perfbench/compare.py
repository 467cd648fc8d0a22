#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results.

    python3 perfbench/compare.py RESULTS            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE      # verdict per metric

A set is a directory of run records written by `perfbench/run.py`
(`<workload>-seed<n>-trace0.json`, one per run). Each run contributes its
median per end-to-end metric; a set's figure is the median of those, with
the first and third quartiles as Python's `statistics.quantiles(n=4)`
gives them.

With one set, prints per workload and metric the median, quartiles and
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.

With two sets, pairs runs by seed (by rank when seeds differ) and prints
both medians, both quartile ranges, the pair wins and a verdict:

- improved: the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's quartile range;
- worse: the parent wins at least 9/10 of the pairs by the same rule;
- unchanged: neither, the medians differ by at most the bound, and the
  parent's spread is within the bound;
- unresolved: anything else (spread wider than the bound, or a gap
  beyond the bound without consistent pair wins).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{workload: {seed: {metric: value}}} of the untraced run records."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        man = rec["manifest"]
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(man["workload"], {})[man["seed"]] = metrics
    if not runs:
        sys.exit(f"compare: no *-trace0.json run records in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    """Verdict of `change` against `parent`: lists of per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    pa = sorted(parent.items())
    ch = sorted(change.items())
    if set(parent) == set(change):
        pairs = [(parent[s], change[s]) for s in sorted(parent)]
    else:
        pairs = list(zip([v for _, v in pa], [v for _, v in ch]))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    a_q1, a_med, a_q3 = quartiles(list(parent.values()))
    _, b_med, _ = quartiles(list(change.values()))
    gain = sign * (b_med - a_med)
    iqr = a_q3 - a_q1
    n = len(pairs)
    if n and wins >= 0.9 * n and gain > iqr:
        v = "improved"
    elif n and losses >= 0.9 * n and -gain > iqr:
        v = "worse"
    elif abs(b_med - a_med) <= bound * abs(a_med) and spread(list(parent.values())) <= bound:
        v = "unchanged"
    elif all(sign * (b - a) > 0 for b in change.values() for a in parent.values()):
        v = "improved"
    else:
        v = "unresolved"
    return v, wins, losses, n


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sets = [load_set(d) for d in argv[1:]]
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        if len(sets) == 1:
            runs = sets[0][workload]
            print(f"   {len(runs)} runs, seeds {sorted(runs)}")
            print(f"   {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            for m in metrics:
                vals = [r[m["name"]] for r in runs.values() if m["name"] in r]
                q1, med, q3 = quartiles(vals)
                s = spread(vals)
                flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
                print(f"   {m['name']:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{s:>8.4f} {m['bound']:>6}{flag}")
            continue
        if workload not in sets[0] or workload not in sets[1]:
            print("   only in one set; not compared")
            continue
        print(f"   {'metric':<22} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
              f" {'wins':>7}  verdict")
        for m in metrics:
            name = m["name"]
            parent = {s: r[name] for s, r in sets[0][workload].items() if name in r}
            change = {s: r[name] for s, r in sets[1][workload].items() if name in r}
            if not parent or not change:
                continue
            v, wins, losses, n = verdict(parent, change, m["better"], m["bound"])
            a = quartiles(list(parent.values()))
            b = quartiles(list(change.values()))
            fa = f"{a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]"
            fb = f"{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
            print(f"   {name:<22} {fa:>36} {fb:>36} {wins:>3}/{n:<3}  {v}")


if __name__ == "__main__":
    main(sys.argv)
