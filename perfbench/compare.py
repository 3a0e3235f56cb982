#!/usr/bin/env python3
"""Compares two result sets of the repo benchmark.

Usage:
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds runs appended by `perfbench/run.py --record FILE`. Runs
of the two sets pair up by workload and seed (in recorded order when a
seed repeats), so both sides of a pair saw the same inputs. For every
workload and end-to-end metric of BENCHMARK.json, one row gives each
side's median and quartiles, the change's win fraction over the pairs
and the verdict of benchstats.verdict: improved, unchanged, worse or
unresolved.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep perfbench/ free of caches
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def load(path):
    """{workload: {seed: [metrics, ...]}} of the untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            ctx = rec["context"]
            if ctx["trace"]:
                continue
            by_seed = runs.setdefault(ctx["workload"], {})
            by_seed.setdefault(ctx["seed"], []).append(
                rec["result"]["metrics"])
    return runs


def pairs(parent, change):
    """Paired (parent, change) metric dicts of one workload."""
    out = []
    for seed in sorted(set(parent) & set(change)):
        out.extend(zip(parent[seed], change[seed]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    header = ("workload", "metric", "unit", "parent q1/med/q3",
              "change q1/med/q3", "wins", "verdict")
    rows = [header]
    for workload in [w["name"] for w in spec["workloads"]]:
        matched = pairs(parent.get(workload, {}), change.get(workload, {}))
        if not matched:
            rows.append((workload, "-", "-", "-", "-", "-", "no pairs"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [a[name]["value"] for a, _ in matched]
            c = [b[name]["value"] for _, b in matched]
            verdict, wins = benchstats.verdict(p, c, metric["better"],
                                               metric["bound"])
            rows.append((workload, name, metric["unit"],
                         "%.4g/%.4g/%.4g" % benchstats.quartiles(p),
                         "%.4g/%.4g/%.4g" % benchstats.quartiles(c),
                         "%.2f of %d" % (wins, len(matched)), verdict))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
