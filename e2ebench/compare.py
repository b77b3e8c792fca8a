#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json's bounds.

    python3 e2ebench/compare.py --old <result.json|dir>... --new <result.json|dir>...
                                [--spec BENCHMARK.json]

Each result is a file bench_e2e wrote with --out (a directory stands for
every untraced result file in it). For each (workload, end-to-end metric)
pair it prints both sets' median and quartiles and a verdict:

  modeled_* metrics   compared exactly: nondeterministic when any two runs,
                      in either set, disagree; else unchanged, improved or
                      regressed.
  wall metrics        regressed when the new median is worse than the old
                      by more than the metric's bound; improved when it is
                      better by more than the bound; unresolved when either
                      set's spread (interquartile range over median) is
                      wider than the bound, unless every new run beats
                      every old run.
  max_residual        (from the result file, not a BENCHMARK.json metric)
                      regressed when the new set's largest residual is more
                      than ten times the old set's largest.

Exits 1 if any pair regressed or is nondeterministic, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(paths):
    """{workload: {metric: [values]}} from untraced bench_e2e result files."""
    out = {}
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                try:
                    r = json.load(fh)
                except json.JSONDecodeError:
                    continue
            if not isinstance(r, dict) or r.get("trace") != 0 or "workload" not in r:
                continue
            values = {name: m["value"] for name, m in r["metrics"].items()}
            values["max_residual"] = r["max_residual"]
            for name, v in values.items():
                out.setdefault(r["workload"], {}).setdefault(name, []).append(v)
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(metric, old, new):
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    worse = (nmed - omed) / omed if lower else (omed - nmed) / omed
    if name.startswith("modeled_"):
        if len(set(old)) > 1 or len(set(new)) > 1:
            return worse, "nondeterministic"
        return worse, "unchanged" if nmed == omed else ("regressed" if worse > 0 else "improved")
    spread = max((oq3 - oq1) / omed, (nq3 - nq1) / nmed)
    all_better = max(new) < min(old) if lower else min(new) > max(old)
    if all_better and -worse > bound:
        return worse, "improved"
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if -worse > bound:
        return worse, "improved"
    return worse, "unchanged"


def residual_verdict(old, new):
    """Every run fails a residual above 1e-12; this catches a loss of
    accuracy that stays under that threshold."""
    worse = max(new) / max(old) - 1 if max(old) > 0 else float("nan")
    return worse, "regressed" if max(new) > 10 * max(old) else "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--old", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    old, new = load(args.old), load(args.new)

    counts = {}
    print("%-18s %-20s %28s %28s %8s  %s" % ("workload", "metric", "old median [q1, q3]",
                                           "new median [q1, q3]", "worse", "verdict"))
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + [{"name": "max_residual"}]:
            o = old.get(w["name"], {}).get(m["name"])
            n = new.get(w["name"], {}).get(m["name"])
            if not o or not n:
                v, worse = "missing", float("nan")
            elif m["name"] == "max_residual":
                worse, v = residual_verdict(o, n)
            else:
                worse, v = verdict(m, o, n)
            counts[v] = counts.get(v, 0) + 1
            fmt = lambda vals: "%.5g [%.5g, %.5g]" % tuple(quartiles(vals)[i] for i in (1, 0, 2)) if vals else "-"
            print("%-18s %-20s %28s %28s %+7.2f%%  %s" % (w["name"], m["name"], fmt(o), fmt(n), 100 * worse, v))
    print("; ".join("%s: %d" % kv for kv in sorted(counts.items())))
    sys.exit(1 if counts.get("regressed") or counts.get("nondeterministic") else 0)


if __name__ == "__main__":
    main()
