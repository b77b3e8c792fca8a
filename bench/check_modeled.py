#!/usr/bin/env python3
"""Check that a fresh bench_runner run reproduces the committed modeled costs.

    python3 bench/check_modeled.py <committed BENCH_sim.json> <fresh BENCH_sim.json>

Every record with p > 1 in the committed file must appear in the fresh file
under the same (name, p, n, k), with identical modeled msgs, words, flops
and critical_time, and the fresh file may add no such record. Records with
p == 1 are the host-side kernel cases: they carry zero modeled cost, and
their gemm_mt thread sweep depends on the host, so they are skipped.

Prints one line per difference and exits 1 if there is any, else 0.
"""

import json
import sys

FIELDS = ("msgs", "words", "flops", "critical_time")


def simulated(path):
    """{(name, p, n, k): modeled dict} of the file's p > 1 records."""
    with open(path) as f:
        records = json.load(f)
    out = {}
    for r in records:
        if r["p"] <= 1:
            continue
        key = (r["name"], r["p"], r["n"], r["k"])
        if key in out:
            sys.exit(f"{path}: duplicate record {key}")
        out[key] = r["modeled"]
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: check_modeled.py <committed.json> <fresh.json>")
    committed = simulated(sys.argv[1])
    fresh = simulated(sys.argv[2])
    problems = []
    for key, want in committed.items():
        got = fresh.get(key)
        if got is None:
            problems.append(f"missing: {key}")
            continue
        for field in FIELDS:
            if got[field] != want[field]:
                problems.append(f"changed: {key} {field} "
                                f"{want[field]!r} -> {got[field]!r}")
    for key in fresh.keys() - committed.keys():
        problems.append(f"added: {key}")
    for line in problems:
        print(line)
    print(f"check_modeled: {len(committed)} simulated records, "
          f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
