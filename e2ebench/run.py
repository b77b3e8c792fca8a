#!/usr/bin/env python3
"""Build and run the catrsm end-to-end benchmark (bench_e2e).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Run it from the repository root. The first call configures and builds
e2ebench/ (and, through it, the library from the repository's own
CMakeLists.txt) into .bench_build/e2ebench; later calls only run the
incremental build. Before measuring, the metric-name guard checks that the
metrics bench_e2e emits are exactly those BENCHMARK.json lists, with the
same units. The last line of standard output is bench_e2e's result JSON;
the full result file (and, for a traced run, the Chrome trace) is written
to .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
SOURCE = os.path.dirname(os.path.abspath(__file__))
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no catrsm sources here; run from the repository root")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_metric_names():
    """The names and units bench_e2e emits must be those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {(kind, m["name"], m["unit"]) for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    out = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True, check=True)
    have = {tuple(line.split(" ", 2)) for line in out.stdout.splitlines() if line}
    if have != want:
        fail(
            "metric names differ from BENCHMARK.json: only in bench_e2e %s, only in BENCHMARK.json %s"
            % (sorted(have - want), sorted(want - have))
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    check_metric_names()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace))
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", stem + ".json",
    ]
    if args.trace == "1":
        cmd += ["--spans", stem + ".trace.json"]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
