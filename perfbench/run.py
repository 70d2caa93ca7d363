#!/usr/bin/env python3
"""Runs one workload of the Interactive benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload interactive-mix --seed 7 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --calibrate paper-split-mix

The harness is a CMake project in this directory that compiles the
program's libraries from ../src. Every run configures and builds it into
.bench_build/perfbench at the root of the checkout; only the first build
compiles everything. Build output goes to stderr, so the last line on
stdout is the harness's result JSON. Workload definitions come from
workloads.json.

--trace 1 writes the traced replay's spans to
.bench_build/spans/<workload>-<seed>.json.

--calibrate prints the frozen frequencies and walk of a calibrated workload
re-derived on this machine, to paste into workloads.json; it never runs as
part of a measurement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# A run ends well inside 180 s; a hung harness is killed after this.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures and builds the harness; exits non-zero on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"perfbench: build step failed: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def workload_flags(name):
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        workloads = {w["name"]: w for w in json.load(f)["workloads"]}
    if name not in workloads:
        sys.exit(f"perfbench: unknown workload {name!r}; "
                 f"known: {', '.join(sorted(workloads))}")
    w = workloads[name]
    mix = w["mix"]
    return [
        "--workload", name,
        "--scale-factor", repr(w["scale_factor"]),
        "--complex-reads", "1" if mix["complex_reads"] else "0",
        "--frequencies", ",".join(str(f) for f in mix["frequencies"]),
        "--log-scale", "1" if mix["log_scale"] else "0",
        "--params-per-query", str(mix["params_per_query"]),
        "--walk", f"{mix['walk']['initial_probability']!r},"
                  f"{mix['walk']['decay']!r}",
        "--operations", str(w["operation_count"]),
        "--latency-acceleration", repr(w["latency_acceleration"]),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0x5eed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--calibrate", metavar="WORKLOAD")
    args = parser.parse_args()

    if args.self_test:
        cmd = ["--self-test"]
    elif args.calibrate:
        cmd = ["--calibrate", "--seed", args.seed] + \
            workload_flags(args.calibrate)
    elif args.workload:
        cmd = workload_flags(args.workload) + [
            "--seed", args.seed, "--seconds", repr(args.seconds),
            "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                ROOT, ".bench_build", "spans",
                f"{args.workload}-{args.seed}.json")]
    else:
        parser.error("give --workload, --self-test or --calibrate")

    build()
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + cmd, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
