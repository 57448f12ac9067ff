#!/usr/bin/env python3
"""Builds the engine and the workload benchmark from source, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/ (Release, at most four compile jobs) and is
reused by later runs. Disk tables are written under .bench_build/data/ and
removed when the run ends; with --trace 1 the spans are written to
.bench_build/traces/<workload>-<seed>.jsonl. Build output goes to stderr, so
the last stdout line is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: engine sources not found next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--scale")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [BINARY, "--seed", args.seed, "--data-dir", os.path.join(BUILD, "data")]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seconds", args.seconds, "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, "%s-%s.jsonl" % (args.workload, args.seed))]
    if args.scale:
        cmd += ["--scale", args.scale]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
