#!/usr/bin/env python3
"""Build and run the llmq repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) into .bench_build/; later calls only
rebuild what changed. Every call runs the benchmark's math tests before
measuring. The benchmark prints each metric by name with its unit and, as
its last line, one JSON object. Workloads and metrics: perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
SPANS = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("batch_paper", "stream_ggr", "chat_tiered")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "online.hpp")):
        fail("llmq sources (src/) not found next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0].split("=", 1)[1].strip()) != os.path.realpath(SRC):
            shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if subprocess.run([os.path.join(BUILD, "perfbench_math_test")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("benchmark math tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-tiers", type=int, default=0,
                    help="override chat_tiered's cache tiers (1 = flat arm)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the benchmark's math tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    if args.selftest:
        return 0
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans-dir", SPANS]
    if args.cache_tiers:
        cmd += ["--cache-tiers", str(args.cache_tiers)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
