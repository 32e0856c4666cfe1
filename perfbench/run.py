#!/usr/bin/env python3
"""FL-round benchmark: build the benchmark program from source, run one
workload, print the result.

    python3 perfbench/run.py --workload paper_cifar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process
    python3 perfbench/run.py --selftest            # benchmark self-tests

Run from the repository root. The program is built (Release) under
.bench_build/perfbench; results and spans land in .bench_build/out. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "fl_round_bench")
# The library runs single-threaded (recorded with every result). This guest
# shares its host: at 2 worker threads the round medians of market_100k
# spread by 0.4 of their median across ten runs, at 1 thread by 0.06.
LIBRARY_THREADS = "1"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def tool_env():
    """The environment for the build and the benchmark program: compiler
    temporaries stay inside the checkout, and the library runs
    LIBRARY_THREADS threads."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["FMORE_THREADS"] = LIBRARY_THREADS
    return env


def build(env):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "fl_round_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, args):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys " + ", ".join(sorted(result)))
    if args.workload != "all":
        want = expected_metrics(args.trace == 1)
        if set(result["metrics"]) != want:
            fail("metrics differ from BENCHMARK.json: "
                 + ", ".join(sorted(set(result["metrics"]) ^ want)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the fmore sources (CMakeLists.txt, src/) are not next to perfbench/")
    env = tool_env()
    build(env)
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        cmd = [BINARY, "--selftest", "--out", OUT, "--seed", str(args.seed)]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("fl_round_bench exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not args.selftest:
        check_result(lines[-1], args)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
