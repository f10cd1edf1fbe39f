#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload train_sc|foldin_open|lookup_open \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/ (and the
library sources it compiles from ../src) into .bench_build/perfbench, runs
one workload, and prints the run record followed, as the last line, by the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The exit code is 0 only when every
output check passed. --self-test builds and runs the tests of the
benchmark's own accounting (perfbench/loadgen_test.cc).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The benchmark run itself is bounded well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", "4", "--target"] + targets
    for command in (configure, compile_):
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(command))


def source_id():
    """Git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return {"git_sha": head.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"source_sha256": digest.hexdigest()}


def compiler():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if args.workload is None:
        fail("--workload is required")

    build(["perfbench"])
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("run_record "):
        fail("no result from %s (exit %d)" % (command[0], done.returncode))
    record = json.loads(lines[-2][len("run_record "):])
    result = json.loads(lines[-1])
    record.update(source_id())
    record["compiler_path"] = compiler()

    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        fail("metric names differ from BENCHMARK.json: %s" % names)
    for line in lines[:-2]:
        print(line)
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
