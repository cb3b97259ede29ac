#!/usr/bin/env python3
"""Builds the perfbench binary from the repository's sources and runs one
workload of the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 33 \
        --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured RelWithDebInfo like the engine's default build; the first run
builds, later runs only check that the build is current. Build output goes
to stderr. The benchmark's report goes to stdout and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when the benchmark ran (its JSON line says whether the program
was correct), 2 when the sources or the build are missing or broken, 1 when
the benchmark process misbehaved (crashed, overran, or printed no result).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_power", "tpcds_adhoc", "sessions_hitpath")
# A workload run must end well within three minutes; the benchmark's own
# watchdog reports a stuck run at 170 s, this is the backstop behind it.
RUN_TIMEOUT_S = 176
BUILD_TIMEOUT_S = 880


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "engine sources (src/) not found next to perfbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_root), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(2, "build step failed: %s" % e)
        if done.returncode != 0:
            fail(2, "build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--checksums", os.path.join(HERE, "checksums")]
    if args.write_checksums:
        cmd.append("--write-checksums")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(1, "workload run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(1, "benchmark exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(1, "benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(1, "malformed result line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-checksums", action="store_true",
                        help="write the warm-up checksums as the stored set")
    args = parser.parse_args()
    run(build(), args)


if __name__ == "__main__":
    main()
