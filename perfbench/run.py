#!/usr/bin/env python3
"""Run one BTrace benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench (Release, test hooks
compiled out) from the repository's sources into .bench_build/ on
first use, runs the workload, and prints as its last line

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    binary = os.path.join(BUILD_DIR, "perfbench")
    jobs = str(min(3, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def no_aslr():
    """Turn address-space randomisation off for the workload process.

    Where the ring and its control block land decides a few page-table
    and cache effects: with randomisation on, the median ring set-up
    time of ten runs fell into two groups 20% apart (spread 21%); off,
    the spread was 5%. The host fingerprint reports the setting.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")

    binary = build()
    work = os.path.join(".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Segments are large; spans (traced runs) are kept.
        for entry in os.listdir(work) if os.path.isdir(work) else []:
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    if r.returncode != 0:
        fail(f"{args.workload} exited with code {r.returncode}")

    result = None
    for line in r.stdout.splitlines():
        if line.startswith("host "):
            print(line)
        elif line.startswith("perfbench-result "):
            result = json.loads(line[len("perfbench-result "):])
    if result is None:
        fail("perfbench printed no result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["values"].get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0  # layer not exercised by this workload
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
