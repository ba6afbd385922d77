#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-atm --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/perfbench (Release). The benchmark's last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; see perfbench/README.md for the metrics. A traced run (--trace 1)
also writes its spans to .bench_build/spans-<workload>-<seed>.json.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("bulk-atm", "city-churn", "media-mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be at least 0 and --seconds at least 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(".bench_build", f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    # A terminated run.py must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
