#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from source
with cargo (into $CARGO_TARGET_DIR, or perfbench/target when unset), run
as a child process, and its result line is printed as the last line of
standard output, with the child's peak resident memory added to an
untraced run's metrics. Exits non-zero without a result line when the
build, the run or the result fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coral_sweep", "exchange_a2a", "coral_certify")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "d2net-perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")

    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", os.path.join(HERE, "out")],
        stdout=subprocess.PIPE, text=True)
    stdout = child.stdout.read()
    child.stdout.close()
    # Wait on this child alone: its rusage holds its own peak RSS, where
    # the RUSAGE_CHILDREN total would also count the compiler's.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"benchmark exited with code {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if args.trace == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
