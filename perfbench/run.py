#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload decode_long --seed 3 --seconds 30 --trace 0

Run from the repository root. The benchmark is compiled into
.bench_build/perfbench on first use (the library comes from the
repository's own CMakeLists.txt); later runs only re-check the build.
The last line of standard output is the JSON result of the run; build
output goes to standard error. With --trace 1 the spans of the run are
written to .bench_build/perfbench/traces/.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("prefill_ffn", "decode_long", "decode_serve")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for --seconds plus set-up, checks and (traced) probes;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def run(cmd):
    """Run the benchmark binary; stop it if this script is stopped."""
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt a checked output")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
