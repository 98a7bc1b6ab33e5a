#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-m4-serve --seed 1 --seconds 35 --trace 0

The C++ benchmark program is built (incrementally) under $CARGO_TARGET_DIR, default
.bench_build, in the current directory. Build output goes to stderr, so the
last line of stdout is the program's one-line JSON result. Exits non-zero,
without a result, when the build or the run fails. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-m4-serve", "lv-m8-fabric", "lh-m128-fabric")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected(workload, seed):
    """Model digest and accuracy recorded for (workload, seed), if any."""
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(os.getcwd(),
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces")]
    golden = expected(args.workload, args.seed)
    if golden is not None:
        cmd += ["--expect-digest", golden["digest"],
                "--expect-accuracy", repr(golden["accuracy"])]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
