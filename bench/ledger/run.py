#!/usr/bin/env python3
"""Builds the perf ledger from source, then runs one of its workloads.

Usage, from the repository root:

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The ledger is a CMake package of its own (bench/ledger/CMakeLists.txt) that
compiles the repository's src/ with the main build's flags.  It is built in
$CARGO_TARGET_DIR/ledger, or .bench_build/ledger when that is unset.  Build
output goes to stderr, so the ledger's JSON result stays the last line of
stdout.  A failed build exits non-zero without printing a result.  With
--trace 1 the ledger also writes its Chrome trace to <build>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))


def run_build_step(command):
    """Runs one build command with its output on stderr."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("run.py: build step failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "ledger")
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", LEDGER_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", build_dir, "--target", "ledger",
                    "-j", "4"])

    ledger = os.path.join(build_dir, "ledger")
    command = [ledger, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--chrome", traces]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(ledger, command)


if __name__ == "__main__":
    main()
