#!/usr/bin/env python3
"""Two-clock serving benchmark of the xehe serving stack.

Builds the perfbench program (perfbench/CMakeLists.txt compiles the
library from the repository's src/ alongside it) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs one workload from the
repository root:

    python3 perfbench/run.py --workload host_serving --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is non-zero when any
outcome check fails or the build does.  The default seed is 1; the
held-out seed is 20261016 (perfbench/rationale.md).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced-size run (the benchmark's own tests)")
    ap.add_argument("--plant", choices=("wrong_result", "flip_status"),
                    help="corrupt one response to prove the checks fail")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.plant:
        cmd += ["--plant", args.plant]
    sys.stdout.flush()
    try:
        # run() kills and reaps the program if it overruns.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
