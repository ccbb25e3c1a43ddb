#!/usr/bin/env python3
"""Build and run the anyk end-to-end benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload topk_fresh --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --workload drain_full --plant weight   # must fail

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild incrementally. Build output goes to stderr. The benchmark's
result is the last line of stdout, one JSON object. Exit code: the
benchmark's (0 = every answer checked out), or non-zero when the build
fails or the sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("topk_fresh", "drain_full", "serve_zipf")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: the library sources (src/, CMakeLists.txt) are "
                 "not next to perfbench/; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("order", "weight", "drop"),
                    help="corrupt one answer on its way to the checks; the "
                         "run must then fail")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            test = build("perfbench_test")
            return subprocess.run([test], cwd=os.path.dirname(test)).returncode
        if args.workload is None:
            ap.error("--workload is required")
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.plant:
        cmd += ["--plant", args.plant]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.csv")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
