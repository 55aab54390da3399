#!/usr/bin/env python3
"""Build and run one routesync benchmark workload.

    python3 routebench/run.py --workload pm-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (Release) into .bench_build/routebench; later runs only re-check
the build. The last line of stdout is the JSON result; build output and
diagnostics go to stderr. With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<N>.json.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("pm-sweep", "pm-metro", "lan-sweep", "dv-storms")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"routebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "routebench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no routesync sources next to the benchmark (expected {root}/src)")
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "routebench")
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "routebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    print(lines[-1])


if __name__ == "__main__":
    main()
