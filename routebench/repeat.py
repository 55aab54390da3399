#!/usr/bin/env python3
"""Run each benchmark workload k times and summarise the spread.

    python3 routebench/repeat.py --runs 10 --seconds 10
    python3 routebench/repeat.py --workloads dv-storms --runs 5 --first-seed 100

Run from the repository root. Run i of every workload uses seed
first-seed + i. For each end-to-end metric the table gives the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median; the bounds in BENCHMARK.json are set from this
output. It also prints the share of failed operations per workload, which
must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="pm-sweep,pm-metro,lan-sweep,dv-storms")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"repeat: {workload} seed {seed} failed (exit {proc.returncode})")
            result = json.loads(lines[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"all correct: {all(r['correct'] for r in results)}, "
              f"failed share(s): {shares}")
        print(f"  {'metric':28s} {'unit':8s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s}")
        for name, meta in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} {meta['unit']:8s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f}")


if __name__ == "__main__":
    main()
