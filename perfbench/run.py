#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, untraced
    python3 perfbench/run.py --selftest

Run from the repository root. The perfbench binary is built from ../src plus
this directory into $CARGO_TARGET_DIR (default .bench_build); build output
goes to stderr. The last line of stdout is the result JSON. The exit status
is nonzero if the build, the self-test or any correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["scan-random-8k", "sessions-1cmd", "ring-rw-4k", "rtnet-bulk-loss"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the binary, echoing its stdout; returns (exit code, last line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1, ""
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, last = run(binary, ["--selftest"])
    print(last, file=sys.stdout if args.selftest else sys.stderr)
    if code != 0 or args.selftest:
        return code

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for name in names:
        code, last = run(binary, ["--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)])
        try:
            results[name] = json.loads(last)
        except ValueError:
            print(last, file=sys.stderr)
            print("perfbench: %s printed no result" % name, file=sys.stderr)
            return 1
        if code != 0 or not results[name]["correct"]:
            status = 1
        print(last)
    if len(names) > 1:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
