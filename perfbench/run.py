#!/usr/bin/env python3
"""The repository benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload, both modes, tiny
    python3 perfbench/run.py --selftest   # tests of the benchmark's helpers

Run from the repository root. Builds perfbench (and the LinuxFP libraries
from ../src) under .bench_build/, runs one workload and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics. The metric names must be exactly those BENCHMARK.json lists for the
mode: end_to_end untraced, per_layer traced. Exits non-zero when the build
fails, when an output was wrong, or when the metric set is off.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["router_64b", "gateway_imix", "linux_64b", "reaction_storm"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the binary; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed no result (exit %d)" %
            (workload, proc.returncode))
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        log("perfbench: metric set differs from BENCHMARK.json; missing %s, "
            "extra %s" % (sorted(set(want) - set(got)),
                          sorted(set(got) - set(want))))
        return 3, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.selftest:
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_helpers_test")]).returncode
    if args.smoke:
        failed = 0
        for workload in WORKLOADS:
            for trace in (False, True):
                code, result = run_workload(workload, args.seed, 1, trace,
                                            smoke=True)
                ok = code == 0 and result is not None and result["correct"]
                log("smoke %-15s trace=%d %s" %
                    (workload, trace, "ok" if ok else "FAILED"))
                failed += not ok
        return 1 if failed else 0
    if not args.workload:
        ap.error("--workload is required")
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace == 1)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
