#!/usr/bin/env python3
"""Builds and runs the service benchmark (see README.md beside this file).

Run from the root of a checkout:

  python3 svcbench/run.py --workload dense_triangle --seed 1 --seconds 30 --trace 0
  python3 svcbench/run.py --smoke

The first form builds the library and the benchmark from source into
.bench_build/svcbench (once; later runs rebuild incrementally), runs one
workload and prints its result as the last line of standard output. It
exits non-zero, without a result line, when the checkout holds no source
to build, the build fails, or the run does not produce the metrics that
BENCHMARK.json declares. With --trace 1 the spans of the traced run are
written to .bench_build/svcbench/trace-<workload>-<seed>.jsonl.

--smoke runs every workload at a tiny N, traced and untraced, and fails
on a wrong answer, a failed request or a metric BENCHMARK.json declares
that the run did not print.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "svcbench"
BINARY = BUILD / "svcbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Every workload the binary serves. skew_shapes is smoke-tested but not in
# BENCHMARK.json: its figures do not hold still between runs (README.md).
ALL_WORKLOADS = ("dense_triangle", "skew_shapes", "ingest_replan")


def fail(message, code=1):
    print(f"svcbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            fail(f"no {needed} at {ROOT}: nothing to build the benchmark from",
                 code=2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "svcbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run(argv):
    """Runs the binary; returns (exit code, parsed result or None, stdout)."""
    try:
        done = subprocess.run([str(BINARY)] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, None, ""
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout


def metric_problems(result, expected):
    """How a result line's metrics differ from the declared ones."""
    if result is None:
        return ["no result line"]
    found = set(result.get("metrics", {}))
    out = []
    if expected - found:
        out.append(f"missing metrics {sorted(expected - found)}")
    if found - expected:
        out.append(f"undeclared metrics {sorted(found - expected)}")
    return out


def smoke(threads):
    end_to_end, per_layer = declared_metrics()
    bad = 0
    for workload in ALL_WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            if threads:
                argv += ["--threads", str(threads)]
            code, result, _ = run(argv)
            issues = metric_problems(result, expected)
            if code != 0:
                issues.append(f"exit code {code}")
            if result is not None and not result.get("correct"):
                issues.append("wrong answers")
            if result is not None and result.get("failed", 1) != 0:
                issues.append(f"{result['failed']} failed requests")
            status = "ok" if not issues else "FAIL: " + "; ".join(issues)
            print(f"smoke {workload} trace={trace}: {status}")
            bad += bool(issues)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--threads", type=int, default=0,
                        help="pool workers (default: min(4, nproc))")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        return smoke(args.threads)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.threads:
        argv += ["--threads", str(args.threads)]
    if args.trace == "1":
        argv += ["--trace-out",
                 str(BUILD / f"trace-{args.workload}-{args.seed}.jsonl")]
    code, result, stdout = run(argv)
    end_to_end, per_layer = declared_metrics()
    issues = metric_problems(result,
                             per_layer if args.trace == "1" else end_to_end)
    if code != 0 or issues:
        # Keep the report, drop the (missing or malformed) result line.
        sys.stdout.write("\n".join(stdout.splitlines()[:-1]) + "\n")
        fail(f"exit code {code}; " + "; ".join(issues))
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
