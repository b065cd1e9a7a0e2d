#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload, and prints as the last line of
standard output one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `metrics` holds every `end_to_end` metric of
`BENCHMARK.json` (`--trace 0`) or every `per_layer` metric (`--trace 1`),
each with its value and unit. Exits with a non-zero code, printing no
result, when the build or the run fails or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"run printed nothing (exit code {run.returncode})")
    report = json.loads(lines[-1])
    print(lines[-1], file=sys.stderr)
    measured = report["cells"][0]["metrics"]
    attempted = int(measured["checks.attempted"])
    failed = int(measured["checks.failed"])
    if attempted < 1 or run.returncode not in (0, 1) or (run.returncode == 1) != (failed > 0):
        fail(f"run ended with exit code {run.returncode} after {attempted} checks")

    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail(f"run did not report {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
