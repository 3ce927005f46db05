#!/usr/bin/env python3
"""Builds spawnbench from the sources in this checkout and runs one workload.

    python3 spawnbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 spawnbench/run.py --self-test

Run from the root of the checkout. The build goes to .bench_build/ there;
build output goes to stderr so that the last line of stdout is the
benchmark's JSON result. When the sources cannot be built, or the run fails,
the script exits non-zero without printing a result.

--self-test runs every workload briefly, traced and untraced, and checks the
output against BENCHMARK.json: every metric present with its unit, no failed
op, every handle on the primary route, and the traced stages summing to the
end-to-end exit latency within 10%.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "spawnbench")
BINARY = os.path.join(BUILD_DIR, "spawnbench")
RUN_TIMEOUT_S = 170
SELF_TEST_SECONDS = 2
STAGE_SUM_RANGE = (0.9, 1.1)
# Every workload the binary runs. local-bigparent is not in BENCHMARK.json
# (see README.md) but is still checked here.
WORKLOADS = ("zygote-true", "fleet-sleep", "local-bigparent")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "spawnbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def git_commit():
    # Only ask git when this checkout is itself a repository, so that git
    # never walks up into a directory above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_once(workload, seed, seconds, trace, capture):
    """Runs the binary once. Returns (exit code, stdout text or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git-commit", git_commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return 1, None
    if not capture and done.returncode == 0:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, done.stdout


def check_result(text, expected, trace):
    """Problems found in one run's output (an empty list when it passes)."""
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed_ratio {result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
        elif not trace and m["value"] <= 0:
            problems.append(f"{name}: end-to-end value {m['value']} is not positive")
    if trace:
        share = metrics.get("route.primary_share", {}).get("value")
        if share != 1.0:
            problems.append(f"route.primary_share {share}")
        ratio = metrics.get("trace.stage_sum_ratio", {}).get("value", 0)
        if not STAGE_SUM_RANGE[0] <= ratio <= STAGE_SUM_RANGE[1]:
            problems.append(f"trace.stage_sum_ratio {ratio} outside {STAGE_SUM_RANGE}")
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            code, text = run_once(w, 1, SELF_TEST_SECONDS, trace, capture=True)
            problems = [f"exit code {code}"] if code != 0 else check_result(
                text, groups[trace], trace == 1)
            verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {w} trace={trace}: {verdict}", flush=True)
            failures += bool(problems)
    print(f"self-test: {'passed' if failures == 0 else f'{failures} run(s) failed'}")
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not build():
        log("cannot build the benchmark from this checkout")
        return 1
    if a.self_test:
        return self_test()
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace, capture=False)
    return 0 if code == 0 else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
