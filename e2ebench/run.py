#!/usr/bin/env python3
"""Scripted analyst-session benchmark: one command, every metric.

Run from the repository root:

    python3 e2ebench/run.py --workload drill-exact --seed 1 --seconds 10 \
        --trace 0

Builds the library and the e2e_session program from source into
.bench_build/, generates the workload's input trace from the seed,
runs the closed-loop session once in a measured process, and takes
setup_s as the median over fresh processes' first opens, half of them
started before the measured process and half after it.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones. Exits non-zero, printing no result, when
the build, the input generation or a process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest-seidel", "drill-exact", "serve-overview")

# Fresh processes whose first open gives setup_s (their median), run
# before and after the measured process so they sample the same
# stretch of time as it does.
SETUP_BEFORE = 2
SETUP_AFTER = 2

# Per-process limits, seconds (the run as a whole must end in 180).
BUILD_TIMEOUT = 850
STEP_TIMEOUT = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=True):
    """Run cmd to completion; its stdout when capture, else None."""
    result = subprocess.run(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        timeout=timeout,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{cmd[0]} {cmd[1]} exited {result.returncode}")
    return result.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def build(build_dir):
    """Configure once, then (re)build; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT,
            capture=False)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT,
        capture=False)
    return os.path.join(build_dir, "e2e_session")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("e2ebench: run from the repository root (CMakeLists.txt and "
            "src/ not found)")
        return 2

    work = os.path.join(root, ".bench_build")
    binary = build(os.path.join(work, "e2ebench"))
    inputs = os.path.join(work, f"inputs-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        trace = os.path.join(inputs, f"{args.workload}-{args.seed}.ostv")
        run([binary, "generate", "--workload", args.workload,
             "--seed", str(args.seed), "--out", trace], STEP_TIMEOUT)

        hashes = set()
        setup = []

        def first_opens(count):
            for _ in range(count):
                out = last_json(run([binary, "first-open", "--workload",
                                     args.workload, "--input", trace],
                                    STEP_TIMEOUT))
                setup.append(out["setup_s"])
                hashes.add(out["frame_hash"])

        if not args.trace:
            first_opens(SETUP_BEFORE)
        cmd = [binary, "run", "--workload", args.workload, "--input", trace,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                work, f"spans-{args.workload}-{args.seed}.tsv")]
        stdout = run(cmd, STEP_TIMEOUT)
        if not args.trace:
            first_opens(SETUP_AFTER)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    # The session's table (metrics with their sample counts) first.
    print("\n".join(stdout.splitlines()[:-1]), flush=True)
    result = last_json(stdout)
    hashes.add(result["frame_hash"])
    correct = bool(result["correct"])
    if len(hashes) != 1:
        log("correctness gate: first frames differ between processes")
        correct = False
    metrics = result["metrics"]
    if not args.trace:
        value = statistics.median(setup)
        metrics["setup_s"] = {"value": value, "unit": "s"}
        print(f"{'setup_s':<34} {value:14.6g} {'s':<8} "
              f"n={len(setup)} fresh processes")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"e2ebench: {error}")
        sys.exit(1)
