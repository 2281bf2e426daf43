#!/usr/bin/env python3
"""Builds the course benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 coursebench/run.py --workload device_100k --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn and exits
non-zero if any of them fails.

The library (../src) and the coursebench binary are built in Release mode under
.bench_build/coursebench; the first run configures and compiles, later runs
only relink what changed. The binary's output is passed through, and its last
line is the result object, checked here against BENCHMARK.json: --trace 0
must report exactly the end_to_end metrics, --trace 1 exactly the per_layer
ones, each with its listed unit. --trace 1 also writes the last traced
course's spans as Chrome trace JSON under .bench_build/coursebench/traces.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "coursebench")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            log("build failed:", " ".join(step))
            return False
    return True


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def expected_units(trace):
    return {m["name"]: m["unit"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns a description of what is wrong with the result line, or ''."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not result["correct"]:
        return ""  # the binary already reports the failed courses
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_units(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong unit %s" % (missing, extra, wrong)
    return ""


def run_workload(binary, workload, args):
    scratch = os.path.join(BUILD, "scratch")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    problem = check_result(lines[-1] if lines else "", args.trace)
    if problem:
        log(problem)
        return 4
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run "
                             "each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 2
    binary = os.path.join(BUILD, "coursebench")
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr).returncode:
        log("self-test of the benchmark arithmetic failed")
        return 3
    workloads = [args.workload]
    if args.workload == "all":
        workloads = [w["name"] for w in load_spec()["workloads"]]
    status = 0
    for workload in workloads:
        status = run_workload(binary, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
