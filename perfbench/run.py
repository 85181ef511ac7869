#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload offline_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the odq_perfbench program (Release) under .bench_build/perfbench;
later calls rebuild only what changed. The program's report goes to stdout,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics. That line is checked against BENCHMARK.json: with
--trace 0 it must carry exactly the end_to_end metrics, with --trace 1
exactly the per_layer ones, with the units declared there.

Exit codes: the program's own (0 ok, 1 an output check failed, 2 usage or
environment, 3 internal error); 4 when the build fails, the result line does
not match BENCHMARK.json, or the program times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(4)


def build(target):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / target


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(line, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"unit of {name} is {m.get('unit')}, declared {want[name]}")
    if not trace:
        for name, m in got.items():
            if m["value"] == 0:
                fail(f"end-to-end metric {name} is 0")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark helpers")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build("odq_perfbench")
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    trace_out = traces / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"odq_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
