#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py [--seconds 2]

Runs every workload in BENCHMARK.json once untraced and once traced for
a short time, and checks that each run exits 0, passes its output
checks, reports no failed operation, and prints exactly the metrics
BENCHMARK.json names, with every end-to-end metric above zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}"
    return json.loads(lines[-1]), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, error = run(spec, workload, args.seconds, trace)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if result is None:
                problems.append(f"{where}: {error}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: unexpected keys {sorted(result)}")
                continue
            if not result["correct"]:
                problems.append(f"{where}: output checks failed")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metric names/units differ from "
                                f"BENCHMARK.json {group}")
            if trace == 0:
                for name, metric in result["metrics"].items():
                    if not metric["value"] > 0:
                        problems.append(f"{where}: {name} is not above zero")
            if len(problems) == before:
                print(f"ok   {where}: {result['attempted']} ops", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
