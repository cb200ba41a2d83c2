#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload once untraced and once
traced at a tiny configuration, and asserts that each run passes its
correctness gates and emits every metric BENCHMARK.json names for its mode,
with the right unit and at least one sample. Then runs batch with a wrong
expected md5 and asserts that the gate fails the run: non-zero exit,
"correct": false and a failed operation. Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_out", "results")

# Tiny configurations. batch at 0.3/t24 16 still has a golden md5 at the
# default seed, so its hash gate is live here too.
TINY = {
    "batch": ["--scale", "0.3", "--t24", "16"],
    "live": ["--scale", "0.1", "--t24", "4", "--epochs", "3"],
    "serve": ["--scale", "0.1", "--t24", "4", "--epochs", "3"],
}
COMMON = ["--seed", "0", "--seconds", "2", "--lo", "2000", "--hi", "6000"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--trace",
           str(trace)] + COMMON + TINY[workload] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    final = json.loads(lines[-1]) if lines else None
    return done.returncode, final


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in TINY:
            code, final = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or final is None or not final["correct"] or final["failed"] != 0:
                problems.append("%s: exit %d, result %s" % (label, code, final))
                continue
            with open(os.path.join(RESULTS, "%s-0-%d.json" % (workload, trace))) as f:
                detail = json.load(f)["result"]["metrics"]
            for metric in spec[key]:
                name = metric["name"]
                got = final["metrics"].get(name)
                samples = detail.get(name, {}).get("samples", 0)
                if got is None or got["unit"] != metric["unit"] or samples < 1:
                    problems.append("%s: metric %s got %s with %d samples" %
                                    (label, name, got, samples))
            print("ok  %-16s %3d metrics, %d operations" %
                  (label, len(final["metrics"]), final["attempted"]))

    code, final = run("batch", 0, ["--expect-md5", "00000000"])
    if code == 0 or final is None or final["correct"] or final["failed"] < 1:
        problems.append("wrong md5 did not fail the run: exit %d, result %s" % (code, final))
    else:
        print("ok  wrong expected md5 fails the gate (exit %d, failed %d)" %
              (code, final["failed"]))

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
