"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all by default) it makes two traced runs with the same
seed and requires identical per-layer counts (every metric with unit
``count`` or ``fraction``: calls, large calls, cells, nonzero fractions
and cache-hit fractions) and identical output digests.  It also makes one
short untraced run, and checks that both kinds of run print exactly the
metrics ``BENCHMARK.json`` lists, all oracles passing.  Runs are
sequential child processes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "fraction")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    dig = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), dig


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in args.workloads:
        first, dig1 = run(workload, args.seed, 1)
        second, dig2 = run(workload, args.seed, 1)
        plain, dig0 = run(workload, args.seed, 0)
        for trace, result in ((1, first), (1, second), (0, plain)):
            if sorted(result["metrics"]) != sorted(want[trace]):
                problems.append(f"{workload} trace={trace}: metric names "
                                f"differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed")
        if len({dig0, dig1, dig2}) != 1:
            problems.append(f"{workload}: output digests {dig0} {dig1} {dig2}")
        exact = [name for name, m in first["metrics"].items()
                 if m["unit"] in EXACT_UNITS]
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} then {b}")
        print(f"{workload}: checked {len(exact)} counts, digest {dig1}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
