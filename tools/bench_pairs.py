"""Alternating parent/change runs of the benchmark, summarised in one JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 41,42,43,44,45 \\
        -o BENCH_7.json

PARENT and CHANGE are two checkouts of the repository, for example made
with ``git worktree add`` or ``git clone`` at the two commits.  For each
workload listed in the change's ``BENCHMARK.json`` and each seed, the
script runs ``perfbench/run.py --trace 0`` for that file's
``run_seconds`` once in each checkout, the parent first on even-numbered
pairs and the change first on odd-numbered ones, so a drift in machine
speed falls on both sides alike.

The output holds one record per checkout and workload: commit, workload,
seeds, the median and quartiles of each metric over the seeds, and the
failed and attempted operation counts.  ``pairs`` adds, per workload and
metric, in how many pairs the change was better and the ratio of the
medians (change over parent).  A run that exits non-zero stops the script.
"""

import argparse
import json
import os
import platform
import subprocess
import sys


def percentile(values, q):
    """Linear-interpolated percentile, as perfbench/run.py computes it."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def commit_of(checkout):
    """The checkout's commit, marked -dirty when it has local changes."""
    proc = subprocess.run(
        ["git", "-C", checkout, "describe", "--always", "--dirty",
         "--abbrev=12"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(role, commit, workload, seeds, results):
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": first["unit"],
                         "median": percentile(values, 50),
                         "q1": percentile(values, 25),
                         "q3": percentile(values, 75)}
    return {"role": role, "commit": commit, "workload": workload,
            "seeds": seeds, "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair each")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent, "change": args.change}
    commits = {role: commit_of(path) for role, path in sides.items()}

    runs, pairs = [], {}
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for role in order:
                results[role].append(
                    run_once(sides[role], workload, seed, seconds))
                print(f"{workload} seed {seed} {role} wall_s "
                      f"{results[role][-1]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
        for role in sides:
            runs.append(summarise(role, commits[role], workload, seeds,
                                  results[role]))
        parent, change = runs[-2]["metrics"], runs[-1]["metrics"]
        pairs[workload] = {}
        for name, direction in better.items():
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c["metrics"][name]["value"]
                               - p["metrics"][name]["value"]) < 0
                       for p, c in zip(results["parent"], results["change"]))
            pairs[workload][name] = {
                "better": direction, "change_better": wins, "of": len(seeds),
                "median_ratio": (change[name]["median"]
                                 / parent[name]["median"])}

    out = {"command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
           "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                       "python": platform.python_version()},
           "runs": runs, "pairs": pairs}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
