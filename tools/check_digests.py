"""Check that the benchmark's outputs are unchanged.

    python3 tools/check_digests.py

Runs ``perfbench/selftest.py --seed 3``, which checks each workload's
counts and oracles and prints one output digest per workload, and fails
unless every digest equals the one recorded below.  A change that keeps
every answer byte-identical keeps these digests.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = {
    "probe-kron2-q": "1aeb32be37d53787",
    "probe-kron2-fp": "1aeb32be37d53787",
    "kunneth-sweep": "ea56dc1d6b593a8d",
    "tilt-present": "f23edf1ca10d7faa",
}


def main():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py"),
         "--seed", "3"], cwd=ROOT, capture_output=True, text=True,
        check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    got = {}
    for line in proc.stdout.splitlines():
        head, _, rest = line.partition(": checked ")
        if rest:
            got[head] = rest.split()[-1]
    problems = [f"{name}: digest {got.get(name)}, expected {want}"
                for name, want in EXPECTED.items() if got.get(name) != want]
    if proc.returncode != 0:
        problems.append(f"selftest exited {proc.returncode}")
    for p in problems:
        print(f"FAIL {p}")
    print("digests", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
