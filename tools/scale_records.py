"""Scale records of the resolution and tilting paths on tensor powers of
the Kronecker algebra, each record in a fresh process.

    python3 tools/scale_records.py [--smoke] [--live]

The probe records are kron^2 with tau_2 at 20 rounds and kron^3 with
tau_3 at 4 rounds (3 and 1 rounds with ``--smoke``).  Each runs
`homengine.tau_finiteness_probe` over Q and checks its trace against the
outer power of the Kronecker tau_1 trace, (4k+1, 4k+3) at round k, sink
first: tau_n of a product of n Kronecker injectives is the product of
their tau_1 translates (Herschend-Iyama), so every round's dimension
vector is that outer product.  The verify records build the n-APR tilt
T of kron^n at its sink and time `tilting.verify_tilting` on its summand
list, each with multiplicity 1, for n = 3 and 4 (n = 2 with
``--smoke``); End is built of each summand only, never of T, whose End
has dimension 720 for n = 4.  The last line of standard output is one
JSON object with, per record, its wall seconds, its process's peak RSS
(``ru_maxrss``) and a hash of its trace or the certificate's verdict.
``--live`` runs each record once more under tracemalloc and adds its
peak of live Python memory.  A trace that differs from the oracle, or a
certificate that does not pass, exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = {"kron2-tau2": (2, 20, 3), "kron3-tau3": (3, 4, 1)}
VERIFY = {"kron3-verify": 3, "kron4-verify": 4}
SMOKE_VERIFY = {"kron2-verify": 2}


def kronecker_power(n):
    from qtilt.exactla import QQ
    from qtilt.quivercore import Arrow, Quiver, build_algebra
    from qtilt.tensorcon import tensor_algebras
    kron = build_algebra(Quiver(["1", "2"], [Arrow("a0", "2", "1"),
                                             Arrow("a1", "2", "1")]),
                         [], QQ, name="kron")
    alg = kron
    for _ in range(n - 1):
        alg = tensor_algebras(alg, kron).algebra
    return alg


def expected_trace(n, rounds):
    out = []
    for k in range(1, rounds + 1):
        vec = (1,)
        for _ in range(n):
            vec = tuple(a * b for a in vec for b in (4 * k + 1, 4 * k + 3))
        out.append(vec)
    return out


def kronecker_sink(n):
    """The sink of kron^n, the vertex whose projective is simple."""
    sink = "1"
    for _ in range(n - 1):
        sink = f"({sink},1)"
    return sink


def run_record(name, rounds, live):
    """One record in this process: its JSON result line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qtilt.homengine import tau_finiteness_probe
    from qtilt.tilting import apr_check, verify_tilting
    if name in RECORDS:
        n = RECORDS[name][0]
        alg = kronecker_power(n)

        def work():
            return tau_finiteness_probe(alg, n, rounds)
    else:
        n = {**VERIFY, **SMOKE_VERIFY}[name]
        alg = kronecker_power(n)
        summands = [(u, 1) for _, u in
                    apr_check(alg, kronecker_sink(n), n).summands]

        def work():
            return verify_tilting(alg, summands, n)
    if live:
        import tracemalloc
        tracemalloc.start()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    out = {"record": name, "seconds": round(seconds, 3),
           "peak_rss_mb": round(resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    if name in RECORDS:
        out = {"record": name, "rounds": rounds, **out,
               "verdict": result.verdict,
               "trace_sha256": hashlib.sha256(
                   repr(result.trace).encode()).hexdigest()[:16],
               "trace_ok": result.trace == expected_trace(n, rounds)}
    else:
        out["passed"] = result.passed
    if live:
        out["live_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20,
                                    3)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="few rounds, for a quick check")
    parser.add_argument("--live", action="store_true",
                        help="also record the live-memory peak")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        print(json.dumps(run_record(args.record, args.rounds, args.live)))
        return 0
    results = []
    jobs = [(name, smoke if args.smoke else rounds)
            for name, (_, rounds, smoke) in RECORDS.items()]
    jobs += [(name, 0) for name in (SMOKE_VERIFY if args.smoke else VERIFY)]
    for name, rounds in jobs:
        for live in (False, True) if args.live else (False,):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--record", name,
                 "--rounds", str(rounds)] + (["--live"] if live else []),
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"scale_records: {name} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            if live:
                results[-1]["live_peak_mb"] = got["live_peak_mb"]
            else:
                results.append(got)
            print(f"{name}" + (f" rounds {rounds}" if rounds else "")
                  + f": {got['seconds']} s" + (" (traced)" if live else ""),
                  file=sys.stderr)
    print(json.dumps({"python": platform.python_version(),
                      "records": results}))
    bad = [r["record"] for r in results if not r.get("trace_ok", True)]
    if bad:
        print(f"scale_records: trace differs from the Kronecker outer "
              f"power: {bad}", file=sys.stderr)
    failed = [r["record"] for r in results if not r.get("passed", True)]
    if failed:
        print(f"scale_records: the tilting certificate fails: {failed}",
              file=sys.stderr)
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
