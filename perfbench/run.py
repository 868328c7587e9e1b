"""qtilt benchmark: one workload in one process, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the run sets up ``SETUP_REPS``
times, then repeats passes over the workload's calls until ``--seconds``
have gone by, and prints the end-to-end metrics, timed by
``speed.ScaledTimer`` (wall time scaled to a reference machine speed; the
raw times are printed too).  With ``--trace 1`` it runs one untraced pass
and then one traced set-up and pass, always the same work, so the
per-layer counts repeat exactly; it prints the per-layer metrics and
writes the spans to ``.perfbench/`` in the checkout.  Span and self times
are raw seconds less the timer's sampling; the tracing overhead compares
the two passes' scaled times.  The last line of standard output is the
JSON result.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback

from speed import ScaledTimer
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3
# Functions whose self time and whose call counts the traced run reports.
SELF_TIMED = (
    "exactla.rref", "exactla.mul", "exactla.rank", "exactla.kernel_data",
    "exactla.cokernel_data", "exactla.column_space_basis",
    "homengine.tau_n", "homengine.ext", "homengine.map_from_elements",
    "quivercore.build_algebra",
    "repcore.projective_cover", "repcore.kernel_rep", "repcore.cokernel_rep",
    "repcore.hom_space", "repcore.proj_sum", "repcore.proj_map_from_images",
    "tensorcon.tensor_modules", "tilting.present_algebra",
    "tilting.endo_algebra", "cli.build_parser")
COUNTED = ("exactla.rref", "exactla.mul", "exactla.rank", "homengine.tau_n",
           "quivercore.opposite", "quivercore.normal_form")
EXCERPTS = 5                  # failure messages shown per run


def percentile(values, q):
    """Linear-interpolated percentile of ``values`` for q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Stats:
    """Latencies by call label, per-pass wall times and outcome counts."""

    def __init__(self):
        self.latencies = {}
        self.walls = []
        self.raw_walls = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.messages = []

    def record(self, label, seconds):
        self.latencies.setdefault(label, []).append(seconds)

    def typical_latencies(self):
        """Each distinct call's median latency over the run's passes."""
        return [percentile(v, 50) for v in self.latencies.values()]

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < EXCERPTS:
            self.messages.append(message)


def run_pass(build_calls, stats, timer, mismatch):
    start = timer.mark()
    calls = build_calls()
    for call in calls:
        stats.attempted += 1
        mark = timer.mark()
        try:
            result = call.run()
        except Exception:               # a crash is a failed call, not a stop
            stats.record(call.label, timer.elapsed(mark)[1])
            stats.fail(f"{call.label}: {traceback.format_exc(limit=3)}")
            continue
        stats.record(call.label, timer.elapsed(mark)[1])
        try:
            text = call.check(result)
        except mismatch as exc:
            stats.fail(str(exc))
            continue
        digest = _digest(text)
        if stats.digests.setdefault(call.label, digest) != digest:
            stats.fail(f"{call.label}: output changed between passes")
    raw, wall = timer.elapsed(start)
    stats.raw_walls.append(raw)
    stats.walls.append(wall)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(stats):
    return _digest("\n".join(f"{k} {v}" for k, v in
                             sorted(stats.digests.items())))


def end_to_end(args, prepare, import_s, workdir, mismatch, timer):
    prep = []
    for _ in range(SETUP_REPS):
        mark = timer.mark()
        build_calls = prepare(args.seed, workdir)
        prep.append(timer.elapsed(mark)[1])
    stats = Stats()
    start = timer.mark()
    while True:
        run_pass(build_calls, stats, timer, mismatch)
        if timer.elapsed(start)[0] >= args.seconds:
            break
    typical = stats.typical_latencies()
    n = len(typical)
    beyond90 = n - int(0.9 * n)
    info = [
        f"samples setup_reps={SETUP_REPS} passes={len(stats.walls)} "
        f"calls={stats.attempted} distinct_calls={n}",
        "pass_walls_s raw=" + ",".join(f"{x:.4f}" for x in stats.raw_walls)
        + " scaled=" + ",".join(f"{x:.4f}" for x in stats.walls),
        f"reference_loop_median_s {timer.reference_median_s():.6f}",
        f"check_p90_ms resolved={'yes' if beyond90 >= 10 else 'no'} "
        f"({beyond90} distinct calls beyond it)",
        f"setup import_s={import_s:.4f} prepare_s="
        + ",".join(f"{x:.4f}" for x in prep),
    ]
    metrics = {
        "setup_s": (import_s + percentile(prep, 50), "s"),
        "wall_s": (percentile(stats.walls, 50), "s"),
        "check_p50_ms": (1000 * percentile(typical, 50), "ms"),
        "check_p90_ms": (1000 * percentile(typical, 90), "ms"),
        "slowest_call_s": (max(typical), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return stats, metrics, info


def per_layer(args, prepare, package, workdir, mismatch, timer):
    plain = Stats()
    run_pass(prepare(args.seed, workdir), plain, timer, mismatch)
    traced = Stats()
    tracer = Tracer(timer.clock)
    tracer.install(package)
    try:
        run_pass(prepare(args.seed, workdir), traced, timer, mismatch)
    finally:
        tracer.uninstall()
    if traced.digests != plain.digests:
        traced.fail("traced outputs differ from untraced outputs")
    stats = Stats()
    for s in (plain, traced):
        stats.attempted += s.attempted
        stats.failed += s.failed
        stats.messages += s.messages
        stats.digests.update(s.digests)

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir,
                              f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write_spans(spans_path)

    calls, self_s, ctr = tracer.calls, tracer.self_s, tracer.counters

    def frac(num, den):
        return ctr[num] / den if den else 0.0

    metrics = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMED}
    metrics.update({f"{name}.calls": (calls[name], "count")
                    for name in COUNTED})
    metrics.update({
        "exactla.rref.calls_large": (int(ctr["exactla.rref.calls_large"]),
                                     "count"),
        "exactla.rref.cells": (int(ctr["exactla.rref.cells"]), "count"),
        "exactla.rref.nnz_frac": (frac("exactla.rref.nnz",
                                       ctr["exactla.rref.cells"]), "fraction"),
        "exactla.mul.nnz_frac": (frac("exactla.mul.nnz",
                                      ctr["exactla.mul.cells"]), "fraction"),
        "homengine.tau_n.size_exponent": (tracer.size_exponent(), "exponent"),
        "homengine.minres.hit_frac": (
            frac("homengine.minres.hits",
                 calls["homengine.min_proj_resolution"]), "fraction"),
        "trace.overhead_s": (traced.walls[0] - plain.walls[0], "s"),
        "trace.spans": (tracer.span_count(), "count"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    info = [
        f"samples passes=1+1 calls={plain.attempted}+{traced.attempted}",
        f"trace scaled untraced_wall_s={plain.walls[0]:.4f} "
        f"traced_wall_s={traced.walls[0]:.4f}",
        f"spans {os.path.relpath(spans_path, ROOT)}",
    ]
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:15]
    info += [f"self {name} {sec:.4f} s calls={calls[name]}"
             for name, sec in top]
    return stats, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qtilt", "__init__.py")):
        print(f"perfbench: no qtilt source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    timer = ScaledTimer()
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    try:
        mark = timer.mark()
        import qtilt
        import_s = timer.elapsed(mark)[1]
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload}; choose from "
                         + ", ".join(workloads.WORKLOADS))
        os.makedirs(workdir)
        prepare = workloads.WORKLOADS[args.workload]
        try:
            if args.trace:
                stats, metrics, info = per_layer(
                    args, prepare, qtilt, workdir, workloads.Mismatch, timer)
            else:
                stats, metrics, info = end_to_end(
                    args, prepare, import_s, workdir, workloads.Mismatch,
                    timer)
        except workloads.Mismatch as exc:
            print(f"perfbench: set-up check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        timer.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_frac {stats.failed / max(stats.attempted, 1):.6g} "
          f"({stats.failed}/{stats.attempted})")
    print(f"digest {run_digest(stats)}")
    for message in stats.messages:
        print(f"failure {message}", file=sys.stderr)
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
