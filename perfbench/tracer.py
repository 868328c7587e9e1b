"""Outside-in tracer for the qtilt package.

The tracer changes no file of the program.  ``install`` replaces every
public function of each ``qtilt`` layer module by a timing wrapper, under
every name any ``qtilt`` module bound it to (``from .repcore import
kernel_rep`` leaves a second reference in ``homengine``, and both are
replaced).  ``Matrix.__mul__`` and ``Matrix.rank`` are wrapped at class
level, and ``BoundQuiverAlgebra.normal_form`` gets a counter without a
span, because it runs millions of times and its time belongs to its
callers.  ``uninstall`` puts every original back.

Spans (name, start, end, parent) are kept in flat arrays and written out
by ``write_spans`` at the end of the run.  Self time is a span's duration
minus the time its child spans cover; the wrapper's own bookkeeping after
a span ends is also subtracted from the parent, so the counters below
cost no layer any time.
"""

import inspect
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "exactla", "quivercore", "repcore", "homengine", "tensorcon",
          "tilting")

# rref inputs at or above this many cells take the program's block-update
# elimination path (exactla._NUMPY_CELLS at the time the benchmark was set up).
LARGE_CELLS = 4096


def _nnz(m):
    return m.nrows * m.ncols - sum(row.count(0) for row in m.rows)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names = []                 # span name by id
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []                # open span indices
        self._child = []                # child time covered, per open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.tau_samples = []           # (input total dimension, seconds)
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _id(self, name):
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, fn, name, observe=None):
        nid = self._id(name)
        clock = self._clock
        stack, child = self._stack, self._child
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                s_end[idx] = t1
                stack.pop()
                self_s[name] += (t1 - t0) - child.pop()
                calls[name] += 1
                if observe is not None:
                    observe(args, t1 - t0)
                if child:
                    child[-1] += clock() - t0

        return traced

    # -- observers: counts measured where the work happens -------------------

    def _observe_rref(self, args, _dt):
        m = args[0]
        cells = m.nrows * m.ncols
        c = self.counters
        c["exactla.rref.cells"] += cells
        c["exactla.rref.nnz"] += _nnz(m)
        if cells >= LARGE_CELLS:
            c["exactla.rref.calls_large"] += 1

    def _observe_mul(self, args, _dt):
        a, b = args
        if not isinstance(b, type(a)):
            return
        c = self.counters
        c["exactla.mul.cells"] += a.nrows * a.ncols + b.nrows * b.ncols
        c["exactla.mul.nnz"] += _nnz(a) + _nnz(b)

    def _observe_tau(self, args, dt):
        self.tau_samples.append((args[0].total_dim(), dt))

    def _wrap_minres(self, fn):
        traced = self._wrap(fn, "homengine.min_proj_resolution")
        counters = self.counters

        def minres(m, *args, **kwargs):
            # A module that already carries a resolution is a cache hit, so
            # hits = calls - distinct modules resolved.
            if m._cache.get("minres") is not None:
                counters["homengine.minres.hits"] += 1
            return traced(m, *args, **kwargs)

        return minres

    # -- install / uninstall -------------------------------------------------

    def install(self, package):
        """Wrap the public functions of ``package``'s layer modules."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        observers = {"exactla.rref": self._observe_rref,
                     "homengine.tau_n": self._observe_tau}
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "homengine.min_proj_resolution":
                    wrappers[obj] = self._wrap_minres(obj)
                else:
                    wrappers[obj] = self._wrap(obj, name, observers.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

        matrix = package.exactla.Matrix
        self._patch_method(matrix, "__mul__",
                           self._wrap(matrix.__mul__, "exactla.mul",
                                      self._observe_mul))
        self._patch_method(matrix, "rank",
                           self._wrap(matrix.rank, "exactla.rank"))
        algebra = package.quivercore.BoundQuiverAlgebra
        normal_form = algebra.normal_form
        calls = self.calls

        def counted_normal_form(alg, p):
            calls["quivercore.normal_form"] += 1
            return normal_form(alg, p)

        self._patch_method(algebra, "normal_form", counted_normal_form)

    def _patch_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def size_exponent(self):
        """Least-squares slope of log(tau_n seconds) on log(input total
        dimension); 0 when fewer than two distinct dimensions were seen."""
        pts = [(math.log(d), math.log(t)) for d, t in self.tau_samples
               if d > 0 and t > 0]
        if len({x for x, _ in pts}) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx

    def span_count(self):
        return len(self.span_start)

    def write_spans(self, path):
        """Tab-separated spans: index, name, start, end, parent index
        (-1 for a root span); times in seconds on the tracer's clock."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(self.span_name,
                                                 self.span_start,
                                                 self.span_end,
                                                 self.span_parent)):
                fh.write(f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")
