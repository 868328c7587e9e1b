"""Minimal projective resolutions and the homological operators built on
them: Ext dimensions, projective/injective/global dimension, and the
higher translates tau_n / tau_n^- with their finiteness probe.

A minimal resolution is grown by iterated projective covers and cached on
the module, so deeper requests extend earlier work; it refers back to the
module weakly, so the two make no reference cycle.  It is its terms and
the image of each generator as a sparse vector, and of the rest keeps
one kernel inside the last term.  The first step covers the module
(`repcore.projective_cover`); past it each syzygy stays in its free term,
the kernel of the last differential read off the generator images, and
the next term covers its top (`repcore._submodule_top`).  The generator
images give each differential d as a matrix of algebra elements between
the generator vertices, and its dual d^* = Hom(d, algebra) as generator
images over the opposite algebra (`_dualized_elements`, read off the
opposite's table of reversed basis paths).  A map of free modules, d or
d^*, is read by columns off the products (`repcore._image_columns`); a
Hom complex into any module by the rows of each basis element's action
on it (`repcore._action_rows`), read once per call.

tau_n is the one syzygy-side translate: tau_n M = ker nu(d_n), with
nu = D Hom(-, algebra) the Nakayama functor, read off the columns of
d_n^* as a kernel over the algebra itself.  tau_n^- goes through it:
tau_n^- = D tau_n D over the opposite algebra.
Ext is its dimension (`ext_dim`), read off the ranks of the Hom-complex
differentials, cached on the resolution per target module.
"""

from typing import Dict, List, Tuple
from weakref import WeakKeyDictionary, ref

from .errors import AlgebraMismatchError, InconclusiveError, QtiltError
from .exactla import Matrix, _tidy, kernel_data
from .quivercore import BoundQuiverAlgebra, _op_table, opposite
from .repcore import (Representation, _action_rows, _cochain_offsets,
                      _free_coordinates, _image_blocks, _image_columns,
                      _submodule_top, dual, dual_free_kernel, free_offsets,
                      inj, proj_sum, projective_cover, simple, zero_rep)

DEFAULT_BOUND = 64


class InfinityMarker:
    """Result of a dimension search that exceeded its step bound."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __eq__(self, other):
        return isinstance(other, InfinityMarker)

    def __hash__(self):
        return hash("InfinityMarker")

    def __repr__(self):
        return f"infinite(>{self.bound})"


def is_finite(value) -> bool:
    return isinstance(value, int)


class MinimalResolution:
    """Chain of projective covers over a module, held as its terms and
    generator images.

    terms[i] is the i-th projective (a sum of indecomposable projectives
    with generator bookkeeping); images[i][l] is the image of its
    generator l, a sparse vector in terms[i-1] (in the module for i = 0).
    ``terminated`` means the syzygy past the last term is zero.
    ``hom_ranks`` caches the rank of the Hom-complex differential
    Hom(terms[i], n) -> Hom(terms[i+1], n) as ``hom_ranks[n][i]``.  The
    module object itself is the weak key: no other module can alias it,
    and the entry goes when n is collected.

    Growing keeps only what the next step reads: the kernel of the last
    differential as its canonical basis, or once the next term covers
    its top, its free coordinates; no syzygy is built as a module.  The first cover is
    rebuilt from images[0] and the module, which the resolution refers
    to weakly (``module``): the module caches its resolution, so the two
    make no reference cycle, and the resolution goes with the module.
    Keep the module for as long as the resolution grows; its terms and
    images stay readable without it.

    A resolution may also be assembled whole: set its terms and generator
    images and mark it terminated (the tests' tensor-product oracle,
    `tensor_resolution` in `tests/oracles.py`, builds one that way).
    """

    def __init__(self, module: Representation):
        self._module = ref(module)
        self.algebra = module.algebra
        self.terms: List[Representation] = []
        self.images: List[List[Dict[int, object]]] = []
        self._cover = None      # the last kernel's free coordinates
        self._pending = None    # the next kernel: (columns, free) per vertex
        self.terminated = module.is_zero()
        self.hom_ranks = WeakKeyDictionary()     # n -> {i: rank}

    @property
    def module(self) -> Representation:
        return self._module()

    @property
    def length(self) -> int:
        """Largest index with a nonzero term (-1 for the zero module)."""
        return len(self.terms) - 1

    def _take_kernel(self) -> None:
        """Take the kernel of the last differential, the syzygy past the
        last term, once: a zero kernel terminates the resolution.  Past
        the augmentation the rows are read at the free coordinates of the
        kernel the differential maps onto, which fix its vectors: the
        cover onto that syzygy with each row scaled, so the same kernel."""
        if self.terminated or self._pending is not None:
            return
        if self._cover is None:     # the augmentation, rebuilt
            if self.module is None:
                raise QtiltError("a resolution cannot grow once its module "
                                 "is gone; keep the module")
            blocks = _image_blocks(self.terms[0], self.module,
                                   [self.images[0]])[0]
        else:
            field, lo = self.algebra.field, self.terms[-2]
            cols = _image_columns(self.terms[-1], lo, self.images[-1])
            blocks = {}
            for v, free in self._cover.items():
                rows = Matrix.from_sparse_cols(field, cols[v],
                                               lo.dims[v]).sparse_rows
                blocks[v] = Matrix._raw(field, [rows[r] for r in free],
                                        len(cols[v]))
        kds = {v: kernel_data(b) for v, b in blocks.items()}
        self._cover = None
        self.terminated = not any(kd.free for kd in kds.values())
        if not self.terminated:
            self._pending = ({v: kd.columns for v, kd in kds.items()},
                             {v: kd.free for v, kd in kds.items()})

    def extend(self, upto: int) -> None:
        """Grow until terms[upto] exists or the resolution terminates; the
        kernel of the last differential is only taken when growth
        continues.  Past the first term, generators go to the kernel
        vectors at its top sections."""
        while not self.terminated and self.length < upto:
            if not self.terms:
                cover = projective_cover(self.module)
                self.terms.append(cover.source)
                self.images.append(cover.images)
                continue
            self._take_kernel()
            if self.terminated:
                break
            (cols, self._cover), self._pending = self._pending, None
            top = _submodule_top(self.terms[-1], cols, self._cover)
            images = [dict(sorted(cols[v][j].items()))
                      for v in self.algebra.quiver.vertices for j in top[v]]
            self.terms.append(proj_sum(self.algebra, [
                v for v in self.algebra.quiver.vertices for _ in top[v]]))
            self.images.append(images)

    def term(self, i: int) -> Representation:
        """terms[i], or the empty projective sum beyond the computed end of
        a terminated resolution."""
        if i <= self.length:
            return self.terms[i]
        if not self.terminated:
            raise QtiltError(f"resolution term {i} read before it was computed")
        return proj_sum(self.algebra, [])

    def generators(self, i: int) -> Tuple[str, ...]:
        """Generator vertices of terms[i]; none below degree 0 or past the
        end of a terminated resolution, where no module is built."""
        if i < 0 or i > self.length and self.terminated:
            return ()
        return self.term(i).proj_gens or ()

    def presentation_elements(self, i: int):
        """The differential terms[i] -> terms[i-1] as a sparse matrix of
        algebra elements: a dict whose entry at (k, l) is the nonzero
        element of e_{w_l} A e_{v_k} for generator k of terms[i-1] at v_k
        and generator l of terms[i] at w_l, a sparse dict basis index ->
        entry.  It is read off the generator images, in ascending row
        order."""
        gens_hi = self.generators(i)
        X = {}
        if not gens_hi or not self.generators(i - 1) or i > self.length:
            return X
        coords = {w: _free_coordinates(self.terms[i - 1], w)
                  for w in dict.fromkeys(gens_hi)}
        for l, (w, vec) in enumerate(zip(gens_hi, self.images[i])):
            for row_i, c in vec.items():
                k, x_idx = coords[w][row_i]
                X.setdefault((k, l), {})[x_idx] = c
        return X


def min_proj_resolution(m: Representation, maxlen: int = DEFAULT_BOUND
                        ) -> MinimalResolution:
    """Minimal projective resolution, cached on the module and extended on
    demand; stops early at a zero syzygy and flags truncation otherwise."""
    if maxlen < 0:
        raise QtiltError(f"resolution bound must be >= 0, got {maxlen}")
    res = m._cache.get("minres")
    if res is None:
        res = MinimalResolution(m)
        m._cache["minres"] = res
    res.extend(maxlen)
    return res


def bounded_resolution(m: Representation, bound: int) -> MinimalResolution:
    """m's resolution grown within the step bound.  One that reaches the
    bound takes the kernel past its last term, so a resolution that ends
    exactly there reads as terminated."""
    res = min_proj_resolution(m, bound)
    if res.length >= bound:
        res._take_kernel()
    return res


# ---------------------------------------------------------------------------
# the dualized differentials, maps of projective sums over the opposite algebra


def _dualized_elements(res: MinimalResolution, i: int):
    """(source, target, generator images) of the dualized differential
    d_i^* = Hom(d_i, algebra), a map of projective sums over the opposite
    algebra, in the form `repcore._image_columns` reads.  Generator k of
    the source (at v_k) goes to sum_l op(X[k, l]) gen_l, with X the
    presentation elements of d_i and op the anti-isomorphism: images[k]
    is that vector of the target at v_k, with op(X[k, l]) at generator
    l's block, each basis element of X[k, l] added in straight off
    `_op_table`."""
    alg = res.algebra
    opp = opposite(alg)
    gens = res.generators(i - 1)
    src = proj_sum(opp, gens)
    tgt = proj_sum(opp, res.generators(i))
    offsets = {v: free_offsets(tgt, v) for v in dict.fromkeys(gens)}
    pos, table = opp.block_pos, _op_table(alg)
    images = [{} for _ in gens]
    for (k, l), x in res.presentation_elements(i).items():
        off, img = offsets[gens[k]][l], images[k]
        for idx, c in x.items():
            for e, d in table[idx]:
                img[off + pos[e]] = img.get(off + pos[e], 0) + c * d
    return src, tgt, [_tidy(img, alg.field.char) for img in images]


# ---------------------------------------------------------------------------
# Ext dimensions


def _hom_complex_differential(res: MinimalResolution, n: Representation,
                              i: int) -> Matrix:
    """Matrix of Hom(terms[i], n) -> Hom(terms[i+1], n), in generator
    coordinates: Hom out of a projective sum is the direct sum of the
    n-spaces at the generator vertices.  The block at (l, k) is the action
    on n of the element X[k, l] of d_{i+1}: each basis element's action
    rows are read once per call, added into every block whose element
    holds it, and dropped."""
    field = res.algebra.field
    row_off = _cochain_offsets(n, res.generators(i + 1))
    col_off = _cochain_offsets(n, res.generators(i))
    if row_off[-1] == 0 or col_off[-1] == 0:
        return Matrix.zeros(field, row_off[-1], col_off[-1])
    uses = {}       # basis element -> (block row, block column, coefficient)
    for (k, l), x in res.presentation_elements(i + 1).items():
        for x_idx, coeff in x.items():
            uses.setdefault(x_idx, []).append((row_off[l], col_off[k], coeff))
    rows = [{} for _ in range(row_off[-1])]
    for x_idx, blocks in uses.items():
        got = _action_rows(n, x_idx)
        for top, left, coeff in blocks:
            for r, row in enumerate(got, top):
                acc = rows[r]
                for c, y in row.items():
                    acc[left + c] = acc.get(left + c, 0) + coeff * y
    for r, acc in enumerate(rows):
        rows[r] = _tidy(acc, field.char)
    return Matrix._raw(field, rows, col_off[-1])


def _require_depth(m: Representation, depth: int, maxlen: int
                   ) -> MinimalResolution:
    """m's resolution, grown to depth >= 1 within the bound."""
    res = (min_proj_resolution(m, depth) if depth <= maxlen
           else bounded_resolution(m, maxlen))
    if not res.terminated and res.length < depth:
        raise InconclusiveError(
            f"resolution truncated at length {res.length} before degree "
            f"{depth}; raise the bound")
    return res


def _hom_rank(res: MinimalResolution, n: Representation, i: int) -> int:
    """Rank of Hom(terms[i], n) -> Hom(terms[i+1], n), cached on res."""
    ranks = res.hom_ranks.setdefault(n, {})
    got = ranks.get(i)
    if got is None:
        got = ranks[i] = _hom_complex_differential(res, n, i).rank()
    return got


def ext_dim(m: Representation, n: Representation, p: int,
            maxlen: int = DEFAULT_BOUND) -> int:
    """dim Ext^p(m, n), the degree-p cohomology of Hom(P., n):
    cols(delta_p) - rank(delta_p) - rank(delta_{p-1})."""
    if p < 0:
        raise QtiltError("negative Ext degree")
    if m.algebra is not n.algebra:
        raise AlgebraMismatchError("Ext between modules over different algebras")
    if m.is_zero() or n.is_zero():
        return 0
    res = _require_depth(m, p + 1, maxlen)
    if p > res.length and res.terminated:
        return 0
    dim = _cochain_offsets(n, res.generators(p))[-1] - _hom_rank(res, n, p)
    if p > 0:
        dim -= _hom_rank(res, n, p - 1)
    return dim


# ---------------------------------------------------------------------------
# homological dimensions


def pd(m: Representation, bound: int = DEFAULT_BOUND):
    """Projective dimension, or an infinity marker past the step bound."""
    if m.is_zero():
        return 0
    res = bounded_resolution(m, bound)
    return res.length if res.terminated else InfinityMarker(bound)


def injd(m: Representation, bound: int = DEFAULT_BOUND):
    """Injective dimension: the projective dimension of the dual over the
    opposite algebra."""
    if m.is_zero():
        return 0
    return pd(dual(m), bound)


def gldim(alg: BoundQuiverAlgebra, bound: int = DEFAULT_BOUND):
    """Global dimension: the maximum projective dimension of the vertex
    simples; infinity markers propagate."""
    got = alg._cache.get(("gldim", bound))
    if got is not None:
        return got
    best = 0
    out = None
    for v in alg.quiver.vertices:
        d = pd(simple(alg, v), bound)
        if not is_finite(d):
            out = d
            break
        best = max(best, d)
    if out is None:
        out = best
    alg._cache[("gldim", bound)] = out
    return out


# ---------------------------------------------------------------------------
# higher translates


def tau_n(m: Representation, n: int, maxlen: int = DEFAULT_BOUND
          ) -> Representation:
    """tau_n = D Tr of the (n-1)-st syzygy, computed off the cached minimal
    resolution as the kernel of the Nakayama functor nu = D Hom(-, algebra)
    applied to the differential d_n : terms[n] -> terms[n-1].  D is exact
    and contravariant, so D coker(d_n^*) = ker(D d_n^*) = ker nu(d_n): the
    block of nu(d_n) at a vertex is the transpose of the dualized block,
    whose columns are its rows, and no cokernel over the opposite algebra
    is built and dualized back.  Zero when the projective dimension is
    below n."""
    if n < 1:
        raise QtiltError("tau_n needs n >= 1")
    alg = m.algebra
    if m.is_zero():
        return zero_rep(alg)
    res = _require_depth(m, n, maxlen)
    if res.terminated and res.length < n:
        return zero_rep(alg)
    src, tgt, images = _dualized_elements(res, n)
    return dual_free_kernel(tgt, _image_columns(src, tgt, images))


def tau_n_minus(m: Representation, n: int, maxlen: int = DEFAULT_BOUND
                ) -> Representation:
    """tau_n^- = D tau_n D, tau_n taken over the opposite algebra on the
    cached dual DM and its cached resolution.  A resolution of DM that this
    call built is dropped once the translate is read; one that was there
    before stays."""
    if n < 1:
        raise QtiltError("tau_n_minus needs n >= 1")
    alg = m.algebra
    if m.is_zero():
        return zero_rep(alg)
    dm = dual(m)
    built = "minres" not in dm._cache
    out = dual(tau_n(dm, n, maxlen))
    if built:
        dm._cache.pop("minres", None)
    if out.algebra is not alg:
        raise QtiltError("the opposite of the opposite algebra is not the "
                         "algebra")
    return out


class ProbeResult:
    __slots__ = ("verdict", "iterations", "trace")

    def __init__(self, verdict, iterations, trace):
        self.verdict = verdict          # "finite" or "undetermined"
        self.iterations = iterations    # witness l, or max_iter
        self.trace = trace              # dim vector of each iterate

    def __repr__(self):
        return f"ProbeResult({self.verdict}, l={self.iterations})"


def tau_finiteness_probe(alg: BoundQuiverAlgebra, n: int,
                         max_iter: int = 10, maxlen: int = DEFAULT_BOUND
                         ) -> ProbeResult:
    """Iterate tau_n on the injective cogenerator until an iterate
    vanishes (verdict "finite" with the witness exponent) or max_iter is
    reached ("undetermined").  Requires gl.dim <= n, read with every
    resolution within maxlen steps: a global dimension past a bound below
    n is undetermined (InconclusiveError).  Iteration runs
    summand-by-summand, which is equivalent since tau_n is additive.  Each
    piece's cached resolution is dropped once its translate is taken."""
    if n < 1:
        raise QtiltError(f"probe needs n >= 1, got {n}")
    if max_iter < 1:
        raise QtiltError(f"probe needs max_iter >= 1, got {max_iter}")
    g = gldim(alg, maxlen)
    if not is_finite(g) and maxlen < n:
        raise InconclusiveError(
            f"global dimension exceeds the resolution bound {maxlen} < {n}; "
            "raise the bound")
    if not is_finite(g) or g > n:
        raise QtiltError(
            f"probe needs global dimension <= {n}, found {g}")
    pieces = [inj(alg, v) for v in alg.quiver.vertices]
    trace = []
    for l in range(1, max_iter + 1):
        new_pieces = []
        for piece in pieces:
            t = tau_n(piece, n, maxlen)
            piece._cache.pop("minres", None)
            if not t.is_zero():
                new_pieces.append(t)
        vec = [0] * len(alg.quiver.vertices)
        for piece in new_pieces:
            for i, v in enumerate(alg.quiver.vertices):
                vec[i] += piece.dims[v]
        trace.append(tuple(vec))
        pieces = new_pieces
        if not pieces:
            return ProbeResult("finite", l, trace)
    return ProbeResult("undetermined", max_iter, trace)
