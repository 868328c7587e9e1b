"""Tensor products of bound quiver algebras and modules.

The product of two bound quiver algebras is materialized as a genuine
bound quiver algebra on the product quiver: one arrow per (factor arrow,
opposite-factor vertex), commutativity relations making the two factor
actions commute, and each factor relation tensored with every trivial
path.  The build asserts that the dimension comes out as the product of
the factor dimensions, which catches any mistake in the relation set.
"""

from typing import List, Tuple

from .errors import FieldMismatchError, QtiltError
from .exactla import Matrix, kron
from .homengine import (DEFAULT_BOUND, InfinityMarker, ext_dim, gldim, injd,
                        is_finite, pd)
from .quivercore import (Arrow, BoundQuiverAlgebra, Path, PathSum, Quiver,
                         _check_idempotents, abstract_radical, build_algebra,
                         semisimple_and_basic_flags)
from .repcore import (Representation, _top_sections, decompose,
                      endomorphism_algebra, inj, is_isomorphic, proj,
                      projective_cover, random_module, simple)


def _vname(u: str, v: str) -> str:
    return f"({u},{v})"


def _left_arrow(a: str, v: str) -> str:
    return f"{a}(x)e_{v}"


def _right_arrow(u: str, b: str) -> str:
    return f"e_{u}(x){b}"


class TensorAlgebraResult:
    """The product algebra together with the factor bookkeeping."""

    def __init__(self, algebra, left, right):
        self.algebra = algebra
        self.left = left
        self.right = right

    def vertex(self, u: str, v: str) -> str:
        return _vname(u, v)

    def idempotent(self, u: str, v: str):
        return self.algebra.idempotent(_vname(u, v))

    def vertex_pairs(self) -> List[Tuple[str, str]]:
        return [(u, v) for u in self.left.quiver.vertices
                for v in self.right.quiver.vertices]


def _lift_left_path(p: Path, v: str) -> Path:
    names = tuple(_left_arrow(a, v) for a in p.arrows)
    return Path(names, _vname(p.source, v), _vname(p.target, v))


def _lift_right_path(u: str, p: Path) -> Path:
    names = tuple(_right_arrow(u, b) for b in p.arrows)
    return Path(names, _vname(u, p.source), _vname(u, p.target))


def tensor_algebras(left: BoundQuiverAlgebra, right: BoundQuiverAlgebra
                    ) -> TensorAlgebraResult:
    """The tensor product algebra on the product quiver."""
    if left.field != right.field:
        raise FieldMismatchError("factors over different fields")
    field = left.field
    vertices = [_vname(u, v) for u in left.quiver.vertices
                for v in right.quiver.vertices]
    arrows = []
    for a in left.quiver.arrows:
        for v in right.quiver.vertices:
            arrows.append(Arrow(_left_arrow(a.name, v),
                                _vname(a.source, v), _vname(a.target, v)))
    for u in left.quiver.vertices:
        for b in right.quiver.arrows:
            arrows.append(Arrow(_right_arrow(u, b.name),
                                _vname(u, b.source), _vname(u, b.target)))
    quiver = Quiver(vertices, arrows)
    relations = []
    for r in left.relations:
        for v in right.quiver.vertices:
            relations.append(PathSum(field, [(c, _lift_left_path(p, v))
                                             for c, p in r.terms]))
    for u in left.quiver.vertices:
        for r in right.relations:
            relations.append(PathSum(field, [(c, _lift_right_path(u, p))
                                             for c, p in r.terms]))
    one = field.one()
    minus_one = field.canon(-1) if field.char == 0 else field.p - 1
    for a in left.quiver.arrows:
        for b in right.quiver.arrows:
            first = Path((_left_arrow(a.name, b.target),
                          _right_arrow(a.source, b.name)),
                         _vname(a.source, b.source), _vname(a.target, b.target))
            second = Path((_right_arrow(a.target, b.name),
                           _left_arrow(a.name, b.source)),
                          _vname(a.source, b.source), _vname(a.target, b.target))
            relations.append(PathSum(field, [(one, first), (minus_one, second)]))
    alg = build_algebra(quiver, relations, field,
                        maxdeg=left.maxdeg + right.maxdeg,
                        name=f"{left.name}(x){right.name}")
    if alg.dim != left.dim * right.dim:
        raise QtiltError(
            f"tensor algebra dimension {alg.dim} differs from "
            f"{left.dim}*{right.dim}; relation set is wrong")
    return TensorAlgebraResult(alg, left, right)


def tensor_modules(t: TensorAlgebraResult, m: Representation,
                   n: Representation, validate: bool = True) -> Representation:
    """The product-algebra module M (x) N: Kronecker-product vertex spaces,
    each factor acting on its own tensor leg."""
    if m.algebra is not t.left or n.algebra is not t.right:
        raise QtiltError("factors do not live over the factor algebras")
    field = t.algebra.field
    dims = {}
    for u in t.left.quiver.vertices:
        for v in t.right.quiver.vertices:
            dims[_vname(u, v)] = m.dims[u] * n.dims[v]
    mats = {}
    for a in t.left.quiver.arrows:
        for v in t.right.quiver.vertices:
            mats[_left_arrow(a.name, v)] = kron(
                m.mats[a.name], Matrix.identity(field, n.dims[v]))
    for u in t.left.quiver.vertices:
        for b in t.right.quiver.arrows:
            mats[_right_arrow(u, b.name)] = kron(
                Matrix.identity(field, m.dims[u]), n.mats[b.name])
    return Representation(t.algebra, dims, mats, validate=validate)


def kunneth_verify(t: TensorAlgebraResult, m: Representation,
                   n: Representation, mprime: Representation,
                   nprime: Representation, pmax: int,
                   maxlen: int = DEFAULT_BOUND
                   ) -> List[Tuple[int, int, int]]:
    """Compare dim Ext^q(M (x) M', N (x) N') over the product algebra with
    the convolution of the factor Ext dimensions, for q up to pmax, every
    resolution within maxlen steps: one row (q, product dim, convolution)
    per degree.  The product side resolves M (x) M' from scratch; the
    factor side only sees the factor algebras, so the two routes are
    independent."""
    if pmax < 0:
        raise QtiltError(f"pmax must be >= 0, got {pmax}")
    source = tensor_modules(t, m, mprime, validate=False)
    target = tensor_modules(t, n, nprime, validate=False)
    left_dims = [ext_dim(m, n, i, maxlen) for i in range(pmax + 1)]
    right_dims = [ext_dim(mprime, nprime, j, maxlen) for j in range(pmax + 1)]
    rows = []
    for q in range(pmax + 1):
        lhs = ext_dim(source, target, q, maxlen)
        rhs = sum(left_dims[i] * right_dims[q - i] for i in range(q + 1))
        rows.append((q, lhs, rhs))
    return rows


def _read_to(d: int, maxlen: int):
    """The dimension d as a search within maxlen steps reads it."""
    return d if d <= maxlen else InfinityMarker(maxlen)


def structural_suite(t: TensorAlgebraResult, seed: int = 0,
                     module_count: int = 4, maxlen: int = DEFAULT_BOUND):
    """Exact structural checks for the tensor constructions: radical
    formula, flag preservation, simples/projectives/injectives and
    idempotents, module radicals and tops, projective covers, dimension
    additivity.  Returns (name, ok, detail) triples.  Every dimension is
    read within maxlen resolution steps, so a sum of factor dimensions is
    compared as that search reads it.  The seed picks the random module
    pairs (M, N); each product M (x) N, and each module's top dimensions
    (`_top_sections`, the radical being the rest), are read once per
    pair."""
    if module_count < 0:
        raise QtiltError(f"module_count must be >= 0, got {module_count}")
    alg = t.algebra
    results = []

    rl, dl = len(t.left.radical_indices()), t.left.dim
    rr, dr = len(t.right.radical_indices()), t.right.dim
    got = len(alg.radical_indices())
    want = rl * dr + dl * rr - rl * rr
    results.append(("radical_formula", got == want, f"{got}={want}"))

    sl = semisimple_and_basic_flags(t.left)
    sr = semisimple_and_basic_flags(t.right)
    sp = semisimple_and_basic_flags(alg)
    results.append(("semisimple_preservation",
                    sp[0] == (sl[0] and sr[0]), f"{sl[0]}*{sr[0]}->{sp[0]}"))
    results.append(("basic_preservation",
                    sp[1] == (sl[1] and sr[1]), f"{sl[1]}*{sr[1]}->{sp[1]}"))

    ok = True
    for u in t.left.quiver.vertices:
        for v in t.right.quiver.vertices:
            s = tensor_modules(t, simple(t.left, u), simple(t.right, v),
                               validate=False)
            ok = ok and s.total_dim() == 1 and s.dims[t.vertex(u, v)] == 1
    results.append(("simples", ok, "S(u)(x)S(v) simple"))

    ok, detail = True, "complete orthogonal primitive"
    try:
        _check_idempotents(alg, [t.idempotent(u, v)
                                 for u, v in t.vertex_pairs()])
    except QtiltError as exc:
        ok, detail = False, str(exc)
    for u, v in t.vertex_pairs():
        sca, _ = endomorphism_algebra(proj(alg, t.vertex(u, v)))
        ok = ok and sca.dim - len(abstract_radical(sca)) == 1
    results.append(("idempotents", ok, detail))

    ok = True
    for u in t.left.quiver.vertices:
        for v in t.right.quiver.vertices:
            pp = tensor_modules(t, proj(t.left, u), proj(t.right, v),
                                validate=False)
            ok = ok and is_isomorphic(pp, proj(alg, t.vertex(u, v)))
    results.append(("projectives", ok, "P(u)(x)P(v)"))

    ok = True
    for u in t.left.quiver.vertices:
        for v in t.right.quiver.vertices:
            ii = tensor_modules(t, inj(t.left, u), inj(t.right, v),
                                validate=False)
            ok = ok and is_isomorphic(ii, inj(alg, t.vertex(u, v)))
    results.append(("injectives", ok, "I(u)(x)I(v)"))

    pairs = []
    for k in range(module_count):
        m = random_module(t.left, seed=seed + 2 * k)
        n = random_module(t.right, seed=seed + 2 * k + 1)
        pairs.append((m, n, tensor_modules(t, m, n, validate=False)))
    tops = [[{v: len(s) for v, s in _top_sections(x).items()} for x in pair]
            for pair in pairs]

    ok = True
    for (m, n, prod), (tm, tn, tp) in zip(pairs, tops):
        for u in t.left.quiver.vertices:
            for v in t.right.quiver.vertices:
                radm, radn = m.dims[u] - tm[u], n.dims[v] - tn[v]
                want = radm * n.dims[v] + m.dims[u] * radn - radm * radn
                w = t.vertex(u, v)
                ok = ok and prod.dims[w] - tp[w] == want
    results.append(("module_radical", ok, f"{len(pairs)} pairs"))

    ok = True
    for tm, tn, tp in tops:
        for u in t.left.quiver.vertices:
            for v in t.right.quiver.vertices:
                ok = ok and tp[t.vertex(u, v)] == tm[u] * tn[v]
    results.append(("module_top", ok, f"{len(pairs)} pairs"))

    ok = True
    for m, n, prod in pairs:
        cm = projective_cover(m).source
        cn = projective_cover(n).source
        ok = ok and is_isomorphic(projective_cover(prod).source,
                                  tensor_modules(t, cm, cn, validate=False))
    results.append(("projective_covers", ok, f"{len(pairs)} pairs"))

    ok = True
    detail = []
    for m, n, prod in pairs[:2]:
        pm, pn = pd(m, maxlen), pd(n, maxlen)
        im, in_ = injd(m, maxlen), injd(n, maxlen)
        if is_finite(pm) and is_finite(pn):
            ok = ok and pd(prod, maxlen) == _read_to(pm + pn, maxlen)
            detail.append(f"pd{pm}+{pn}")
        if is_finite(im) and is_finite(in_):
            ok = ok and injd(prod, maxlen) == _read_to(im + in_, maxlen)
            detail.append(f"id{im}+{in_}")
    results.append(("dimension_additivity", ok, ",".join(detail) or "skipped"))

    gl, gr = gldim(t.left, maxlen), gldim(t.right, maxlen)
    gp = gldim(alg, maxlen)
    if is_finite(gl) and is_finite(gr):
        results.append(("gldim_additivity", gp == _read_to(gl + gr, maxlen),
                        f"{gl}+{gr}={gp}"))
    else:
        results.append(("gldim_additivity", not is_finite(gp),
                        "infinite factors"))

    ok = True
    for m, n, prod in pairs[:2]:
        dm, dn, dp = decompose(m), decompose(n), decompose(prod)
        want = sum(am * bm for _, am in dm for _, bm in dn)
        ok = ok and sum(mult for _, mult in dp) == want
    results.append(("indecomposables", ok, "piece counts multiply"))

    return results
