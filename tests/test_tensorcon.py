"""Tensor products of algebras, modules, maps; Kunneth comparisons."""

from collections import Counter

import pytest

from qtilt.errors import InconclusiveError
from qtilt.exactla import Matrix, QQ
from qtilt.homengine import ext_dim, gldim, injd, min_proj_resolution, pd, tau_n, tau_n_minus
from qtilt.quivercore import semisimple_and_basic_flags
from qtilt.repcore import (ModuleMap, _free_coordinates, decompose, dual,
                           free_offsets, hom_space, inj, is_isomorphic, proj,
                           projective_cover, random_module, simple)
from qtilt.tensorcon import kunneth_verify, tensor_algebras, tensor_modules

from conftest import (is_surjective, make_semisimple,
                      radical_dims, resolution_maps, syzygies, top_dims)
from oracles import (injective_cogenerator, kernel_rep, proj_map_from_images,
                     tensor_maps, tensor_resolution)


# --- the product algebra -------------------------------------------------------

def test_kron_square_statistics(kron2):
    alg = kron2.algebra
    assert len(alg.quiver.vertices) == 4
    assert len(alg.quiver.arrows) == 8
    assert len(alg.relations) == 4
    assert alg.dim == 16
    assert alg.nilpotency == 3
    assert gldim(alg) == 2


def test_a2_square_statistics(a2xa2):
    alg = a2xa2.algebra
    assert len(alg.quiver.vertices) == 4
    assert len(alg.quiver.arrows) == 4
    assert len(alg.relations) == 1
    assert alg.dim == 9
    assert gldim(alg) == 2


def test_tensor_with_one_vertex_algebra(kron):
    unit = make_semisimple(1, name="unitK")
    t = tensor_algebras(kron, unit)
    assert t.algebra.dim == kron.dim
    assert len(t.algebra.quiver.arrows) == len(kron.quiver.arrows)
    assert len(t.algebra.relations) == len(kron.relations)


def test_radical_formula(kron2, a2xa2, kronxa2):
    for t in (kron2, a2xa2, kronxa2):
        rl = len(t.left.radical_indices())
        rr = len(t.right.radical_indices())
        dl, dr = t.left.dim, t.right.dim
        assert len(t.algebra.radical_indices()) == rl * dr + dl * rr - rl * rr


def test_idempotents_verdict_checks_orthogonality(monkeypatch, a2xa2):
    """A complete set of idempotents that is not orthogonal turns the
    structural suite's ``idempotents`` verdict False, and its detail names
    the failed condition.  Over Q idempotents that sum to the unit are
    orthogonal (trace equals rank), so such a set has a member that is not
    idempotent: here e_(1,1) + a and e_(2,2) - a, a the arrow from (2,1)
    to (1,1), with e_(1,2) and e_(2,1) unchanged."""
    from qtilt.quivercore import Path
    from qtilt.tensorcon import TensorAlgebraResult, structural_suite
    alg = a2xa2.algebra
    a = alg.normal_form(Path.of(alg.quiver, ["a(x)e_1"]))
    shift = {("1", "1"): 1, ("2", "2"): -1}
    real = TensorAlgebraResult.idempotent

    def skewed(self, u, v):
        e = real(self, u, v)
        c = shift.get((u, v))
        return e if c is None else {**e, **{k: c * x for k, x in a.items()}}

    monkeypatch.setattr(TensorAlgebraResult, "idempotent", skewed)
    verdicts = {name: (ok, detail) for name, ok, detail
                in structural_suite(a2xa2, module_count=0)}
    assert verdicts["idempotents"] == (False,
                                       "idempotent 0 is not orthogonal to 2")


def test_structural_suite_builds_each_product_and_top_once(monkeypatch,
                                                         a2xa2):
    """Each random pair's product M (x) N is built once, and the top
    sections are read once of each of M, N and M (x) N."""
    from qtilt import tensorcon
    made, tops = [], []
    build, top = tensorcon.tensor_modules, tensorcon._top_sections

    def counted_build(t, m, n, **kw):
        made.append((m, n))    # kept alive, so no id is reused
        return build(t, m, n, **kw)

    monkeypatch.setattr(tensorcon, "tensor_modules", counted_build)
    monkeypatch.setattr(tensorcon, "_top_sections",
                        lambda m: tops.append(m) or top(m))
    results = tensorcon.structural_suite(a2xa2, seed=3, module_count=3)
    assert all(ok for _, ok, _ in results)
    pairs = [(id(m), id(n)) for m, n in made]
    assert len(pairs) == len(set(pairs)) == 12 + 2 * 3
    assert len(tops) == len({id(m) for m in tops}) == 3 * 3


def test_flags_preserved(kron2):
    assert semisimple_and_basic_flags(kron2.algebra) == (False, True)


def test_gldim_additivity(kron2, a2xa2, kronxa2):
    for t in (kron2, a2xa2, kronxa2):
        assert gldim(t.algebra) == gldim(t.left) + gldim(t.right)


# --- modules ---------------------------------------------------------------------

def test_simple_tensor_simple(kron2):
    s = tensor_modules(kron2, simple(kron2.left, "1"), simple(kron2.right, "2"))
    assert s.total_dim() == 1
    assert s.dims[kron2.vertex("1", "2")] == 1


def test_projective_tensor_projective(kron2):
    for u in kron2.left.quiver.vertices:
        for v in kron2.right.quiver.vertices:
            pp = tensor_modules(kron2, proj(kron2.left, u), proj(kron2.right, v))
            pv = proj(kron2.algebra, kron2.vertex(u, v))
            assert pp.dim_vector() == pv.dim_vector()
            assert is_isomorphic(pp, pv)


def test_injective_tensor_injective(kron2):
    for u in kron2.left.quiver.vertices:
        for v in kron2.right.quiver.vertices:
            ii = tensor_modules(kron2, inj(kron2.left, u), inj(kron2.right, v))
            iv = inj(kron2.algebra, kron2.vertex(u, v))
            assert is_isomorphic(ii, iv)


def test_translate_tensor_translate_dims(kron2):
    p3 = tau_n_minus(proj(kron2.left, "1"), 1)
    assert p3.dim_vector() == (3, 2)
    t = tensor_modules(kron2, p3, p3)
    dims = {kron2.vertex(u, v): t.dims[kron2.vertex(u, v)]
            for u in ("1", "2") for v in ("1", "2")}
    assert dims[kron2.vertex("1", "1")] == 9
    assert dims[kron2.vertex("1", "2")] == 6
    assert dims[kron2.vertex("2", "1")] == 6
    assert dims[kron2.vertex("2", "2")] == 4
    assert t.total_dim() == 25


def test_top_of_tensor_product(kronxa2):
    m = random_module(kronxa2.left, seed=4)
    n = random_module(kronxa2.right, seed=5)
    t = kronxa2.algebra
    tt = dict(zip(t.quiver.vertices, top_dims(tensor_modules(kronxa2, m, n))))
    tm = dict(zip(kronxa2.left.quiver.vertices, top_dims(m)))
    tn = dict(zip(kronxa2.right.quiver.vertices, top_dims(n)))
    for u in kronxa2.left.quiver.vertices:
        for v in kronxa2.right.quiver.vertices:
            assert tt[kronxa2.vertex(u, v)] == tm[u] * tn[v]


def test_semisimple_iff_factors_semisimple(kronxa2):
    s = tensor_modules(kronxa2, simple(kronxa2.left, "1"), simple(kronxa2.right, "1"))
    assert not any(radical_dims(s))
    m = tensor_modules(kronxa2, proj(kronxa2.left, "2"), simple(kronxa2.right, "1"))
    assert any(radical_dims(m))


def test_projective_cover_preserved(kronxa2):
    m = random_module(kronxa2.left, seed=6)
    n = random_module(kronxa2.right, seed=7)
    cm = projective_cover(m)
    cn = projective_cover(n)
    direct = projective_cover(tensor_modules(kronxa2, m, n)).source
    tensored = tensor_modules(kronxa2, cm.source, cn.source)
    assert direct.dim_vector() == tensored.dim_vector()
    assert is_isomorphic(direct, tensored)


def test_pd_and_injd_additive(kron2, a2xa2):
    p1 = proj(kron2.left, "1")
    pp = tensor_modules(kron2, p1, p1)
    assert injd(p1) == 1
    assert injd(pp) == 2
    s2 = simple(a2xa2.left, "2")
    ss = tensor_modules(a2xa2, s2, s2)
    assert pd(s2) == 1
    assert pd(ss) == 2


def test_indecomposable_iff_factors(kronxa2):
    m = proj(kronxa2.left, "2")
    n = inj(kronxa2.right, "1")
    prod = tensor_modules(kronxa2, m, n)
    assert [mult for _, mult in decompose(prod)] == [1]
    two = tensor_modules(kronxa2, injective_cogenerator(kronxa2.left),
                         simple(kronxa2.right, "1"))
    assert sum(mult for _, mult in decompose(two)) == 2


# --- maps -----------------------------------------------------------------------

def test_tensor_identity_maps(kronxa2):
    m = proj(kronxa2.left, "2")
    n = proj(kronxa2.right, "2")
    idm = tensor_maps(kronxa2, ModuleMap.identity(m), ModuleMap.identity(n))
    assert idm.is_isomorphism()


def test_tensor_map_ranks(kronxa2):
    m1 = random_module(kronxa2.left, seed=0)
    m2 = random_module(kronxa2.left, seed=0)
    f_basis = hom_space(m1, m2)
    n1 = random_module(kronxa2.right, seed=20)
    n2 = random_module(kronxa2.right, seed=20)
    g_basis = hom_space(n1, n2)
    assert f_basis and g_basis
    f, g = f_basis[0], g_basis[0]
    fg = tensor_maps(kronxa2, f, g)
    for u in kronxa2.left.quiver.vertices:
        for v in kronxa2.right.quiver.vertices:
            assert fg.blocks[kronxa2.vertex(u, v)].rank() == \
                f.blocks[u].rank() * g.blocks[v].rank()


def test_kernel_of_tensored_surjections(kronxa2):
    # kernel dimension of g (x) g' for surjections g: N -> L, g': N' -> L'
    # matches dim M.N' + dim N.M' - dim M.M' vertexwise (M, M' the
    # kernels); here g and g' are projective covers
    g = projective_cover(random_module(kronxa2.left, seed=12))
    gp = projective_cover(random_module(kronxa2.right, seed=13))
    prod = tensor_maps(kronxa2, g, gp)
    kdim = {v: kernel_rep(prod)[0].dims[v]
            for v in kronxa2.algebra.quiver.vertices}
    for u in kronxa2.left.quiver.vertices:
        for v in kronxa2.right.quiver.vertices:
            n_, np_ = g.source.dims[u], gp.source.dims[v]
            m_, mp_ = n_ - g.target.dims[u], np_ - gp.target.dims[v]
            assert kdim[kronxa2.vertex(u, v)] == m_ * np_ + n_ * mp_ - m_ * mp_


# --- Kunneth ----------------------------------------------------------------------

def test_kunneth_degree_zero_is_hom_product(kronxa2):
    m = proj(kronxa2.left, "2")
    n = random_module(kronxa2.left, seed=14)
    mp = proj(kronxa2.right, "2")
    np_ = random_module(kronxa2.right, seed=15)
    [(q, lhs, rhs)] = kunneth_verify(kronxa2, m, n, mp, np_, 0)
    assert lhs == rhs
    assert lhs == len(hom_space(m, n)) * len(hom_space(mp, np_))


def test_kunneth_ext2_value(kron2):
    s2 = simple(kron2.left, "2")
    s1 = simple(kron2.left, "1")
    rows = kunneth_verify(kron2, s2, s1, s2, s1, 2)
    assert all(lhs == rhs for _, lhs, rhs in rows)
    assert rows[2][1] == 4  # (dim Ext^1(S2,S1))^2 = 2*2


def test_kunneth_projectives_vanish_positively(kron2):
    p = proj(kron2.left, "2")
    n = simple(kron2.left, "1")
    rows = kunneth_verify(kron2, p, n, p, n, 3)
    assert all(lhs == rhs for _, lhs, rhs in rows)
    for q, lhs, _ in rows[1:]:
        assert lhs == 0


def test_ext_vanishing_transfer_on_translate_input(kron2):
    # factor condition: Hom(D(alg), P1) = 0 in each factor, so the product
    # has Ext^q(D(product), P1 (x) P1) = 0 for q < 2
    dl = injective_cogenerator(kron2.left)
    p1 = proj(kron2.left, "1")
    assert len(hom_space(dl, p1)) == 0
    dprod = injective_cogenerator(kron2.algebra)
    pp = tensor_modules(kron2, p1, p1)
    for q in (0, 1):
        assert ext_dim(dprod, pp, q) == 0
    assert ext_dim(dprod, pp, 2) != 0


# --- the factorized resolution -------------------------------------------------

def _check_tensor_resolution(t, m, n):
    """The tensor of the factor resolutions of m and n against the direct
    resolution of M (x) N: the same generators and term dimension vectors,
    term for term; d o d = 0, the augmentation included; exact at every
    vertex by ranks, onto M (x) N and injective at the end; and minimal,
    no image in degree >= 1 having an entry at a trivial path's
    coordinate.  Returns the product and its factorized resolution."""
    prod, res = tensor_resolution(t, m, n, 6)
    assert prod._cache["minres"] is res and res.terminated
    direct = min_proj_resolution(tensor_modules(t, m, n), 12)
    assert direct.terminated and res.length == direct.length
    for p in range(res.length + 1):
        assert Counter(res.generators(p)) == Counter(direct.generators(p))
        assert res.term(p).dim_vector() == direct.term(p).dim_vector()
    maps = resolution_maps(res)
    for p in range(1, len(maps)):
        assert (maps[p - 1] * maps[p]).is_zero()
        for v in t.algebra.quiver.vertices:
            din = maps[p].blocks[v]
            dout = maps[p - 1].blocks[v]
            # ker(dout) = im(din): compare dimensions exactly
            assert (dout.ncols - dout.rank()) == din.rank()
    if maps:
        assert is_surjective(maps[0]) and maps[-1].is_injective()
    basis = t.algebra.basis
    for p in range(1, len(maps)):
        for w, img in zip(res.generators(p), res.images[p]):
            coords = _free_coordinates(res.terms[p - 1], w)
            assert all(basis[coords[i][1]].arrows for i in img)
    return prod, res


def test_total_complex_is_the_minimal_resolution(a2xa2, kron2, kronxa2, a2,
                                                 a3, a3nil, square):
    """The tensor of two minimal resolutions is the minimal resolution of
    the product, on six products, at every pair of simples, of
    injectives and of random modules."""
    products = [a2xa2, kron2, kronxa2, tensor_algebras(a3, a2),
                tensor_algebras(square, a2), tensor_algebras(a3nil, a2)]
    for k, t in enumerate(products):
        sides = [[simple(alg, v) for v in alg.quiver.vertices]
                 + [inj(alg, v) for v in alg.quiver.vertices]
                 + [random_module(alg, 10 * k + side + 2 * s)
                    for s in range(2)]
                 for side, alg in enumerate((t.left, t.right))]
        for m in sides[0]:
            for n in sides[1]:
                _check_tensor_resolution(t, m, n)


def test_total_complex_sign_matters(kron2):
    """The sign (-1)^i on a (x) d(b) makes the tensor a complex: S2 (x) S2
    has a degree 2 term, and with the sign dropped there, d_1 o d_2 is
    nonzero.  The degree 1 generators with i = 0 come first, so the
    a (x) d(b) parts of the degree 2 images sit in their blocks."""
    m = simple(kron2.left, "2")
    n = simple(kron2.right, "2")
    _, res = _check_tensor_resolution(kron2, m, n)
    assert res.length == 2
    split = len(min_proj_resolution(m).generators(0)) * \
        len(min_proj_resolution(n).generators(1))
    unsigned = []
    for w, img in zip(res.generators(2), res.images[2]):
        end = free_offsets(res.terms[1], w)[split]
        unsigned.append({c: -x if c < end else x for c, x in img.items()})
    d2 = proj_map_from_images(res.terms[2], res.terms[1], unsigned)
    d1 = proj_map_from_images(res.terms[1], res.terms[0], res.images[1])
    assert not (d1 * d2).is_zero()


def test_tensor_resolution_needs_finite_factors(loop2, a2):
    """A factor resolution that does not terminate within the bound, here
    the simple of k[x]/x^2, is undetermined."""
    t = tensor_algebras(loop2, a2)
    with pytest.raises(InconclusiveError):
        tensor_resolution(t, simple(loop2, "1"), simple(a2, "1"), 4)


def test_tensor_resolution_keeps_no_covers(kron2):
    """The assembled resolution is a terminated resolution like a grown
    one, and keeps no cover: its syzygies, read off the augmentation and
    the differentials, are those of the direct resolution."""
    m = simple(kron2.left, "2")
    n = simple(kron2.right, "2")
    prod, res = tensor_resolution(kron2, m, n, 4)
    pm = tensor_modules(kron2, m, n)
    direct = min_proj_resolution(pm, 4)
    assert res.terminated and res._cover is None and res._pending is None
    assert [s.dim_vector() for s in syzygies(res)] == \
        [s.dim_vector() for s in syzygies(direct)]


def test_factorized_translate_is_the_direct_one(kron, kron2):
    """tau_{n+m} read off the factorized resolution is the direct
    translate, with the dimension vector of tau_n M (x) tau_m N: on kron^2
    (n = m = 1) and on kron^2 (x) kron (n = 2, m = 1), at every pair of
    injectives."""
    kron3 = tensor_algebras(kron2.algebra, kron)
    for t, n, m in ((kron2, 1, 1), (kron3, 2, 1)):
        for u in t.left.quiver.vertices:
            for v in t.right.quiver.vertices:
                left, right = inj(t.left, u), inj(t.right, v)
                prod, _ = tensor_resolution(t, left, right, 4)
                got = tau_n(prod, n + m)
                want = tensor_modules(t, tau_n(left, n), tau_n(right, m))
                assert got.dim_vector() == want.dim_vector()
                assert is_isomorphic(got, tau_n(tensor_modules(t, left, right),
                                                n + m))


def test_ext_off_the_factorized_resolution(kron2, kronxa2):
    """Ext over the product read off the factorized resolution equals Ext
    off a fresh copy resolved directly, for q <= 3, on random modules
    drawn as in the Kunneth sweep."""
    nonzero = 0
    for pair, t in enumerate((kronxa2, kron2)):
        for i in range(6):
            seeds = [10000 * pair + 4 * i + j for j in range(4)]
            m, n = (random_module(t.left, s, 3) for s in seeds[:2])
            mp, np_ = (random_module(t.right, s, 3) for s in seeds[2:])
            target = tensor_modules(t, n, np_, validate=False)
            source, _ = tensor_resolution(t, m, mp, 4)
            fresh = tensor_modules(t, m, mp, validate=False)
            dims = [ext_dim(source, target, q) for q in range(4)]
            assert dims == [ext_dim(fresh, target, q) for q in range(4)]
            nonzero += any(dims[1:])
    assert nonzero


def test_tensor_resolution_leaves_no_cyclic_garbage(kron2, kron):
    """One factorized resolution, read for Ext, leaves no cyclic garbage:
    with the collector off, gc.collect() finds nothing after it."""
    import gc

    def check():
        m, n, mp = (random_module(kron, s, 3) for s in (20004, 20005, 20006))
        source, _ = tensor_resolution(kron2, m, mp, 4)
        target = tensor_modules(kron2, n, n, validate=False)
        return [ext_dim(source, target, q) for q in range(4)]

    gc.collect()
    gc.disable()
    try:
        dims = check()
        left = gc.collect()
    finally:
        gc.enable()
    assert any(dims)
    assert left == 0


def test_kunneth_check_leaves_no_cyclic_garbage(kron2, kron):
    """One Kunneth check as the benchmark sweep makes it (random factor
    modules, their tensor products, Ext dimensions on both sides) leaves
    no cyclic garbage: with the collector off, gc.collect() finds
    nothing after it."""
    import gc

    def check(seeds):
        m, n, mp, np_ = (random_module(kron, s, 3) for s in seeds)
        source = tensor_modules(kron2, m, mp, validate=False)
        target = tensor_modules(kron2, n, np_, validate=False)
        return ([ext_dim(source, target, q) for q in range(4)],
                [ext_dim(m, n, q) for q in range(4)],
                [ext_dim(mp, np_, q) for q in range(4)])

    gc.collect()
    gc.disable()
    try:
        dims = check([20004, 20005, 20006, 20007])
        left = gc.collect()
    finally:
        gc.enable()
    prod, left_dims, right_dims = dims
    assert any(prod)
    assert prod == [sum(left_dims[i] * right_dims[q - i] for i in range(q + 1))
                    for q in range(4)]
    assert left == 0
