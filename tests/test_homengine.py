"""Resolutions, Ext, homological dimensions, transpose, higher translates."""

from fractions import Fraction

import pytest

from qtilt.errors import InconclusiveError, QtiltError
from qtilt.exactla import Matrix, QQ
from qtilt.homengine import (InfinityMarker, ProbeResult, ext_dim, gldim,
                             injd, is_finite, min_proj_resolution, pd,
                             tau_finiteness_probe, tau_n, tau_n_minus)
from qtilt.quivercore import opposite
from qtilt.repcore import (ModuleMap, decompose, direct_sum, dual, hom_space,
                           inj, is_isomorphic, proj, random_module, regular,
                           simple)

from conftest import (differential, make_kronecker, make_square,
                      resolution_maps, syzygies, top_dims)
from oracles import (ext_module, injective_cogenerator, kernel_matrix,
                     tau_n_ext, tau_n_minus_ext, transpose)

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from qtilt import homengine
from qtilt.exactla import Span
from qtilt.homengine import MinimalResolution, _hom_complex_differential
from qtilt.repcore import Representation

from conftest import make_a2, make_a3_nilpotent, make_square_gf


# --- oracle: Coxeter transform for the double-arrow quiver --------------------
#
# With Cartan matrix C whose columns are the projective dimension vectors,
# the transform Phi = -C^T C^{-1} moves dimension vectors of translates:
# tau d = Phi d (no projective summands), tau^- d = Phi^{-1} d (no injectives).

def coxeter_inverse_kronecker():
    # C = [[1,2],[0,1]]; Phi = -C^T C^{-1} = [[-1,2],[-2,3]]; inverse below
    return [[3, -2], [2, -1]]


def apply_mat(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


# --- resolutions ---------------------------------------------------------------

def test_resolution_of_projective_has_length_zero(kron):
    res = min_proj_resolution(proj(kron, "2"))
    assert res.terminated and res.length == 0


def test_resolution_of_kronecker_simple(kron):
    res = min_proj_resolution(simple(kron, "2"))
    assert res.terminated and res.length == 1
    assert res.terms[0].dim_vector() == (2, 1)
    # kernel (2,0) is covered by two copies of the vertex-1 projective
    assert res.terms[1].dim_vector() == (2, 0)
    assert res.generators(1) == ("1", "1")


def test_resolution_of_a2_simple(a2):
    res = min_proj_resolution(simple(a2, "2"))
    assert res.terminated and res.length == 1


def test_resolution_differentials_compose_to_zero(square):
    # the simple at the source corner has projective dimension 2
    m = simple(square, "22")
    res = min_proj_resolution(m, maxlen=4)
    assert res.length == 2
    maps = resolution_maps(res)
    for i in range(res.length):
        assert (maps[i] * maps[i + 1]).is_zero()


def test_resolution_minimality(square):
    m = random_module(square, seed=9)
    res = min_proj_resolution(m, maxlen=3)
    syz = syzygies(res)
    for i in range(res.length + 1):
        assert top_dims(res.term(i)) == top_dims(syz[i])


# --- ext ------------------------------------------------------------------------

def test_ext0_equals_hom(kron):
    for seeds in [(3, 4), (5, 6)]:
        m = random_module(kron, seed=seeds[0])
        n = random_module(kron, seed=seeds[1])
        assert ext_dim(m, n, 0) == len(hom_space(m, n))


def test_ext1_kronecker_simples(kron):
    assert ext_dim(simple(kron, "2"), simple(kron, "1"), 1) == 2


def test_ext_vanishes_on_projectives(kron, square):
    for alg in (kron, square):
        p = proj(alg, alg.quiver.vertices[-1])
        n = random_module(alg, seed=8)
        for deg in (1, 2, 3):
            assert ext_dim(p, n, deg) == 0


def test_ext_vanishes_into_injectives(kron):
    i1 = inj(kron, "1")
    for v in kron.quiver.vertices:
        assert ext_dim(simple(kron, v), i1, 1) == 0


def test_ext_cocycles_count(kron):
    s2, s1 = simple(kron, "2"), simple(kron, "1")
    assert ext_dim(s2, s1, 1) == eager_ext_dim(s2, s1, 1) == 2


def test_ext_inconclusive_on_truncation(loop2):
    s = simple(loop2, "1")
    with pytest.raises(InconclusiveError):
        ext_dim(s, s, 5, maxlen=3)


# --- dimensions -----------------------------------------------------------------

def test_pd_projective(kron):
    assert pd(proj(kron, "2")) == 0


def test_pd_infinite_marker(loop2):
    d = pd(simple(loop2, "1"), bound=12)
    assert not is_finite(d)
    assert d.bound == 12


def test_injd_kronecker_projective(kron):
    assert injd(proj(kron, "1")) == 1


def test_gldim_values(kron, a2, a3nil, ss2, loop2):
    assert gldim(kron) == 1
    assert gldim(a2) == 1
    assert gldim(a3nil) == 2
    assert gldim(ss2) == 0
    assert not is_finite(gldim(loop2, bound=16))


# --- transpose -------------------------------------------------------------------

def test_transpose_of_projective_vanishes(kron):
    assert transpose(proj(kron, "2")).is_zero()


def test_transpose_kronecker_simple(kron):
    # presentation P1^2 -> P2 -> S2; dualized cokernel has dimension
    # vector (0, 2) + corrections: compute and pin the value
    tr = transpose(simple(kron, "2"))
    opp = opposite(kron)
    assert tr.algebra is opp
    # tau_1(S2) = D Tr S2 must be the translate with Coxeter dims
    t = tau_n(simple(kron, "2"), 1)
    phi = [[-1, 2], [-2, 3]]
    assert t.dim_vector() == apply_mat(phi, (0, 1))


def test_double_transpose_identity_on_stable_modules(kron):
    # oracle: Tr Tr m = m for modules without projective summands
    for seed in (2, 7, 13):
        m = random_module(kron, seed=seed)
        dec = decompose(m)
        stable = [rep for rep, _ in dec if not is_finite(pd(rep)) or pd(rep) > 0]
        if not stable:
            continue
        stacked = stable[0] if len(stable) == 1 else direct_sum(stable)
        tt = transpose(transpose(stacked))
        assert is_isomorphic(tt, stacked)


# --- tau -------------------------------------------------------------------------

def test_tau_kills_projectives(kron):
    assert tau_n(proj(kron, "2"), 1).is_zero()
    assert tau_n(regular(kron), 1).is_zero()


def test_tau_minus_p1_kronecker(kron):
    t = tau_n_minus(proj(kron, "1"), 1)
    expected = apply_mat(coxeter_inverse_kronecker(), (1, 0))
    assert t.dim_vector() == expected == (3, 2)


def test_tau_chain_on_a2(a2):
    t = tau_n(simple(a2, "2"), 1)
    assert t.dim_vector() == simple(a2, "1").dim_vector()
    assert is_isomorphic(t, simple(a2, "1"))
    dlam = injective_cogenerator(a2)
    t1 = tau_n(dlam, 1)
    assert not t1.is_zero()
    t2 = tau_n(t1, 1)
    assert t2.is_zero()


def test_tau_and_tau_minus_adjoint_on_stables(kron):
    # tau^- tau M = M for M with no projective summands (here: simples of
    # the source vertex are preinjective, translate back and forth)
    s2 = simple(kron, "2")
    t = tau_n(s2, 1)
    back = tau_n_minus(t, 1)
    assert is_isomorphic(back, s2)


def test_tau_ext_agreement_kronecker(kron):
    # gl.dim = 1, so both definitions of tau_1 must agree
    for seed in (1, 4):
        m = random_module(kron, seed=seed)
        a = tau_n(m, 1)
        b = tau_n_ext(m, 1)
        assert a.dim_vector() == b.dim_vector()
        if not a.is_zero():
            assert is_isomorphic(a, b)


def test_tau_minus_ext_agreement(a2):
    for v in a2.quiver.vertices:
        m = simple(a2, v)
        a = tau_n_minus(m, 1)
        b = tau_n_minus_ext(m, 1)
        assert a.dim_vector() == b.dim_vector()
        if not a.is_zero():
            assert is_isomorphic(a, b)


def test_ext_module_structure(kron):
    # Ext^1(S2, A) over the double-arrow quiver: S2 has presentation
    # P1^2 -> P2, so the Ext module is the transpose = Tr S2
    e = ext_module(simple(kron, "2"), 1)
    assert e.algebra is opposite(kron)
    assert e.dim_vector() == transpose(simple(kron, "2")).dim_vector()


# --- probe -----------------------------------------------------------------------

def test_probe_a2_finite(a2):
    r = tau_finiteness_probe(a2, 1, max_iter=10)
    assert r.verdict == "finite"
    assert r.iterations == 2
    assert r.trace[-1] == (0, 0)


def test_probe_kronecker_undetermined(kron):
    r = tau_finiteness_probe(kron, 1, max_iter=10)
    assert r.verdict == "undetermined"
    assert r.iterations == 10
    assert all(sum(t) > 0 for t in r.trace)
    # dimension growth follows the Coxeter transform on both injectives
    phi = [[-1, 2], [-2, 3]]
    i1, i2 = (1, 2), (0, 1)
    for k, t in enumerate(r.trace, start=1):
        v1, v2 = i1, i2
        for _ in range(k):
            v1, v2 = apply_mat(phi, v1), apply_mat(phi, v2)
        assert t == tuple(a + b for a, b in zip(v1, v2))


def test_probe_semisimple(ss2):
    r = tau_finiteness_probe(ss2, 1, max_iter=5)
    assert r.verdict == "finite"
    assert r.iterations == 1


def test_probe_rejects_large_gldim(a3nil):
    with pytest.raises(QtiltError):
        tau_finiteness_probe(a3nil, 1)


# --- Euler form oracle -------------------------------------------------------
#
# For an algebra of finite global dimension, the alternating sum of Ext
# dimensions depends only on dimension vectors: writing C for the matrix
# whose (w, v) entry is dim e_w A e_v (columns are projective dimension
# vectors), the class of M in the Grothendieck group is C^{-1} d_M, so
# sum_i (-1)^i dim Ext^i(M, N) = (C^{-1} d_M) . d_N.

def cartan_matrix(alg):
    verts = alg.quiver.vertices
    return Matrix(QQ, [[len(alg.block_indices(v, w)) for v in verts]
                       for w in verts])


def euler_form_oracle(alg, m, n):
    from qtilt.exactla import solve
    c = cartan_matrix(alg)
    d_m = Matrix(QQ, [[m.dims[v]] for v in alg.quiver.vertices])
    g = solve(c, d_m)
    assert g is not None
    return sum(g[(i, 0)] * n.dims[v]
               for i, v in enumerate(alg.quiver.vertices))


@pytest.mark.parametrize("algname", ["kron", "a3nil", "square"])
def test_euler_form_matches_cartan_oracle(algname, kron, a3nil, square):
    alg = {"kron": kron, "a3nil": a3nil, "square": square}[algname]
    g = gldim(alg)
    assert is_finite(g)
    for seed in (3, 8, 21):
        m = random_module(alg, seed=seed)
        n = random_module(alg, seed=seed + 50)
        alternating = sum((-1) ** i * ext_dim(m, n, i) for i in range(g + 1))
        assert alternating == euler_form_oracle(alg, m, n)


def test_probe_trivial_for_semisimple_high_n(ss2):
    r = tau_finiteness_probe(ss2, 5, max_iter=3)
    assert r.verdict == "finite" and r.iterations == 1


# --- Ext from cached ranks -------------------------------------------------------

def kron_a2():
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(make_kronecker(), make_a2()).algebra


ALGEBRAS = {}


def algebra(name):
    if name not in ALGEBRAS:
        ALGEBRAS[name] = {"kron": make_kronecker, "a3nil": make_a3_nilpotent,
                          "kron_a2": kron_a2,
                          "square_gf": make_square_gf}[name]()
    return ALGEBRAS[name]


def eager_parts(res, n, p):
    """The kernel basis of delta_p, as sparse columns, and the span of
    delta_{p-1}'s columns, as Ext was built on every call before it read
    ranks."""
    kernel = kernel_matrix(
        _hom_complex_differential(res, n, p)).sparse_columns()
    boundaries = Span(n.algebra.field)
    if p > 0:
        for col in _hom_complex_differential(res, n, p - 1).sparse_columns():
            boundaries.add(col)
    return kernel, boundaries


def eager_ext_dim(m, n, p):
    """Oracle: kernel size of delta_p less the boundary span, on a fresh
    resolution that shares no cache with `ext_dim`."""
    if m.is_zero() or n.is_zero():
        return 0
    res = MinimalResolution(m)
    res.extend(p + 1)
    if p > res.length and res.terminated:
        return 0
    kernel, boundaries = eager_parts(res, n, p)
    return len(kernel) - len(boundaries)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["kron", "a3nil", "kron_a2", "square_gf"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_ext_dim_matches_eager_count(name, seed_m, seed_n):
    alg = algebra(name)
    m = random_module(alg, seed=seed_m)
    n = random_module(alg, seed=seed_n)
    want = [eager_ext_dim(m, n, p) for p in range(4)]
    assert [ext_dim(m, n, p) for p in range(4)] == want
    # a second pass reads the cached ranks
    assert [ext_dim(m, n, p) for p in range(4)] == want


@pytest.mark.parametrize("name,seed_m,seed_n,p,dim", [
    ("kron", 3, 4, 0, 1), ("kron", 3, 4, 1, 0), ("kron", 2, 1, 1, 4),
    ("a3nil", 2, 7, 1, 1), ("a3nil", 2, 5, 2, 2), ("kron_a2", 4, 6, 1, 3),
    ("square_gf", 3, 19, 1, 2), ("square_gf", 58, 5, 2, 1)])
def test_lazy_cocycles_match_eager(name, seed_m, seed_n, p, dim):
    """The dimension read off the cached ranks counts the eager cocycle
    classes, at known nonzero and zero values."""
    alg = algebra(name)
    m = random_module(alg, seed=seed_m)
    n = random_module(alg, seed=seed_n)
    assert ext_dim(m, n, p) == eager_ext_dim(m, n, p) == dim


def test_vanishing_ext_without_resolution_has_no_cocycles(kron):
    from qtilt.repcore import zero_rep
    assert ext_dim(proj(kron, "2"), simple(kron, "1"), 1) == 0
    assert ext_dim(zero_rep(kron), simple(kron, "1"), 0) == 0


def test_kunneth_check_builds_no_cocycle_maps(monkeypatch, kronxa2, kron, a2):
    """Ext is read off ranks: the Kunneth check builds no Hom basis, the
    first step of a cocycle map."""
    from qtilt import repcore
    from qtilt.tensorcon import kunneth_verify
    calls, real = [], repcore._hom_basis
    monkeypatch.setattr(repcore, "_hom_basis",
                        lambda m, n: calls.append((m, n)) or real(m, n))
    m, n = random_module(kron, seed=1), random_module(kron, seed=2)
    mp, np_ = random_module(a2, seed=3), random_module(a2, seed=4)
    rows = kunneth_verify(kronxa2, m, n, mp, np_, 3)
    assert all(lhs == rhs for _, lhs, rhs in rows)
    assert calls == []
    hom_space(m, n)
    assert calls == [(m, n)]


def kron_11(kron, arrow_a0):
    """A Kronecker module of dimension vector (1, 1): S1 + S2 when the
    arrows act by zero, indecomposable when a0 acts by 1."""
    mats = {"a0": Matrix(QQ, [[1]])} if arrow_a0 else {}
    return Representation(kron, {"1": 1, "2": 1}, mats)


def test_rank_cache_keeps_targets_apart(kron):
    m = simple(kron, "2")
    split, band = kron_11(kron, False), kron_11(kron, True)
    assert [ext_dim(m, split, 0), ext_dim(m, band, 0),
            ext_dim(m, split, 1), ext_dim(m, band, 1)] == [1, 0, 2, 1]
    res = min_proj_resolution(m, 0)
    assert 0 in res.hom_ranks[split] and 0 in res.hom_ranks[band]
    # fresh targets the test drops after one use never read another's
    # ranks, as an id()-keyed cache would once CPython reuses an id
    for k in range(6):
        assert ext_dim(m, kron_11(kron, k % 2), 1) == (2, 1)[k % 2]


def test_ext_module_raises_when_complex_breaks(monkeypatch, kron):
    import oracles
    monkeypatch.setattr(oracles, "solve", lambda a, b: None)
    with pytest.raises(QtiltError, match="not a complex"):
        ext_module(simple(kron, "2"), 1)


def test_ext_module_check_survives_optimize():
    import qtilt
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtilt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, os.path.dirname(os.path.abspath(__file__))]
        + [x for x in [env.get("PYTHONPATH")] if x])
    script = "\n".join([
        "import oracles",
        "from qtilt.errors import QtiltError",
        "from qtilt.quivercore import Arrow, Quiver, build_algebra",
        "from qtilt.repcore import simple",
        "q = Quiver(['1', '2'],",
        "           [Arrow('a0', '2', '1'), Arrow('a1', '2', '1')])",
        "kron = build_algebra(q, [])",
        "oracles.solve = lambda a, b: None",
        "try:",
        "    oracles.ext_module(simple(kron, '2'), 1)",
        "except QtiltError as exc:",
        "    print('raised', __debug__, exc)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised False dualized complex is not a complex\n"


def test_generators_past_the_end_build_no_module(monkeypatch, kron):
    ended = min_proj_resolution(simple(kron, "1"), 3)
    calls = []
    monkeypatch.setattr(homengine, "proj_sum",
                        lambda *args: calls.append(args))
    assert ended.terminated and ended.length == 0
    assert ended.generators(1) == ended.generators(5) == ()
    # nor below degree 0: the augmentation has no presentation elements
    assert ended.generators(-1) == () and ended.presentation_elements(0) == {}
    assert calls == []
    # a term not yet computed still raises rather than reading as empty
    open_res = min_proj_resolution(kron_11(kron, True), 0)
    assert not open_res.terminated
    with pytest.raises(QtiltError, match="read before it was computed"):
        open_res.generators(1)


def test_rank_cache_lets_dropped_targets_go():
    import gc
    kron = make_kronecker()
    source = inj(kron, "2")          # cached on the algebra
    res = min_proj_resolution(source, 0)
    targets = [random_module(kron, seed) for seed in range(200)]
    dims = [ext_dim(source, t, 1) for t in targets]
    assert len(res.hom_ranks) == 200
    del targets
    gc.collect()
    assert len(res.hom_ranks) == 0
    assert dims[:10] == [3, 2, 0, 1, 0, 3, 0, 3, 0, 4]
    assert [ext_dim(source, random_module(kron, seed), 1)
            for seed in range(200)] == dims


def test_tau_n_builds_only_the_arrows_it_reads(monkeypatch):
    """tau_2 of a kron^2 injective builds the arrow matrices of no free
    module and takes no cokernel and no dual: the resolution's terms and
    both ends of the dualized differential stay generator tuples."""
    from qtilt import repcore
    from qtilt.tensorcon import tensor_algebras
    kron = make_kronecker()
    alg = tensor_algebras(kron, kron).algebra
    m = inj(alg, "(1,1)")
    built = []
    build = repcore._free_arrow_mats
    monkeypatch.setattr(repcore, "_free_arrow_mats",
                        lambda p: built.append(p) or build(p))
    dualized = []
    dualize = homengine._dualized_elements
    monkeypatch.setattr(homengine, "_dualized_elements",
                        lambda res, i: dualized.append(dualize(res, i))
                        or dualized[-1])
    for module, name in ((repcore, "cokernel_rep"), (homengine, "dual")):
        monkeypatch.setattr(module, name, lambda *args, name=name:
                            pytest.fail(f"tau_n called {name}"))
    assert tau_n(m, 2).dim_vector() == (9, 12, 12, 16)
    res = m._cache["minres"]
    (src, tgt, _), = dualized
    assert res.length == 2
    assert built == []
    assert all(p._mats is None for p in res.terms)
    assert src._mats is None and tgt._mats is None


def test_resolution_drops_kernel_inclusions_once_composed():
    """The images of a cover's generators are composed with the inclusion
    of the syzygy it covers; the inclusion (a kernel basis per vertex) is
    dropped then.  A terminated resolution keeps neither a cover nor a
    kernel, and the syzygy past its end is zero."""
    from qtilt.tensorcon import tensor_algebras
    kron = make_kronecker()
    alg = tensor_algebras(kron, kron).algebra
    m = inj(alg, "(1,1)")
    res = min_proj_resolution(m, 4)
    assert res.terminated and res.length == 2
    assert res._cover is None and res._pending is None
    assert syzygies(res)[3].is_zero()
    maps = resolution_maps(res)
    for i in range(1, res.length):
        assert (maps[i] * maps[i + 1]).is_zero()


# --- resolutions held as generator images -------------------------------------

from qtilt.exactla import PrimeField

GF32003 = PrimeField(32003)


def _path_algebra(field, arrows, name):
    """A relation-free path algebra; arrows are (name, source, target)."""
    from qtilt.quivercore import Arrow, Quiver, build_algebra
    verts = sorted({v for _, s, t in arrows for v in (s, t)})
    return build_algebra(Quiver(verts, [Arrow(*a) for a in arrows]), [],
                         field, name=name)


def _kron(field):
    return _path_algebra(field, [("a0", "2", "1"), ("a1", "2", "1")], "kron")


def _a2(field):
    return _path_algebra(field, [("a", "2", "1")], "a2")


def _a3(field):
    return _path_algebra(field, [("a", "2", "1"), ("b", "3", "2")], "a3")


def _tensor(left, right):
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(left, right).algebra


def _image_corpus():
    from conftest import make_two_loop
    return {"kron2": _tensor(_kron(QQ), _kron(QQ)),
            "a3xkron": _tensor(_a3(QQ), _kron(QQ)),
            "twoloop": make_two_loop(),
            "kron_gf": _kron(GF32003)}


def _eager_resolution(m, upto):
    """The resolution by composed maps: maps[i] = incl_i * cover_i for the
    cover of the i-th syzygy and its inclusion."""
    from qtilt.repcore import projective_cover
    from oracles import kernel_rep
    maps, syz, incl = [], m, None
    while len(maps) <= upto and not syz.is_zero():
        cover = projective_cover(syz)
        maps.append(cover if incl is None else incl * cover)
        syz, incl = kernel_rep(cover)
    return maps


def _eager_elements(d, i):
    """presentation_elements(i) read off the composed map d = maps[i]: the
    column of each generator at its trivial path."""
    from bisect import bisect_right
    from qtilt.quivercore import Path
    from qtilt.repcore import free_offsets
    alg = d.source.algebra
    gens_lo, gens_hi = d.target.proj_gens, d.source.proj_gens
    X = {}
    for l, w in enumerate(gens_hi):
        at = (free_offsets(d.source, w)[l]
              + alg.block_pos[alg.basis_index(Path.trivial(w))])
        lo = free_offsets(d.target, w)
        for row_i, c in d.blocks[w].sparse_columns()[at].items():
            k = bisect_right(lo, row_i) - 1
            idx = alg.block_indices(gens_lo[k], w)[row_i - lo[k]]
            X.setdefault((k, l), {})[idx] = c
    return X


def _same_map(f, g):
    return (f.source.dims == g.source.dims and f.target.dims == g.target.dims
            and f.blocks == g.blocks)


@pytest.mark.parametrize("name", ["kron2", "a3xkron", "twoloop", "kron_gf"])
def test_generator_images_match_composed_maps(name):
    alg = _image_corpus()[name]
    modules = [random_module(alg, seed) for seed in range(3)]
    modules += [f(alg, v) for v in alg.quiver.vertices for f in (simple, inj)]
    lengths = []
    for m in modules:
        res = MinimalResolution(m)
        res.extend(3)
        maps = _eager_resolution(m, 3)
        assert len(res.terms) == len(maps)
        assert all(_same_map(f, g)
                   for f, g in zip(resolution_maps(res), maps))
        for i in range(1, res.length + 1):
            got = res.presentation_elements(i)
            want = _eager_elements(maps[i], i)
            assert [(kl, list(x.items())) for kl, x in got.items()] == \
                [(kl, list(x.items())) for kl, x in want.items()]
        lengths.append(res.length)
    assert max(lengths) >= (1 if name == "kron_gf" else 2)


def test_resolution_builds_one_cover_map_per_kernel(monkeypatch):
    """Growing to length n takes n kernels: the first of the cover onto
    the module, built once through the cover builder, and each later one
    off the generator images of the last differential, read as columns
    once per step; no map is built through the generator-image route.  The
    differentials of degree 1 to n are then built through that route, and
    no cover again."""
    import oracles
    from conftest import make_two_loop
    covers, maps, reads, kernels = [], [], [], []
    real_cover = homengine._image_blocks
    monkeypatch.setattr(homengine, "_image_blocks",
                        lambda *a: covers.append(1) or real_cover(*a))
    real_read = homengine._image_columns
    monkeypatch.setattr(homengine, "_image_columns",
                        lambda *a: reads.append(1) or real_read(*a))
    real_kernel = homengine.kernel_data
    monkeypatch.setattr(homengine, "kernel_data",
                        lambda m: kernels.append(1) or real_kernel(m))
    real_map = oracles.proj_map_from_images
    monkeypatch.setattr(oracles, "proj_map_from_images",
                        lambda *a: maps.append(1) or real_map(*a))
    kron2 = _tensor(_kron(QQ), _kron(QQ))
    cases = [(dual(proj(opposite(kron2), "(1,1)")), 2),
             (simple(make_two_loop(), "1"), 3)]
    for m, n in cases:
        del covers[:], maps[:], reads[:], kernels[:]
        res = min_proj_resolution(m, n)
        assert res.length == n and len(covers) == 1 and not maps
        assert len(reads) == n - 1
        assert len(kernels) == n * len(m.algebra.quiver.vertices)
        assert len([differential(res, i) for i in range(1, n + 1)]) == n
        assert len(covers) == 1 and len(maps) == n


def test_growing_builds_no_syzygy_module(monkeypatch):
    """A resolution grown to length n has taken n kernels, each held as
    its vectors inside the last term, and built no module past the one it
    resolves: no module with arrow matrices, no solve, no restriction to
    a submodule.  A terminated one keeps no kernel."""
    from qtilt import repcore
    from conftest import make_loop_nilpotent, make_two_loop
    kron2 = _tensor(_kron(QQ), _kron(QQ))
    cases = [(simple(make_loop_nilpotent(), "1"), 5),
             (simple(make_two_loop(), "1"), 3),
             (dual(proj(opposite(kron2), "(1,1)")), 2),
             (simple(_kron(GF32003), "2"), 1)]
    built, taken = [], []
    init = Representation.__init__

    def recorded(self, algebra, dims, mats, *args, **kwargs):
        init(self, algebra, dims, mats, *args, **kwargs)
        if mats is not None:
            built.append(self)

    monkeypatch.setattr(Representation, "__init__", recorded)
    monkeypatch.setattr(repcore, "solve", lambda *a:
                        pytest.fail("growing solved a linear system"))
    monkeypatch.setattr(repcore, "_restricted", lambda *a:
                        pytest.fail("growing built a kernel module"))
    real = homengine.kernel_data
    monkeypatch.setattr(homengine, "kernel_data",
                        lambda m: taken.append(1) or real(m))
    for m, n in cases:
        del built[:], taken[:]
        res = min_proj_resolution(m, n)
        assert res.length == n and built == []
        assert len(taken) == n * len(m.algebra.quiver.vertices)
        res.extend(n + 8)
        assert built == []
        if res.terminated:
            assert res._pending is None and res._cover is None


def test_pd_at_the_bound_takes_each_kernel_once(monkeypatch, square):
    """pd at its bound takes the kernel past the last term: a zero one
    terminates the resolution, a nonzero one is kept as the one pending
    kernel, which deeper growth then covers without taking it again."""
    from conftest import make_loop_nilpotent
    taken = []
    real = homengine.kernel_data
    monkeypatch.setattr(homengine, "kernel_data",
                        lambda m: taken.append(1) or real(m))
    m = simple(make_loop_nilpotent(), "1")     # one vertex
    assert pd(m, 3) == InfinityMarker(3)
    res = m._cache["minres"]
    assert len(taken) == 4 and res._pending is not None
    res = min_proj_resolution(m, 5)
    assert res.length == 5 and len(taken) == 5
    del taken[:]
    m = simple(square, "22")
    per_kernel = len(square.quiver.vertices)
    assert pd(m, 2) == 2 and len(taken) == 3 * per_kernel
    res = min_proj_resolution(m, 4)
    assert res.terminated and res.length == 2
    assert len(taken) == 3 * per_kernel and res._pending is None


@pytest.mark.parametrize("name", ["kron2", "a3xkron", "twoloop", "kron_gf",
                                  "twoloop_gf"])
def test_kernel_in_its_free_term_matches_the_syzygy_route(name):
    """At every step the kernel a resolution holds inside its last term
    is the inclusion of the syzygy the module route builds, the kernel of
    the cover onto the previous syzygy (`kernel_rep`), column for column;
    and the top sections read off it are `_top_sections` of that syzygy,
    so the next term and its generator images are those of that route.
    Over Q and GF(32003), and on modules with Fraction entries; steps
    past the first read the kernel off the generator images."""
    from conftest import make_two_loop, with_fractions
    from qtilt.repcore import _submodule_top, _top_sections, projective_cover
    from oracles import kernel_rep
    corpus = {**_image_corpus(), "twoloop_gf": make_two_loop(GF32003)}
    alg = corpus[name]
    modules = [random_module(alg, seed) for seed in range(3)]
    if not alg.field.char:
        modules += [with_fractions(m) for m in modules]
    modules += [f(alg, v) for v in alg.quiver.vertices for f in (simple, inj)]
    steps = 0
    for m in modules:
        res = MinimalResolution(m)
        syz = m
        for i in range(4):
            res.extend(i)
            cover = projective_cover(syz)
            assert res.terms[i].proj_gens == cover.source.proj_gens
            syz, incl = kernel_rep(cover)
            res._take_kernel()
            if res.terminated:
                assert syz.is_zero()
                break
            columns, free = res._pending
            for v in alg.quiver.vertices:
                assert columns[v] == incl.blocks[v].sparse_columns()
            assert _submodule_top(res.terms[i], columns, free) == \
                _top_sections(syz)
            steps += i > 0
    # kron is hereditary: past the first step every kernel is zero
    assert steps >= (0 if name == "kron_gf" else 5)


def test_probe_releases_each_piece_resolution(monkeypatch):
    """The probe drops every piece's cached resolution once its translate
    is taken: no injective keeps one, and with the cyclic collector off,
    reference counting alone frees each resolution."""
    import gc
    import weakref
    alg = _tensor(_kron(QQ), _kron(QQ))
    held = []
    real = homengine.tau_n

    def recorded(m, n, *args):
        t = real(m, n, *args)
        held.append(weakref.ref(m._cache["minres"]))
        return t

    monkeypatch.setattr(homengine, "tau_n", recorded)
    gc.collect()
    gc.disable()
    try:
        result = tau_finiteness_probe(alg, 2, 3)
        alive = [r for r in held if r() is not None]
    finally:
        gc.enable()
    assert result.trace[0] == (25, 35, 35, 49) and len(held) == 4 + 4 + 4
    assert alive == []
    assert all("minres" not in inj(alg, v)._cache for v in alg.quiver.vertices)


def test_tau_minus_drops_the_resolution_it_built(monkeypatch):
    """Six kept tau_2^- iterates of P((1,1)) on kron^2 keep no resolution
    of their duals: each call drops the one it built, and reference
    counting frees it.  A resolution that was there before stays."""
    import gc
    import weakref
    alg = _tensor(_kron(QQ), _kron(QQ))
    made = []
    init = homengine.MinimalResolution.__init__

    def recorded(self, module):
        made.append(weakref.ref(self))
        init(self, module)
    monkeypatch.setattr(homengine.MinimalResolution, "__init__", recorded)
    gc.collect()
    gc.disable()
    try:
        iterates = [proj(alg, "(1,1)")]
        for _ in range(6):
            iterates.append(tau_n_minus(iterates[-1], 2))
        alive = [r for r in made if r() is not None]
    finally:
        gc.enable()
    assert len(made) == 6 and alive == []
    assert [m.total_dim() for m in iterates[:3]] == [1, 25, 81]
    m = iterates[1]
    pd(dual(m))
    kept = dual(m)._cache["minres"]
    assert tau_n_minus(m, 2).dims == iterates[2].dims
    assert dual(m)._cache["minres"] is kept


@pytest.mark.parametrize("call", [
    lambda alg, m: tau_finiteness_probe(alg, 1, 0),
    lambda alg, m: tau_finiteness_probe(alg, 1, -2),
    lambda alg, m: min_proj_resolution(m, -1),
    lambda alg, m: pd(m, -1),
    lambda alg, m: gldim(alg, -1),
    lambda alg, m: tau_n(m, 1, -1),
    lambda alg, m: ext_dim(m, m, 1, -1),
])
def test_non_positive_bounds_rejected(call):
    alg = make_kronecker()
    with pytest.raises(QtiltError, match=">= "):
        call(alg, simple(alg, "2"))


def _oracle_modules(alg):
    for v in alg.quiver.vertices:
        yield from (proj(alg, v), inj(alg, v), simple(alg, v))


@pytest.mark.parametrize("pair", ["kronxa2", "a3xkron"])
def test_translates_agree_over_q_and_fp(pair):
    """tau_n and tau_n^- of every indecomposable projective, injective and
    simple, for n = 1 and 2, have the same dimension vectors over Q and
    over GF(32003)."""
    def build(field):
        left, right = ((_kron(field), _a2(field)) if pair == "kronxa2"
                       else (_a3(field), _kron(field)))
        return _tensor(left, right)
    dims = {}
    for field in (QQ, GF32003):
        alg = build(field)
        dims[field] = [op(m, n).dim_vector() for m in _oracle_modules(alg)
                       for n in (1, 2) for op in (tau_n, tau_n_minus)]
    assert dims[QQ] == dims[GF32003]
    assert any(sum(d) for d in dims[QQ])


# --- tau_n as the kernel of the Nakayama-dualized differential ---------------

def _tau_by_cokernel(m, n):
    """The dualize-then-dual route: D of the cokernel, over the opposite
    algebra, of the dualized differential terms[n] -> terms[n-1]."""
    from qtilt.repcore import cokernel_rep, zero_rep
    from oracles import _dualized_differential
    res = min_proj_resolution(m, n)
    if m.is_zero() or (res.terminated and res.length < n):
        return zero_rep(m.algebra)
    return dual(cokernel_rep(_dualized_differential(res, n))[0])


def _same_module(t, ref):
    return (t.algebra is ref.algebra and t.dims == ref.dims
            and t.mats == ref.mats)


@pytest.mark.parametrize("name", ["kron2", "a3xkron", "twoloop", "kron_gf"])
def test_tau_n_matches_the_cokernel_route(name):
    """tau_n, read off ker nu(d_n), equals D coker(d_n^*) arrow matrix for
    arrow matrix, for n = 1 and 2."""
    alg = _image_corpus()[name]
    modules = list(_oracle_modules(alg))
    modules += [random_module(alg, seed) for seed in range(10)]
    nonzero = 0
    for m in modules:
        for n in (1, 2):
            t = tau_n(m, n)
            assert _same_module(t, _tau_by_cokernel(m, n))
            nonzero += not t.is_zero()
    assert nonzero


def _tau_minus_by_cokernel(m, n):
    """The cokernel route to tau_n^-: coker of the dualized differential
    terms[n] -> terms[n-1] of the resolution of Dm, over the opposite of
    the opposite algebra."""
    from qtilt.repcore import cokernel_rep, zero_rep
    from oracles import _dualized_differential
    res = min_proj_resolution(dual(m), n)
    if m.is_zero() or (res.terminated and res.length < n):
        return zero_rep(m.algebra)
    return cokernel_rep(_dualized_differential(res, n))[0]


def _transpose_by_cokernel(m):
    """Tr m as the cokernel of the dualized minimal presentation."""
    from qtilt.repcore import cokernel_rep
    from oracles import _dualized_differential
    res = min_proj_resolution(m, 1)
    return cokernel_rep(_dualized_differential(res, 1))[0]


@pytest.mark.parametrize("name", ["kron2", "a3xkron", "twoloop", "kron_gf"])
def test_tau_n_minus_and_transpose_match_the_cokernel_routes(name):
    """tau_n^- = D tau_n D and Tr = D tau_1 equal the cokernels of the
    dualized differentials arrow matrix for arrow matrix, for n = 1, 2."""
    alg = _image_corpus()[name]
    modules = list(_oracle_modules(alg))
    modules += [random_module(alg, seed) for seed in range(10)]
    nonzero = [0, 0]
    for m in modules:
        for n in (1, 2):
            t = tau_n_minus(m, n)
            assert _same_module(t, _tau_minus_by_cokernel(m, n))
            nonzero[0] += not t.is_zero()
        tr = transpose(m)
        assert tr.algebra is opposite(alg)
        assert _same_module(tr, _transpose_by_cokernel(m))
        nonzero[1] += not tr.is_zero()
    assert all(nonzero)


def test_translates_route_through_tau_n(monkeypatch):
    """tau_n_minus and transpose build no cokernel and no dualized map."""
    import oracles
    from qtilt import repcore

    def refuse(*args):
        raise AssertionError("second translate route used")

    alg = _image_corpus()["kron2"]
    m = random_module(alg, 4)
    monkeypatch.setattr(repcore, "cokernel_rep", refuse)
    monkeypatch.setattr(oracles, "_dualized_differential", refuse)
    assert not tau_n_minus(m, 2).is_zero()
    assert not transpose(m).is_zero()


def test_tau_n_matches_the_cokernel_route_on_probe_pieces():
    """Every piece of four rounds of the kron^2 tau_2 probe."""
    alg = _image_corpus()["kron2"]
    pieces = [inj(alg, v) for v in alg.quiver.vertices]
    for _ in range(4):
        translates = []
        for piece in pieces:
            t = tau_n(piece, 2)
            assert _same_module(t, _tau_by_cokernel(piece, 2))
            if not t.is_zero():
                translates.append(t)
        pieces = translates
    assert sum(p.total_dim() for p in pieces) > 500


# --- Ext through the duality ----------------------------------------------------

def _duality_corpus(field):
    from conftest import make_two_loop
    kron = _kron(field)
    return {"kron": kron, "kron2": _tensor(kron, _kron(field)),
            "a3xkron": _tensor(_a3(field), _kron(field)),
            "twoloop": make_two_loop(field)}


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "F32003"])
def test_ext_is_invariant_under_the_duality(field):
    """D is an exact duality onto modules over the opposite algebra, so
    Ext^i(X, Y) = Ext^i(DY, DX); the APR and BB checks read their Ext
    groups this way."""
    nonzero = 0
    for name, alg in _duality_corpus(field).items():
        modules = [random_module(alg, seed) for seed in range(4)]
        for x in modules:
            for y in modules:
                for i in range(4):
                    d = ext_dim(x, y, i)
                    assert d == ext_dim(dual(y), dual(x), i), (name, i)
                    nonzero += d > 0
    assert nonzero


def test_dual_is_cached_on_the_module_and_holds_no_reference_back():
    import gc
    import weakref
    kron = make_kronecker()
    m = random_module(kron, 3)
    d = dual(m)
    assert dual(m) is d and m._cache["dual"] is d
    pd(d)          # a resolution cached on the dual stays on the dual
    probe = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert probe() is None
    finally:
        gc.enable()
    assert d.algebra is opposite(kron)


# --- Hom-complex blocks through the action rows ------------------------------

def _hom_complex_by_act_block(res, n, i):
    """The Hom-complex differential Hom(terms[i], n) -> Hom(terms[i+1], n)
    with each block summed from the action matrices of its element's
    basis paths, placed at the generator offsets."""
    alg = res.module.algebra
    field = alg.field
    gens_lo, gens_hi = res.generators(i), res.generators(i + 1)
    row_off = [sum(n.dims[w] for w in gens_hi[:l])
               for l in range(len(gens_hi))]
    col_off = [sum(n.dims[v] for v in gens_lo[:k])
               for k in range(len(gens_lo))]
    rows_dim = sum(n.dims[w] for w in gens_hi)
    cols_dim = sum(n.dims[v] for v in gens_lo)
    rows = [[0] * cols_dim for _ in range(rows_dim)]
    if rows_dim and cols_dim:
        for (k, l), x in res.presentation_elements(i + 1).items():
            block = Matrix.zeros(field, n.dims[gens_hi[l]], n.dims[gens_lo[k]])
            for x_idx, c in x.items():
                block = block + n.act_path(alg.basis[x_idx]).scale(c)
            for r, row in enumerate(block.rows):
                rows[row_off[l] + r][col_off[k]:col_off[k] + len(row)] = row
    return Matrix(field, rows, ncols=cols_dim)


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "F32003"])
def test_hom_complex_differential_matches_the_act_block_sums(field):
    """Every Hom-complex differential, into random targets and into free
    ones (the regular module, unsorted and repeated generators), equals
    the sum of action matrices of the element's basis paths."""
    from conftest import make_two_loop
    from qtilt.repcore import proj_sum
    checked = 0
    for alg in (_tensor(_kron(field), _kron(field)),
                _tensor(_a2(field), _kron(field)), make_two_loop(field)):
        verts = alg.quiver.vertices
        targets = [random_module(alg, seed) for seed in range(3)]
        targets += [regular(alg), proj_sum(alg, [verts[-1], verts[0],
                                                 verts[-1]])]
        sources = [simple(alg, v) for v in verts]
        sources += [random_module(alg, 10 + seed) for seed in range(3)]
        for m in sources:
            res = min_proj_resolution(m, 3)
            for n in targets:
                for i in range(res.length + res.terminated):
                    got = _hom_complex_differential(res, n, i)
                    assert got == _hom_complex_by_act_block(res, n, i)
                    checked += not got.is_zero()
    assert checked > 40


def test_ext_against_the_opposite_regular_builds_no_free_arrows(monkeypatch):
    """The APR check's Ext^i(DP_v, A^op) on kron^2 reads the free target
    off the algebra's products: no free module's arrow matrices are
    built, and the regular module keeps only its generators."""
    from qtilt import repcore
    alg = _tensor(_kron(QQ), _kron(QQ))
    opp = opposite(alg)
    monkeypatch.setattr(repcore, "_free_arrow_mats", lambda p: pytest.fail(
        f"built the arrow matrices of a free module on {p.proj_gens}"))
    target = regular(opp)
    dims = [[ext_dim(dual(proj(alg, v)), target, i) for i in range(4)]
            for v in alg.quiver.vertices]
    assert any(map(any, dims))
    assert target._mats is None


# --- dualized generator images, against op applied one element at a time ------

def test_dualized_images_match_the_op_element_route():
    """d_i^*'s generator images, op(X[k, l]) added in straight off the
    opposite's table, equal those assembled from `op_element` of each
    presentation element: on kron^2, A3(x)kron, the two-loop algebra (whose
    reversed paths reduce to sums) over Q and GF(32003), and the square
    over GF(32003)."""
    from conftest import make_two_loop, op_element
    from qtilt.homengine import _dualized_elements
    from qtilt.repcore import free_offsets
    corpus = [*_image_corpus().values(), make_two_loop(GF32003),
              make_square_gf()]
    checked = sums = 0
    for alg in corpus:
        opp = opposite(alg)
        modules = [random_module(alg, seed) for seed in range(3)]
        for m in modules + [simple(alg, v) for v in alg.quiver.vertices]:
            res = min_proj_resolution(m, 3)
            for i in range(1, res.length + 1):
                src, tgt, images = _dualized_elements(res, i)
                gens = res.generators(i - 1)
                assert src.proj_gens == gens
                assert tgt.proj_gens == res.generators(i)
                want = [{} for _ in gens]
                for (k, l), x in res.presentation_elements(i).items():
                    off = free_offsets(tgt, gens[k])[l]
                    op_x = op_element(alg, x)
                    want[k].update((off + opp.block_pos[e], c)
                                   for e, c in op_x.items())
                    sums += len(op_x) > 1
                assert images == want, (alg.name, m, i)
                checked += 1
    assert checked > 30 and sums > 10


# --- the same dimensions over Q and GF(32003) --------------------------------

def _a3nil(field):
    from qtilt.quivercore import Arrow, Path, PathSum, Quiver, build_algebra
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "1"), Arrow("b", "3", "2")])
    return build_algebra(q, [PathSum(field, [(1, Path.of(q, ["a", "b"]))])],
                         field, name="a3nil")


_FIELD_PAIRS = {}


def _field_pair(name):
    """The named algebra over Q and over GF(32003), built once."""
    if name not in _FIELD_PAIRS:
        build = {"kron": _kron, "a3nil": _a3nil,
                 "kron_a2": lambda f: _tensor(_kron(f), _a2(f))}[name]
        _FIELD_PAIRS[name] = (build(QQ), build(GF32003))
    return _FIELD_PAIRS[name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["kron", "a3nil", "kron_a2"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_prop_dimensions_agree_over_q_and_fp(name, seed_m, seed_n):
    """The seeded random modules over Q and over GF(32003) (the same
    random entries, reduced mod p) have the same Ext^p dimensions for
    p = 0..2, the same tau_1 and tau_2 dimension vectors and the same Hom
    dimensions: no entry here meets the prime."""
    from qtilt.repcore import hom_space
    dims = []
    for alg in _field_pair(name):
        m = random_module(alg, seed=seed_m)
        n = random_module(alg, seed=seed_n)
        dims.append((m.dim_vector(), n.dim_vector(),
                     [ext_dim(m, n, p) for p in range(3)],
                     [tau_n(m, k).dim_vector() for k in (1, 2)],
                     len(hom_space(m, n)), len(hom_space(n, m))))
    assert dims[0] == dims[1]
