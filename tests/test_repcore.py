"""Representations: constructors, Hom, covers, duality, decomposition."""

import random

import pytest

from qtilt.errors import QtiltError, UndecidedIsomorphismError
from qtilt.exactla import Matrix, QQ
from qtilt.quivercore import abstract_radical, opposite
from qtilt.repcore import (ModuleMap, Representation, decompose, direct_sum,
                           dual, endomorphism_algebra, hom_space, inj,
                           is_isomorphic, cokernel_rep, proj, proj_sum,
                           projective_cover, random_module, regular, simple,
                           zero_rep)

from hypothesis import given, settings, strategies as st

from qtilt.exactla import PrimeField
from qtilt.quivercore import Arrow, Path, PathSum, Quiver, build_algebra
from qtilt.repcore import _hom_generic

from conftest import (dense, express_all_in_basis, flatten,
                      is_surjective, make_a3_nilpotent, make_kronecker,
                      make_loop_nilpotent, make_square, make_square_gf,
                      radical_dims, top_dims, with_fractions)
from oracles import (injective_cogenerator, kernel_matrix, kernel_rep,
                     structure_algebra, vstack)


# --- constructors ---------------------------------------------------------

def test_simple_dims(kron, a2):
    assert simple(kron, "1").dim_vector() == (1, 0)
    assert simple(a2, "2").dim_vector() == (0, 1)


def test_simple_unknown_vertex(kron):
    with pytest.raises(QtiltError):
        simple(kron, "7")


def test_relations_checked_on_construction(square):
    # a representation of the commutative square violating the relation
    dims = {"11": 1, "12": 1, "21": 1, "22": 1}
    mats = {"f": Matrix(QQ, [[1]]), "g": Matrix(QQ, [[1]]),
            "p": Matrix(QQ, [[1]]), "q": Matrix(QQ, [[2]])}
    with pytest.raises(QtiltError):
        Representation(square, dims, mats)
    mats["q"] = Matrix(QQ, [[1]])
    Representation(square, dims, mats)  # now the square commutes


def test_projectives_kronecker(kron):
    # paths out of vertex 2 are e2, a0, a1
    assert proj(kron, "2").dim_vector() == (2, 1)
    assert proj(kron, "1").dim_vector() == (1, 0)


def test_injectives_kronecker(kron):
    assert inj(kron, "2").dim_vector() == (0, 1)
    assert inj(kron, "1").dim_vector() == (1, 2)


def test_regular_module(kron):
    assert regular(kron).dim_vector() == (3, 1)
    assert injective_cogenerator(kron).dim_vector() == (1, 3)


# --- hom spaces ------------------------------------------------------------

def test_hom_between_projectives(kron):
    # Hom(P1, P2) corresponds to paths from 1 backwards: e1*A*e2 is spanned
    # by the two arrows
    assert len(hom_space(proj(kron, "1"), proj(kron, "2"))) == 2
    assert len(hom_space(proj(kron, "2"), proj(kron, "1"))) == 0


def test_hom_contains_identity(kron):
    m = proj(kron, "2")
    homs = hom_space(m, m)
    assert len(homs) == 1
    assert express_all_in_basis(homs, [ModuleMap.identity(m)]) is not None


def test_hom_dim_from_projective_equals_dimension(kron):
    # dim Hom(P(v), M) = dim M_v
    m = random_module(kron, seed=3)
    for v in kron.quiver.vertices:
        assert len(hom_space(proj(kron, v), m)) == m.dims[v]


def test_generic_hom_agrees_with_projective_fast_path(kron):
    p = proj(kron, "2")
    n = random_module(kron, seed=5)
    fast = hom_space(p, n)
    stripped = Representation(kron, dict(p.dims), dict(p.mats), validate=False)
    slow = hom_space(stripped, n)
    assert len(fast) == len(slow)
    width = sum(p.dims[v] * n.dims[v] for v in kron.quiver.vertices)
    fastm = (Matrix(QQ, [dense(flatten(h), width) for h in fast])
             if fast else None)
    for h in slow:
        if fastm is not None:
            stacked = vstack([fastm, Matrix(QQ, [dense(flatten(h), width)])])
            assert stacked.rank() == fastm.rank()


# --- top, radical, covers ----------------------------------------------------

def test_top_and_radical_projective(kron):
    p2 = proj(kron, "2")
    assert top_dims(p2) == (0, 1)
    assert radical_dims(p2) == (2, 0)


def test_radical_of_simple_is_zero(kron):
    s1 = simple(kron, "1")
    assert radical_dims(s1) == (0, 0)
    assert top_dims(s1) == (1, 0)


def test_projective_cover_of_simple(kron):
    c = projective_cover(simple(kron, "2"))
    assert c.source.dim_vector() == (2, 1)
    assert is_surjective(c)
    k, incl = kernel_rep(c)
    assert k.dim_vector() == (2, 0)


def test_projective_cover_of_projective_is_identity_sized(kron):
    p = proj(kron, "2")
    c = projective_cover(p)
    assert c.source.dim_vector() == p.dim_vector()
    assert c.is_isomorphism()


def test_cover_top_isomorphism(kron):
    m = random_module(kron, seed=11)
    c = projective_cover(m)
    assert top_dims(c.source) == top_dims(m)
    # kernel is superfluous: it lies inside rad P, which the incoming
    # arrows' columns span
    k, incl = kernel_rep(c)
    for v in kron.quiver.vertices:
        if k.dims[v]:
            rad_cols = Matrix.from_sparse_cols(QQ, [
                col for a in kron.quiver.arrows_into(v)
                for col in c.source.mats[a.name].sparse_columns()],
                c.source.dims[v])
            stacked = rad_cols.stack_right(incl.blocks[v])
            assert stacked.rank() == rad_cols.rank()


# --- duality -----------------------------------------------------------------

def test_dual_involution(kron):
    m = random_module(kron, seed=7)
    dd = dual(dual(m))
    assert dd.algebra is m.algebra
    assert dd.dim_vector() == m.dim_vector()
    assert is_isomorphic(dd, m)


def test_dual_of_projective_is_injective_over_opposite(kron):
    opp = opposite(kron)
    assert dual(proj(kron, "2")).dim_vector() == inj(opp, "2").dim_vector()
    assert is_isomorphic(dual(proj(kron, "2")), inj(opp, "2"))


# --- direct sums and subquotients ---------------------------------------------

def test_direct_sum_maps(kron):
    a, b = simple(kron, "1"), proj(kron, "2")
    total = direct_sum([a, b])
    assert total.dim_vector() == (3, 1)
    # block-diagonal, a first: a's 1x0 block is a zero row above b's
    for name, mat in total.mats.items():
        assert mat.rows == ((0,),) + b.mats[name].rows


def test_kernel_cokernel_of_cover(a2):
    s = simple(a2, "2")
    c = projective_cover(s)
    k, incl = kernel_rep(c)
    assert k.dim_vector() == (1, 0)
    q, pr = cokernel_rep(incl)
    assert q.dim_vector() == s.dim_vector()


# --- decomposition -------------------------------------------------------------

def test_decompose_sum_of_two_projectives(kron):
    total = direct_sum([proj(kron, "1"), proj(kron, "2")])
    dec = decompose(total)
    assert sorted(m for _, m in dec) == [1, 1]
    dims = sorted(rep.dim_vector() for rep, _ in dec)
    assert dims == [(1, 0), (2, 1)]


def test_decompose_simple_power(kron):
    s = simple(kron, "1")
    total = direct_sum([s, s, s])
    dec = decompose(total)
    assert len(dec) == 1
    rep, mult = dec[0]
    assert mult == 3 and rep.dim_vector() == (1, 0)


def test_decompose_simple_fourth_power(kron):
    # End is M_4(Q): among powers of one simple, the first whose elements
    # can have a minimal polynomial with nonlinear factors only (2 + 2)
    s = simple(kron, "1")
    total = direct_sum([s, s, s, s])
    dec = decompose(total)
    assert len(dec) == 1
    rep, mult = dec[0]
    assert mult == 4 and rep.dim_vector() == (1, 0)


def test_decompose_summands_have_local_endomorphisms(kron):
    m = random_module(kron, seed=19)
    dec = decompose(m)
    assert tuple(sum(mult * rep.dims[v] for rep, mult in dec)
                 for v in kron.quiver.vertices) == m.dim_vector()
    for rep, _ in dec:
        sca, _ = endomorphism_algebra(rep)
        rad = abstract_radical(sca)
        assert sca.dim - len(rad) == 1  # local: semisimple quotient is K


def test_decompose_zero(kron):
    dec = decompose(zero_rep(kron))
    assert dec == []


# --- isomorphism -----------------------------------------------------------

def test_isomorphic_reflexive(kron):
    m = random_module(kron, seed=23)
    assert is_isomorphic(m, m)


def test_isomorphic_different_dims(kron):
    assert not is_isomorphic(simple(kron, "1"), simple(kron, "2"))


def test_isomorphic_after_conjugation(kron):
    # conjugate P2 by a random basis change at each vertex (oracle: the
    # conjugate is isomorphic by construction)
    p = proj(kron, "2")
    rnd = random.Random(31)
    field = kron.field
    change = {}
    for v in kron.quiver.vertices:
        d = p.dims[v]
        while True:
            m = Matrix(field, [[rnd.randint(-2, 2) for _ in range(d)]
                               for _ in range(d)])
            if m.rank() == d:
                change[v] = m
                break
    from qtilt.exactla import solve
    mats = {}
    for a in kron.quiver.arrows:
        inv = solve(change[a.target], Matrix.identity(field, p.dims[a.target]))
        mats[a.name] = change[a.target] * p.mats[a.name] * \
            solve(change[a.source], Matrix.identity(field, p.dims[a.source]))
    twisted = Representation(kron, dict(p.dims), mats)
    assert is_isomorphic(p, twisted)


def _one_map_each_way(kron):
    """S1 + S2 and the indecomposable (1,1) module with a0 = identity: the
    same dimension vector, one map each way, not isomorphic."""
    s = direct_sum([simple(kron, "1"), simple(kron, "2")])
    m = Representation(kron, {"1": 1, "2": 1},
                       {"a0": Matrix(QQ, [[1]]), "a1": Matrix(QQ, [[0]])})
    return s, m


def test_isomorphic_same_dims_nonisomorphic(kron):
    s, m = _one_map_each_way(kron)
    assert not is_isomorphic(s, m)


def test_isomorphism_refused_only_on_the_grid(monkeypatch, kron):
    """No random draw decides the pair, and Hom(m, s) has the dimension of
    Hom(s, m): the answer False comes after the 20 draws, from the 5-point
    grid of coefficients -2..2."""
    from qtilt import repcore
    s, m = _one_map_each_way(kron)
    tried = []
    combine = repcore.linear_combination
    monkeypatch.setattr(repcore, "linear_combination",
                        lambda c, maps: tried.append(c) or combine(c, maps))
    assert not is_isomorphic(s, m)
    assert len(tried) == 25
    assert tried[20:] == [{0: c} for c in range(-2, 3)]


def test_isomorphism_grid_past_its_budget_is_undecided(monkeypatch, kron):
    from qtilt import repcore
    s, m = _one_map_each_way(kron)
    monkeypatch.setattr(repcore, "ISO_GRID_LIMIT", 4)
    with pytest.raises(UndecidedIsomorphismError,
                       match="dimension 1 exceeds the exhaustive search"):
        is_isomorphic(s, m)
    # a random draw finds an isomorphism before the grid is sized
    assert is_isomorphic(m, m)


# --- random modules -----------------------------------------------------------

def test_random_module_deterministic(kron, square):
    for alg in (kron, square):
        a = random_module(alg, seed=42)
        b = random_module(alg, seed=42)
        assert a.dim_vector() == b.dim_vector()
        assert all(a.mats[k] == b.mats[k] for k in a.mats)


def test_random_module_satisfies_relations(square):
    for seed in range(6):
        m = random_module(square, seed=seed)
        for rel in square.relations:
            assert m.evaluate_pathsum(rel).is_zero()


def test_decompose_regular_module_over_tensor_square(kron2):
    # the regular module of the 16-dimensional product splits into the
    # four indecomposable projectives
    dec = decompose(regular(kron2.algebra))
    assert sorted(mult for _, mult in dec) == [1, 1, 1, 1]
    dims = sorted(rep.total_dim() for rep, _ in dec)
    assert dims == [1, 3, 3, 9]


# --- Hom from the sparse intertwining system --------------------------------

GF = PrimeField(32003)


def dense_hom_oracle(m, n):
    """Hom(m, n) from the dense intertwining system, one list of ``total``
    entries per (arrow, r, c), canonicalized through ``Matrix``."""
    alg = m.algebra
    field = alg.field
    verts = alg.quiver.vertices
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        na, ma = n.mats[a.name], m.mats[a.name]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [field.zero()] * total
                for j in range(n.dims[s]):
                    row[offsets[s] + j * m.dims[s] + c] = na[(r, j)]
                for i in range(m.dims[t]):
                    idx = offsets[t] + r * m.dims[t] + i
                    row[idx] = field.canon(row[idx] - ma[(i, c)])
                if any(row):
                    rows.append(row)
    if rows:
        basis = [dense(c, total) for c in kernel_matrix(
            Matrix(field, rows, ncols=total)).sparse_columns()]
    else:
        basis = [[int(i == k) for i in range(total)] for k in range(total)]
    out = []
    for vec in basis:
        blocks = {}
        for v in verts:
            dn, dm = n.dims[v], m.dims[v]
            sub = vec[offsets[v]:offsets[v] + dn * dm]
            blocks[v] = Matrix(field, [sub[r * dm:(r + 1) * dm]
                                       for r in range(dn)], ncols=dm)
        out.append(blocks)
    return out


def kronecker_over_gf():
    q = Quiver(["1", "2"], [Arrow("a0", "2", "1"), Arrow("a1", "2", "1")])
    return build_algebra(q, [], GF, name="kron_gf")


HOM_ALGEBRAS = {}


def hom_algebra(name):
    if name not in HOM_ALGEBRAS:
        HOM_ALGEBRAS[name] = {
            "kron": make_kronecker, "a3nil": make_a3_nilpotent,
            "loop2": make_loop_nilpotent, "kron_gf": kronecker_over_gf,
            "square_gf": make_square_gf}[name]()
    return HOM_ALGEBRAS[name]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["kron", "a3nil", "loop2", "kron_gf", "square_gf"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_sparse_hom_system_matches_dense_oracle(name, seed_m, seed_n):
    alg = hom_algebra(name)
    m = random_module(alg, seed=seed_m)
    n = random_module(alg, seed=seed_n)
    got, _ = _hom_generic(m, n)
    assert [f.blocks for f in got] == dense_hom_oracle(m, n)
    for f in got:
        f._validate()


@pytest.mark.parametrize("field", [QQ, GF])
def test_sparse_hom_system_on_a_loop_with_diagonal_action(field):
    """Square-zero loop actions with nonzero diagonal entries make the
    N_x and M_x terms of one row meet at the same unknown."""
    q = Quiver(["1"], [Arrow("x", "1", "1")])
    loop = build_algebra(q, [PathSum(field, [(1, Path.of(q, ["x", "x"]))])],
                         field, name="loop2")
    two = Representation(loop, {"1": 2},
                         {"x": Matrix(field, [[1, 1], [-1, -1]])})
    three = Representation(loop, {"1": 3}, {"x": Matrix(
        field, [[2, 4, 0], [-1, -2, 0], [1, 2, 0]])})
    for m in (two, three, random_module(loop, seed=4)):
        for n in (two, three):
            got, _ = _hom_generic(m, n)
            assert [f.blocks for f in got] == dense_hom_oracle(m, n)
            for f in got:
                f._validate()


# --- invariant checks that are typed errors, not asserts -------------------------

def test_direct_sum_of_nothing_raises():
    with pytest.raises(QtiltError, match="direct sum of no modules"):
        direct_sum([])


@pytest.mark.parametrize("idempotents,message", [
    (lambda sca: [{}], "zero idempotent"),
    (lambda sca: [sca.unit, sca.unit], "does not re-sum"),
])
def test_decompose_checks_its_idempotents(monkeypatch, kron, idempotents,
                                          message):
    from qtilt import repcore
    monkeypatch.setattr(repcore, "primitive_orthogonal_idempotents",
                        idempotents)
    m = direct_sum([simple(kron, "1"), simple(kron, "2")])
    with pytest.raises(QtiltError, match=message):
        decompose(m)


def test_invariant_checks_survive_optimize():
    import os
    import subprocess
    import sys
    import qtilt
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtilt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, os.path.dirname(os.path.abspath(__file__))]
        + [x for x in [env.get("PYTHONPATH")] if x])
    script = "\n".join([
        "from qtilt import repcore",
        "from qtilt.errors import QtiltError",
        "from qtilt.exactla import Matrix, QQ",
        "from oracles import hstack, vstack",
        "from qtilt.quivercore import Arrow, Quiver, build_algebra",
        "from qtilt.repcore import decompose, direct_sum, simple",
        "q = Quiver(['1', '2'],",
        "           [Arrow('a0', '2', '1'), Arrow('a1', '2', '1')])",
        "kron = build_algebra(q, [])",
        "m = direct_sum([simple(kron, '1'), simple(kron, '2')])",
        "def show(fn, arg):",
        "    try:",
        "        fn(arg)",
        "    except QtiltError as exc:",
        "        print(__debug__, exc)",
        "show(hstack, [])",
        "show(vstack, [])",
        "show(Matrix.zeros(QQ, 1, 1).stack_right, Matrix.zeros(QQ, 2, 1))",
        "show(direct_sum, [])",
        "repcore.primitive_orthogonal_idempotents = \\",
        "    lambda sca: [{}]",
        "show(decompose, m)",
        "repcore.primitive_orthogonal_idempotents = \\",
        "    lambda sca: [sca.unit, sca.unit]",
        "show(decompose, m)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False hstack of no matrices",
        "False vstack of no matrices",
        "False hstack row mismatch",
        "False direct sum of no modules",
        "False zero idempotent in a decomposition",
        "False decomposition does not re-sum to the module",
    ]


# --- free modules: generator tuples with lazily built arrow matrices ------

def _free_corpus():
    from qtilt.tensorcon import tensor_algebras
    from conftest import make_a3, make_two_loop
    kron = make_kronecker()
    gf_kron = build_algebra(
        Quiver(["1", "2"], [Arrow("a0", "2", "1"), Arrow("a1", "2", "1")]),
        [], GF, name="kron_gf")
    return [tensor_algebras(kron, kron).algebra,
            tensor_algebras(make_a3(), kron).algebra,
            make_two_loop(), gf_kron]


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
def test_proj_columns_are_the_columns_of_the_proj_mats(field):
    """Arrow columns read off the products, at the block positions, are
    the columns of the arrow matrices built from the action rows, on every
    projective of the corpus, its tensor products and the two-loop
    algebras."""
    from conftest import corpus_over
    from qtilt.repcore import _proj_columns, _proj_mats
    checked = 0
    for alg in corpus_over(field):
        for v in alg.quiver.vertices:
            assert _proj_columns(alg, v) == {
                name: m.sparse_columns()
                for name, m in _proj_mats(alg, v).items()}, (alg.name, v)
            checked += 1
    assert checked > 50


def _reference_free_mats(alg, gens):
    """Arrow matrices of the sum of projectives P(v) over the generators,
    entry by entry from the structure constants: coordinate (k, x) at
    vertex w is basis element x of e_w A e_{gens[k]}."""
    field = alg.field
    layout = {w: [(k, x) for k, v in enumerate(gens)
                  for x in alg.block_indices(v, w)]
              for w in alg.quiver.vertices}
    mats = {}
    for a in alg.quiver.arrows:
        a_idx = alg.basis_index(Path.from_arrow(a))
        src, tgt = layout[a.source], layout[a.target]
        rows = [[0] * len(src) for _ in tgt]
        for j, (k, x) in enumerate(src):
            for y, c in alg.basis_product(a_idx, x):
                rows[tgt.index((k, y))][j] += c
        mats[a.name] = Matrix(field, rows, ncols=len(src))
    return mats


def _generator_tuples(alg):
    verts = list(alg.quiver.vertices)
    return [(), tuple(verts), tuple(reversed(verts)) * 2,
            (verts[-1], verts[0], verts[-1], verts[0], verts[0])]


@pytest.mark.parametrize("which", range(4))
def test_free_module_arrows_match_structure_constants(which):
    alg = _free_corpus()[which]
    for gens in _generator_tuples(alg):
        p = proj_sum(alg, gens)
        ref = _reference_free_mats(alg, gens)
        assert p.proj_gens == gens
        assert p.dims == {w: sum(len(alg.block_indices(v, w)) for v in gens)
                          for w in alg.quiver.vertices}
        assert p.mats == ref


def _image_map_by_act_path(p, n, images):
    """The blocks of the map out of the free module p sending generator k
    to images[k] in n, column by column through act_path: the column at
    basis element x of generator k's block is x's action matrix times
    images[k]."""
    alg = p.algebra
    blocks = {}
    for w in alg.quiver.vertices:
        cols = []
        for k, v in enumerate(p.proj_gens):
            image = Matrix.from_sparse_cols(alg.field, [images[k]],
                                            n.dims[v])
            for x in alg.block_indices(v, w):
                act = n.act_path(alg.basis[x]) * image
                cols.append(act.sparse_columns()[0])
        blocks[w] = Matrix.from_sparse_cols(alg.field, cols, n.dims[w])
    return blocks


@pytest.mark.parametrize("which", range(4))
def test_free_coordinates_follow_generator_order(which):
    """Unsorted and repeated generators: arrow columns read in place off
    the projectives and placed at their block offsets, and a map out of the
    free module given by generator images, both agree with the
    entry-by-entry layout.  Into a free target the map is
    `proj_map_from_images`; into any other it is the Hom basis out of the
    free module combined at the cochain coordinates, as cocycles are."""
    from qtilt.repcore import _free_columns, linear_combination
    from oracles import proj_map_from_images
    alg = _free_corpus()[which]
    n = random_module(alg, 5)
    for gens in _generator_tuples(alg):
        ref = _reference_free_mats(alg, gens)
        p = proj_sum(alg, gens)
        for a in alg.quiver.arrows:
            cols = list(reversed(range(p.dims[a.source])))
            got = [{off + i: x for i, x in col.items()}
                   for col, off in _free_columns(p, a, cols)]
            assert got == [ref[a.name].sparse_columns()[c] for c in cols]
        assert p._mats is None
        for target in (n, proj_sum(alg, gens)):
            images = [{i: alg.field.canon(k + i + 1)
                       for i in range(target.dims[v]) if (k + i) % 2 == 0}
                      for k, v in enumerate(gens)]
            if target.proj_gens is None:
                coords, start = {}, 0
                for k, v in enumerate(gens):
                    coords.update((start + i, c) for i, c in images[k].items())
                    start += target.dims[v]
                f = (linear_combination(coords, hom_space(p, target))
                     or ModuleMap.zero(p, target))
            else:
                f = proj_map_from_images(p, target, images)
                assert target._mats is None
            assert f.blocks == _image_map_by_act_path(p, target, images)


def _old_top_sections(m):
    """Top sections by the two-elimination route: a column basis of the
    radical, then its cokernel complement."""
    from qtilt.exactla import cokernel_data, column_space_basis
    from oracles import hstack
    out = {}
    for v in m.algebra.quiver.vertices:
        incoming = [m.mats[a.name] for a in m.algebra.quiver.arrows_into(v)]
        rad = (column_space_basis(hstack(incoming)) if incoming
               else Matrix.zeros(m.algebra.field, m.dims[v], 0))
        out[v] = cokernel_data(rad).complement
    return out


@pytest.mark.parametrize("field", [QQ, GF])
def test_top_sections_match_two_elimination_route(field):
    from qtilt.repcore import _top_sections
    kron = build_algebra(
        Quiver(["1", "2"], [Arrow("a0", "2", "1"), Arrow("a1", "2", "1")]),
        [], field)
    square = make_square_gf() if field is GF else make_square()
    checked = 0
    for alg in (kron, square):
        sources = [v for v in alg.quiver.vertices
                   if not alg.quiver.arrows_into(v)]
        assert sources                       # vertices with no incoming arrow
        for seed in range(25):
            m = random_module(alg, seed)
            assert _top_sections(m) == _old_top_sections(m)
            checked += 1
    assert checked == 50


@pytest.mark.parametrize("which", range(4))
def test_free_arrow_columns_match_the_full_matrix(which):
    """Columns read off the projectives, at unsorted and repeated
    coordinates, equal those of the assembled arrow matrices."""
    from qtilt.repcore import _arrow_cols
    alg = _free_corpus()[which]
    for gens in _generator_tuples(alg):
        ref = _reference_free_mats(alg, gens)
        p = proj_sum(alg, gens)
        for a in alg.quiver.arrows:
            cols = list(reversed(range(p.dims[a.source])))
            cols += cols[:2]
            assert _arrow_cols(p, a, cols) == ref[a.name].take_columns(cols)
        assert p._mats is None


# --- the End builder and Hom out of a projective, against their former builds

def _merge_corpus(field):
    """kron^2, A3(x)kron and the two-loop algebra over the given field."""
    from qtilt.tensorcon import tensor_algebras
    from conftest import make_two_loop

    def path_algebra(arrows, name):
        verts = sorted({v for _, s, t in arrows for v in (s, t)})
        return build_algebra(Quiver(verts, [Arrow(*a) for a in arrows]), [],
                             field, name=name)

    kron = path_algebra([("a0", "2", "1"), ("a1", "2", "1")], "kron")
    a3 = path_algebra([("a", "2", "1"), ("b", "3", "2")], "a3")
    return {"kron2": tensor_algebras(kron, kron).algebra,
            "a3xkron": tensor_algebras(a3, kron).algebra,
            "twoloop": make_two_loop(field)}


def _end_by_one_solve(m):
    """End(m) as one solve of all d^2 composites f o g plus the identity."""
    from qtilt.exactla import _dense
    basis = hom_space(m, m)
    d = len(basis)
    cols = express_all_in_basis(
        basis, [f * g for f in basis for g in basis] + [ModuleMap.identity(m)])
    table = [cols[i * d:(i + 1) * d] for i in range(d)]
    return (structure_algebra(m.algebra.field, table, _dense(cols[-1], d)),
            basis)


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "F32003"])
def test_endomorphism_algebra_matches_the_one_solve_build(field):
    """The per-block End builder on one module gives the same table, cell
    for cell, the same unit and the same basis maps."""
    dims = []
    for name, alg in _merge_corpus(field).items():
        for seed in range(4):
            m = random_module(alg, seed)
            sca, basis = endomorphism_algebra(m)
            ref, ref_basis = _end_by_one_solve(m)
            assert sca.cells == ref.cells and sca.unit == ref.unit, name
            assert [f.blocks for f in basis] == [f.blocks for f in ref_basis]
            dims.append(sca.dim)
    assert max(dims) > 2


def _hom_from_projective_by_rows(p, n):
    """Hom(p, n) for a projective sum p, one map per generator k and basis
    vector b of n at its vertex, with each column read off the rows of a
    path's action matrix."""
    from qtilt.repcore import free_offsets
    alg = p.algebra
    offsets = {w: free_offsets(p, w) for w in alg.quiver.vertices}
    out = []
    for k, v in enumerate(p.proj_gens):
        for b in range(n.dims[v]):
            blocks = {}
            for w in alg.quiver.vertices:
                cols = [{} for _ in range(p.dims[w])]
                for j, x_idx in enumerate(alg.block_indices(v, w)):
                    act = n.act_path(alg.basis[x_idx])
                    cols[offsets[w][k] + j] = {
                        i: r[b] for i, r in enumerate(act.sparse_rows)
                        if b in r}
                blocks[w] = Matrix.from_sparse_cols(alg.field, cols,
                                                    n.dims[w])
            out.append(ModuleMap(p, n, blocks, validate=False))
    return out


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "F32003"])
def test_hom_from_projective_matches_the_act_path_rows(field, corpus,
                                                       monkeypatch):
    """hom_space(P, N) for a free module P is held by its generator images
    until a block is read; the first read builds the blocks of the whole
    basis in one batch, and they equal the act_path-row construction map
    for map.  Free modules: each indecomposable projective and the sums of
    `_generator_tuples` (the regular module, repeated and unsorted
    generators) over the six-algebra corpus (over Q), the Kronecker and
    square algebras over GF(32003) and the merge corpus over both fields;
    targets: seeded random modules, a simple and the regular module."""
    from qtilt import repcore
    builds = []
    real = repcore._image_blocks
    monkeypatch.setattr(repcore, "_image_blocks",
                        lambda *a: builds.append(1) or real(*a))
    algebras = (corpus if field is QQ
                else [kronecker_over_gf(), make_square_gf()])
    checked = 0
    for alg in algebras + list(_merge_corpus(field).values()):
        verts = alg.quiver.vertices
        sources = [proj(alg, v) for v in verts] + [
            proj_sum(alg, gens) for gens in _generator_tuples(alg)]
        targets = [random_module(alg, seed) for seed in range(3)]
        targets += [simple(alg, verts[0]), regular(alg)]
        for p in sources:
            for n in targets:
                del builds[:]
                maps = hom_space(p, n)
                assert all(type(f._blocks) is tuple for f in maps)
                assert not builds
                ref = _hom_from_projective_by_rows(p, n)
                assert [f.blocks for f in maps] == [f.blocks for f in ref]
                assert len(builds) == (1 if maps else 0)
                checked += len(maps)
    assert checked > 500


# --- the two action reads: rows of x's action, columns off the products ---

def _act_by_path(n, x, vec):
    """x.vec through the action matrix of x's basis path."""
    alg = n.algebra
    path = alg.basis[x]
    col = Matrix.from_sparse_cols(alg.field, [vec], n.dims[path.source])
    return (n.act_path(path) * col).sparse_columns()[0]


def _reader_vectors(alg, dim, seed):
    """Unit vectors, one dense and one sparse seeded vector, and zero."""
    rnd = random.Random(seed)
    vecs = [{j: alg.field.one()} for j in range(dim)] + [{}]
    if dim:
        vecs.append({j: alg.field.canon(rnd.randint(-3, 3) or 1)
                     for j in range(dim)})
        vecs.append({j: alg.field.canon(rnd.randint(2, 5))
                     for j in rnd.sample(range(dim), min(2, dim))})
    return vecs


def _check_reader(n, ref, seed):
    """x.v on n through the rows of x's action (`_action_rows`), and on a
    free n also through the columns off the products (`_image_columns`,
    out of one generator at v), against act_path on ref: n itself, or a
    twin of a free n, since act_path builds the arrow matrices that the
    free reads leave unbuilt."""
    from qtilt.exactla import _tidy
    from qtilt.repcore import _action_rows, _image_columns
    alg = n.algebra
    checked = 0
    for x, path in enumerate(alg.basis):
        rows = _action_rows(n, x)
        for vec in _reader_vectors(alg, n.dims[path.source], seed + x):
            got = _tidy({r: sum(row[j] * c for j, c in vec.items()
                                if j in row)
                         for r, row in enumerate(rows)}, alg.field.char)
            assert got == _act_by_path(ref, x, vec), (n, x, vec)
            checked += 1
    if n.proj_gens is not None:
        for v in alg.quiver.vertices:
            for vec in _reader_vectors(alg, n.dims[v], seed):
                cols = _image_columns(proj_sum(alg, [v]), n, [vec])
                for w in alg.quiver.vertices:
                    xs = alg.block_indices(v, w)
                    assert len(cols[w]) == len(xs)
                    for x, col in zip(xs, cols[w]):
                        assert col == _act_by_path(ref, x, vec), (n, x, vec)
                        checked += 1
    return checked


@pytest.mark.parametrize("which", range(4))
def test_action_reader_on_free_modules_matches_act_path(which):
    """Both reads of a free module, read off the products, on free modules
    with unsorted and repeated generators, over Q and GF(32003): its arrow
    matrices stay unbuilt."""
    alg = _free_corpus()[which]
    checked = 0
    for gens in _generator_tuples(alg):
        n = proj_sum(alg, gens)
        checked += _check_reader(n, proj_sum(alg, gens), len(gens))
        assert n._mats is None
    assert checked > 50


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "F32003"])
def test_action_reader_on_random_modules_matches_act_path(field):
    """The rows of the composed action on seeded random modules, and on an
    indecomposable projective, whose arrow matrices are built: its rows
    are composed, its columns still read off the products."""
    checked = 0
    for name, alg in _merge_corpus(field).items():
        for seed in range(4):
            m = random_module(alg, seed)
            checked += _check_reader(m, m, seed)
        p = proj(alg, alg.quiver.vertices[0])
        assert p._mats is not None
        checked += _check_reader(p, p, 0)
    assert checked > 200


def test_action_reader_stays_off_the_module():
    """Reading x.v, and the Hom basis read from it, leaves no action
    matrix on the module, nor anything else."""
    from qtilt.repcore import _action_rows
    alg = _merge_corpus(QQ)["kron2"]
    for n in (random_module(alg, 3), proj_sum(alg, alg.quiver.vertices)):
        for x in range(len(alg.basis)):
            _action_rows(n, x)
        assert hom_space(regular(alg), n)
        assert not any(isinstance(k, tuple) and k[0] == "act"
                       for k in n._cache)
        assert not n._cache


def test_proj_map_from_images_needs_a_free_target():
    """A map given by generator images is one of free modules: into any
    other target it raises, and it takes no action argument."""
    import inspect
    from oracles import proj_map_from_images
    alg = _merge_corpus(QQ)["kron2"]
    p = proj_sum(alg, alg.quiver.vertices[:1])
    with pytest.raises(QtiltError, match="needs a free target"):
        proj_map_from_images(p, random_module(alg, 3), [{}])
    assert list(inspect.signature(proj_map_from_images).parameters) == [
        "p", "n", "images"]
    got = proj_map_from_images(p, p, [{0: alg.field.one()}])
    assert got.is_isomorphism()


def test_hom_generic_transposes_each_source_arrow_once(monkeypatch):
    """Homs out of one module that is not free read the
    columns of each of its arrow matrices once, however many targets."""
    alg = _merge_corpus(QQ)["kron2"]
    m = random_module(alg, 3)
    assert m.proj_gens is None
    arrows = list(m.mats.values())
    read = []
    real = Matrix.sparse_columns
    monkeypatch.setattr(Matrix, "sparse_columns", lambda self: read.append(
        any(self is a for a in arrows)) or real(self))
    dims = [len(hom_space(m, random_module(alg, seed))) for seed in (4, 5, 6)]
    assert any(dims)
    assert read.count(True) == len(arrows) == len(alg.quiver.arrows)


def test_hom_space_reads_each_basis_elements_columns_once(monkeypatch):
    """Reading the blocks of one hom_space(P, N) composes each basis
    element's action on N once, however many maps it builds out of that
    element's generator."""
    alg = _merge_corpus(QQ)["kron2"]
    seen = []
    real = Representation.act_path
    monkeypatch.setattr(Representation, "act_path", lambda self, path:
                        seen.append((self, path)) or real(self, path))
    verts = alg.quiver.vertices
    shared = 0      # elements read for several maps, once each
    for p in (regular(alg), proj_sum(alg, [verts[-1], verts[0], verts[-1]])):
        for seed in range(6):
            n = random_module(alg, seed)
            del seen[:]
            for f in hom_space(p, n):
                assert f.blocks
            paths = [path for m, path in seen if m is n]
            assert len(paths) == len(set(paths)), seed
            shared += sum(n.dims[path.source] > 1 for path in paths)
    assert shared > 10


def test_restriction_keeps_each_callers_message(monkeypatch, kron):
    """image_rep and the kernel oracle restrict arrows through one
    helper, each with its own failure message."""
    from qtilt import repcore
    m = random_module(kron, 2)
    monkeypatch.setattr(repcore, "solve", lambda a, b: None)
    cases = [(lambda: repcore.image_rep(ModuleMap.identity(m)),
              "image is not arrow-stable"),
             (lambda: kernel_rep(ModuleMap.identity(m)),
              "kernel is not arrow-stable")]
    for build, message in cases:
        with pytest.raises(QtiltError, match=message):
            build()


def test_random_quotients_read_canonical_images(monkeypatch):
    """Over GF(32003) the random vectors, drawn in -2..2, are made residues
    before they are read as generator images: the free map whose cokernel
    is the random quotient holds entries in 1..p-1 only, as
    `Matrix.from_sparse_cols` asks of its columns."""
    from qtilt import repcore
    alg = make_square_gf()
    p = alg.field.p
    maps, real = [], repcore.cokernel_rep
    monkeypatch.setattr(repcore, "cokernel_rep",
                        lambda f: maps.append(f) or real(f))
    for seed in range(20):
        random_module(alg, seed)
    entries = [x for f in maps for b in f.blocks.values()
               for row in b.sparse_rows for x in row.values()]
    assert p - 1 in entries and all(0 < x < p for x in entries)


# sha256 of the module files below, recorded when a random quotient was the
# quotient by the submodule its vectors generate, built one arrow at a time
RANDOM_MODULE_DIGEST = (
    "3a77e6c861417b5185a0aa8bcdd9db41fd748787d33973579306254c1f869cd5")


def test_random_module_is_pinned_byte_for_byte():
    """The random quotients over algebras with relations, 40 seeds at
    each of the dimension caps 2 and 3, print to the recorded bytes: the
    cokernel of the free map reads only the column space of each block."""
    import hashlib
    from qtilt.cli import serialize_module
    from qtilt.tensorcon import tensor_algebras
    from conftest import make_a2, make_a3, make_two_loop
    algebras = [make_a3_nilpotent(), make_loop_nilpotent(), make_square(),
                make_square_gf(), make_two_loop(),
                make_two_loop(PrimeField(32003)),
                tensor_algebras(make_kronecker(), make_a2()).algebra,
                tensor_algebras(make_a3(), make_a3_nilpotent()).algebra]
    digest = hashlib.sha256()
    for alg in algebras:
        assert alg.relations
        for cap in (2, 3):
            for seed in range(40):
                digest.update(serialize_module(random_module(alg, seed, cap),
                                               "m").encode())
    assert digest.hexdigest() == RANDOM_MODULE_DIGEST


# --- Hom positions: the coordinates every Hom basis names -----------------------

def _read(f, positions):
    """f's coordinates at the positions: entry / scale at each, zeros
    dropped."""
    field = f.source.algebra.field
    vals = {i: field.canon(f.blocks[v][r, c] * field.inv(s))
            for i, (v, r, c, s) in enumerate(positions)}
    return {i: x for i, x in vals.items() if x}


def _hom_routes(alg):
    """(route, m, n) for each way `_hom_basis` builds Hom(m, n) on alg."""
    verts = alg.quiver.vertices
    m, n, x = (random_module(alg, seed) for seed in (1, 2, 3))
    free = proj_sum(alg, [verts[-1], verts[0], verts[-1]])
    inner = direct_sum([m, x])
    return [("free", free, n), ("generic", m, n),
            ("sum source", direct_sum([m, free]), n),
            ("sum target", m, direct_sum([n, x])),
            ("nested", direct_sum([inner, n]), direct_sum([x, inner])),
            ("zero", simple(alg, verts[0]), simple(alg, verts[-1]))]


def _position_algebras(field):
    return ([make_kronecker(), make_square()] if field is QQ
            else [kronecker_over_gf(), make_square_gf()])


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "F32003"])
def test_each_hom_basis_map_reads_as_its_unit_vector(field):
    """On every route, basis map i reads {i: 1} at the positions, the
    maps are those of hom_space, and `_composites` with an identity reads
    the same unit vectors."""
    from qtilt.repcore import _composites, _hom_basis
    seen = {}
    for alg in _position_algebras(field):
        for route, m, n in _hom_routes(alg):
            assert (m.proj_gens is not None) == (route == "free")
            maps, positions = _hom_basis(m, n)
            assert [f.blocks for f in maps] == [f.blocks for f in
                                                hom_space(m, n)]
            assert len(positions) == len(maps), route
            for i, f in enumerate(maps):
                assert _read(f, positions) == {i: 1}, route
            assert _composites([ModuleMap.identity(n)], maps, positions,
                               field) == {(0, i): {i: 1}
                                          for i in range(len(maps))}
            seen[route] = seen.get(route, 0) + len(maps)
    assert seen.pop("zero") == 0
    assert min(seen.values()) >= 2, seen


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "F32003"])
def test_positions_read_back_combinations_and_composites(field):
    """A seeded random combination of a Hom basis reads back its
    coefficients, and a composite g o f with g in End(n) reads the
    coordinates the one-solve oracle finds."""
    from qtilt.repcore import _composites, _hom_basis, linear_combination
    rnd = random.Random(17)
    checked = 0
    for alg in _position_algebras(field):
        for route, m, n in _hom_routes(alg):
            maps, positions = _hom_basis(m, n)
            if not maps:
                continue
            coeffs = {i: c for i in range(len(maps))
                      if (c := field.canon(rnd.randint(-5, 5)))}
            f = linear_combination(coeffs, maps)
            if f is None:
                continue
            assert _read(f, positions) == coeffs, route
            ends = hom_space(n, n)
            g = linear_combination(
                {i: field.canon(rnd.randint(-3, 3)) for i in range(len(ends))},
                ends) or ModuleMap.identity(n)
            want = express_all_in_basis(maps, [g * f])[0]
            got = _composites([g], [f], positions, field).get((0, 0), {})
            assert got == want, route
            checked += 1
    assert checked >= 8


def test_a_planted_wrong_position_fails_the_guard(monkeypatch, kron):
    """Swapped, rescaled or missing positions fail the guard, on a solved
    basis and on one out of a free module, which the guard reads at its
    generator images with no block built; and so do the Hom builder and
    the End table when a route plants them."""
    from qtilt import repcore
    m, n = random_module(kron, 0), random_module(kron, 5)
    real_blocks = repcore._image_blocks
    monkeypatch.setattr(repcore, "_image_blocks", lambda *a: pytest.fail(
        "the guard built the blocks of a map held by its images"))
    for source in (m, proj_sum(kron, ["2", "1", "2"])):
        maps, positions = repcore._hom_basis(source, n)
        assert len(maps) >= 2
        swapped = [positions[1], positions[0]] + positions[2:]
        (v, r, c, s), rest = positions[0], positions[1:]
        for bad in (swapped, [(v, r, c, 2 * s)] + rest, rest,
                    [(v, r, c, 0)] + rest):
            with pytest.raises(QtiltError, match="unit vector"):
                repcore._check_positions(maps, bad)
    monkeypatch.setattr(repcore, "_image_blocks", real_blocks)
    real = repcore._hom_generic

    def reversed_positions(a, b):
        got, pos = real(a, b)
        return got, pos[::-1]

    monkeypatch.setattr(repcore, "_hom_generic", reversed_positions)
    with pytest.raises(QtiltError, match="unit vector"):
        hom_space(m, n)
    with pytest.raises(QtiltError, match="unit vector"):
        repcore.endomorphism_blocks([m, n])


# --- dimension vectors -----------------------------------------------------------

def test_negative_dimension_is_refused(a3):
    with pytest.raises(QtiltError, match="negative dimension"):
        Representation(a3, {"3": -2}, {})
    with pytest.raises(QtiltError, match="negative dimension"):
        Representation(a3, {"1": 0, "2": -1}, {})


# --- projective covers built row by row, against the generator-image route

def _cover_targets(alg):
    """Seeded random modules and the simples of alg, and over Q each
    random module rescaled to Fraction entries."""
    out = [random_module(alg, seed) for seed in range(4)]
    if not alg.field.char:
        out += [with_fractions(m) for m in out]
    return out + [simple(alg, v) for v in alg.quiver.vertices]


def test_cover_matches_the_generator_image_route(corpus):
    """Every cover map, built row by row off the action rows of its
    target, equals the map out of its projective with the same generator
    images, block for block: read column by column through act_path on
    the six-algebra corpus, the two-loop algebra over Q and GF(32003), the
    square over GF(32003) and modules with Fraction entries, and by
    `proj_map_from_images` into free targets whose arrow matrices stay
    unbuilt."""
    from fractions import Fraction
    from qtilt.repcore import _image_blocks, _image_maps
    from oracles import proj_map_from_images
    from conftest import make_two_loop
    checked = fractions = free = 0
    for alg in [*corpus, make_two_loop(), make_two_loop(GF), make_square_gf()]:
        verts = alg.quiver.vertices
        for m in _cover_targets(alg):
            cover = projective_cover(m)
            want = _image_map_by_act_path(cover.source, m, cover.images)
            got = _image_blocks(cover.source, m, [cover.images])[0]
            assert got == want, (alg.name, m)
            checked += 1
            fractions += any(type(x) is Fraction for b in m.mats.values()
                             for row in b.sparse_rows for x in row.values())
        for gens in (tuple(verts), (verts[-1], verts[0], verts[-1])):
            # a free target: the cover of a fresh copy of its own cover
            top = projective_cover(proj_sum(alg, gens))
            target = proj_sum(alg, gens)
            got = _image_maps(top.source, target, [top.images])[0]
            want = proj_map_from_images(top.source, target, top.images)
            assert got.blocks == want.blocks and got.is_isomorphism()
            assert target._mats is None
            free += 1
    assert checked > 60 and fractions > 10 and free == 18
