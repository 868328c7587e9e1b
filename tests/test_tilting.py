"""Tilting checks, construction, certification, and tilt presentations."""

import functools

import pytest

from qtilt.errors import NotAdmissibleError, QtiltError
from qtilt.exactla import QQ, Matrix, Span
from qtilt.homengine import ext_dim, gldim, pd, tau_n_minus
from qtilt.quivercore import (abstract_radical,
                               primitive_orthogonal_idempotents)
from qtilt.repcore import (ModuleMap, cokernel_rep, decompose, direct_sum,
                           dual, endomorphism_algebra, endomorphism_blocks,
                           hom_space, inj, is_isomorphic, proj, proj_sum,
                           random_module, regular, simple)
from qtilt.tensorcon import tensor_algebras, tensor_modules
from qtilt.tilting import (_left_approximation, _radical_maps,
                           _radical_powers, apr_check, apr_cotilting_check,
                           bb_check, count_apr, endo_algebra, present_algebra,
                           verify_tilting)

from conftest import (arrow_count, dense, express_all_in_basis, make_a3,
                      make_kronecker)
from oracles import injective_cogenerator, regular_structure_algebra


# --- apr_check -----------------------------------------------------------------

def _tilting_module(report):
    """The direct sum of a report's summands, which `apr-tilt -o` writes."""
    return direct_sum([u for _, u in report.summands])


def test_apr_kronecker_vertex1(kron):
    rep = apr_check(kron, "1", 1)
    assert rep.simple_projective
    assert rep.weak and rep.full
    assert rep.injective_dimension == 1
    dims = sorted(r.dim_vector() for _, r in rep.summands)
    assert dims == [(2, 1), (3, 2)]
    assert _tilting_module(rep).dim_vector() == (5, 3)


def test_apr_kronecker_vertex2_fails(kron):
    rep = apr_check(kron, "2", 1)
    assert not rep.simple_projective
    assert not rep.weak
    assert rep.summands is None


def test_apr_tensor_square_corner(kron2):
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    assert rep.simple_projective
    assert rep.weak and rep.full
    assert rep.injective_dimension == 2
    translate = dict(rep.summands)[kron2.vertex("1", "1")]
    assert translate.dim_vector() == (9, 6, 6, 4)


def test_apr_transfer_to_tensor_product(kron2):
    # the product tilting module is the tensor of the factor translates
    # plus the non-corner projectives
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    p3 = tau_n_minus(proj(kron2.left, "1"), 1)
    tensor_part = tensor_modules(kron2, p3, p3)
    translate = dict(rep.summands)[kron2.vertex("1", "1")]
    assert is_isomorphic(translate, tensor_part)
    pieces = [tensor_part]
    for (u, v) in kron2.vertex_pairs():
        if (u, v) != ("1", "1"):
            pieces.append(tensor_modules(kron2, proj(kron2.left, u),
                                         proj(kron2.right, v)))
    expected = direct_sum(pieces)
    assert is_isomorphic(_tilting_module(rep), expected)


def test_apr_weak_transfer_a2_squared(a2xa2):
    factor = apr_check(a2xa2.left, "1", 1)
    assert factor.weak and factor.full
    combined = apr_check(a2xa2.algebra, a2xa2.vertex("1", "1"), 2)
    assert combined.weak and combined.full


# --- bb_check ------------------------------------------------------------------

def test_bb_contains_apr(kron):
    a = apr_check(kron, "1", 1)
    b = bb_check(kron, "1", 1)
    assert a.full and b.passes
    assert is_isomorphic(_tilting_module(a), _tilting_module(b))


def test_bb_kronecker_s2_fails(kron):
    rep = bb_check(kron, "2", 1)
    # the injective at 2 surjects onto S2, so Hom(cogenerator, S2) != 0
    assert rep.cogenerator_ext_dims[0][1] != 0
    assert not rep.passes


def test_bb_a2_conditions_match_direct_ext(a2):
    rep = bb_check(a2, "2", 1)
    cog = injective_cogenerator(a2)
    s = simple(a2, "2")
    assert rep.cogenerator_ext_dims == [(0, ext_dim(cog, s, 0))]
    assert rep.self_ext_dims == [(1, ext_dim(s, s, 1))]


def test_bb_transfer_tensor(a2xa2):
    # factor passes at the source vertex with n = 1; the product passes at
    # the corner with n = 2 and the module is the tensor of the factors;
    # gl.dim <= n on both sides, as the transfer needs
    f = bb_check(a2xa2.left, "1", 1)
    assert f.passes and gldim(a2xa2.left) <= 1
    combined = bb_check(a2xa2.algebra, a2xa2.vertex("1", "1"), 2)
    assert combined.passes and gldim(a2xa2.algebra) <= 2
    tensored = tensor_modules(
        a2xa2, dict(f.summands)["1"],
        dict(bb_check(a2xa2.right, "1", 1).summands)["1"])
    got = dict(combined.summands)[a2xa2.vertex("1", "1")]
    assert is_isomorphic(got, tensored)


# --- verify_tilting -------------------------------------------------------------

def _listed(report):
    """A report's labelled summands as `verify_tilting` takes them."""
    return [(u, 1) for _, u in report.summands]


def _coresolution(alg, reps):
    """The approximations of the coresolution of the regular module by
    the additive closure of reps, stage by stage as `verify_tilting`
    builds them, until a cokernel vanishes."""
    radical_maps = _radical_maps(reps)[0]
    x, maps = regular(alg), []
    while not x.is_zero():
        maps.append(_left_approximation(x, reps, radical_maps))
        x, _ = cokernel_rep(maps[-1])
    return maps


def test_regular_module_is_tilting_at_zero(kron):
    summands = decompose(regular(kron))
    cert = verify_tilting(kron, summands, 0)
    assert cert.passed
    assert cert.pd_value == 0
    assert cert.coresolution_length == 1
    fmap, = _coresolution(kron, [u for u, _ in summands])
    assert fmap.is_isomorphism()


def test_kronecker_translate_module_is_tilting(kron):
    rep = apr_check(kron, "1", 1)
    cert = verify_tilting(kron, _listed(rep), 1)
    assert cert.passed
    assert cert.pd_value == 1
    # classical two-term coresolution 0 -> A -> P2^3 -> P3 -> 0
    assert cert.coresolution_length == 2
    assert [f.target.dim_vector() for f in _coresolution(
        kron, [u for _, u in rep.summands])] == [(6, 3), (3, 2)]


def test_tensor_corner_module_is_tilting(kron2):
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    cert = verify_tilting(kron2.algebra, _listed(rep), 2)
    assert cert.passed


def test_non_tilting_module_fails(kron):
    cert = verify_tilting(kron, [(simple(kron, "1"), 1)], 1)
    assert not cert.passed


@pytest.mark.parametrize("planted, reason", [
    ("decomposable", "summand 1 has End/rad of dimension 2, not 1"),
    ("isomorphic pair", "summand 2 is isomorphic to summand 1")],
    ids=["decomposable", "isomorphic-pair"])
def test_verify_tilting_refuses_uncertified_summands(kron, planted, reason):
    """P1 + P2 passed as one summand, or P1 listed twice: T is still the
    tilting module A (or A + P1), but the summands are not pairwise
    non-isomorphic indecomposables, so the certificate fails at stage 0
    naming the summand, before any approximation."""
    p1, p2 = proj(kron, "1"), proj(kron, "2")
    summands = ([(direct_sum([p1, p2]), 1)] if planted == "decomposable"
                else [(p1, 1), (p1, 1), (p2, 1)])
    cert = verify_tilting(kron, summands, 1)
    assert cert.pd_ok and cert.self_ext_ok and not cert.passed
    assert (cert.failure_stage, cert.failure_reason) == (0, reason)
    assert cert.coresolution_length == 0
    assert f"verdict coresolution fail stage=0 {reason}" in \
        cert.verdict_lines()


def test_verify_tilting_decomposes_nothing(monkeypatch, kron2):
    """On an APR summand list verify_tilting never calls decompose, and
    builds End only of each summand, never of a module the size of T."""
    from qtilt import repcore, tilting
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)

    def refuse(m):
        raise AssertionError("verify_tilting decomposed a module")
    monkeypatch.setattr(repcore, "decompose", refuse)
    monkeypatch.setattr(tilting, "decompose", refuse)
    sizes = []
    real = repcore.endomorphism_blocks
    monkeypatch.setattr(repcore, "endomorphism_blocks", lambda ms: sizes.append(
        sum(m.total_dim() for m in ms)) or real(ms))
    cert = verify_tilting(kron2.algebra, _listed(rep), 2)
    assert cert.passed
    assert sorted(sizes) == sorted(u.total_dim() for _, u in rep.summands)
    assert max(sizes) < _tilting_module(rep).total_dim()


def test_minimal_approximation_of_projective_is_split(kron):
    rep = apr_check(kron, "1", 1)
    summands = [r for _, r in rep.summands]
    x = proj(kron, "2")
    fmap = _left_approximation(x, summands, _radical_maps(summands)[0])
    assert fmap.is_injective()
    assert fmap.target.dim_vector() == x.dim_vector()


def test_certificate_builds_each_summands_radical_once(monkeypatch, kron2):
    """A coresolution of two or more stages builds each summand's End
    algebra (for its radical maps) and each cross Hom basis once for the
    whole certificate, not once per stage."""
    from qtilt import tilting
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    ends, homs = [], []
    real_end, real_hom = tilting.endomorphism_algebra, tilting.hom_space
    monkeypatch.setattr(tilting, "endomorphism_algebra",
                        lambda u: ends.append(u) or real_end(u))
    monkeypatch.setattr(tilting, "hom_space",
                        lambda m, n: homs.append((m, n)) or real_hom(m, n))
    cert = verify_tilting(kron2.algebra, _listed(rep), 2)
    assert cert.passed and cert.coresolution_length >= 2
    k = len(rep.summands)
    assert len(ends) == len({id(u) for u in ends}) == k
    assert len(homs) == len({(id(m), id(n)) for m, n in homs}) == k * (k - 1)


# --- endo_algebra ----------------------------------------------------------------

def test_endo_of_regular_is_the_algebra(kron):
    labeled = [(v, proj(kron, v)) for v in kron.quiver.vertices]
    sca, data = endo_algebra(labeled)
    assert sca.dim == kron.dim
    reg = regular_structure_algebra(kron)
    assert len(abstract_radical(sca)) == len(abstract_radical(reg))


def test_endo_dimension_kronecker_tilt(kron):
    rep = apr_check(kron, "1", 1)
    sca, data = endo_algebra(rep.summands)
    assert sca.dim == 4
    assert len(abstract_radical(sca)) == 2


def test_endo_of_two_simples_semisimple(a2):
    sca, _ = endo_algebra([("1", simple(a2, "1")), ("2", simple(a2, "2"))])
    assert sca.dim == 2
    assert abstract_radical(sca) == []


def test_endo_basicizes_repeated_summands(kron):
    s = simple(kron, "1")
    total = direct_sum([s, s])
    sca, data = endo_algebra(total)
    assert data.basicized
    assert sca.dim == 1


@pytest.mark.parametrize("t", ["empty list", "zero module"])
def test_endo_of_nothing_is_a_typed_error(kron, t):
    from qtilt.repcore import zero_rep
    with pytest.raises(QtiltError, match="summand"):
        endo_algebra([] if t == "empty list" else zero_rep(kron))


# the tilt-present products, each with its sink and its n
_ENDO_POOL = {"a2^2": ("(1,1)", 2), "kron^2": ("(1,1)", 2),
              "a3^2": ("(1,1)", 2), "a2^3": ("((1,1),1)", 3),
              "kronxa2^2": ("((1,1),1)", 3), "kron^2xa2": ("((1,1),1)", 3)}


@functools.lru_cache(maxsize=None)
def _endo_oracle_pool():
    """`_tilt_pool` with kron^2(x)A2, built once for the End oracles."""
    from conftest import make_a2
    pool = _tilt_pool()
    pool["kron^2xa2"] = tensor_algebras(pool["kron^2"], make_a2()).algebra
    return pool


def _tilts(name):
    """The labelled summands of the APR tilt of a pool product at its
    sink, then of its BB tilt at every vertex where bb_check passes."""
    alg, (sink, n) = _endo_oracle_pool()[name], _ENDO_POOL[name]
    out = [apr_check(alg, sink, n).summands]
    for v in alg.quiver.vertices:
        bb = bb_check(alg, v, n)
        if bb.passes:
            out.append(bb.summands)
    return out


def _per_product_solves(modules, blocks):
    """The End table (sparse rows, nonzero cells, keys ascending) and
    identities of `endomorphism_blocks`, rebuilt with one solve per
    composite."""
    def express(i, j, f):
        pos = [p for p, (a, b, _) in enumerate(blocks) if (a, b) == (i, j)]
        coords = express_all_in_basis([blocks[p][2] for p in pos], [f])
        assert coords is not None
        return {pos[r]: c for r, c in coords[0].items()}

    table = [{y: cell for y, (i2, j2, f2) in enumerate(blocks)
              if j2 == i1 and (cell := express(i2, j1, f1 * f2))}
             for (i1, j1, f1) in blocks]
    return table, [express(k, k, ModuleMap.identity(u))
                   for k, u in enumerate(modules)]


def _checked_endo_blocks(modules):
    """`endomorphism_blocks`, after comparing it cell for cell with one
    solve per composite."""
    blocks, table, idents = endomorphism_blocks(modules)
    want_table, want_idents = _per_product_solves(modules, blocks)
    assert table == want_table
    assert all(list(row) == sorted(row) for row in table)
    assert idents == want_idents
    return table, idents


def test_endo_table_matches_per_product_solves():
    # oracle: one solve per composition, as in a plain reading of End on
    # the Hom-block basis; End(T)^op is its transpose
    for summands in [t for name in _ENDO_POOL for t in _tilts(name)]:
        table, idents = _checked_endo_blocks([u for _, u in summands])
        sca, data = endo_algebra(summands)
        assert data.idempotents == idents
        assert sca.unit == {p: c for e in idents for p, c in e.items()}
        for x in range(sca.dim):
            for y in range(sca.dim):
                assert sca.product({x: 1}, {y: 1}) == table[y].get(x, {})


def test_endo_of_free_module_with_repeated_generator_matches_solves():
    alg = _endo_oracle_pool()["kron^2"]
    m = proj_sum(alg, ["(1,2)", "(2,2)", "(1,2)"])
    table, (ident,) = _checked_endo_blocks([m])
    sca, _ = endomorphism_algebra(m)
    assert sca.unit == ident
    assert [{y: cell for y in range(sca.dim)
             if (cell := sca.product({x: 1}, {y: 1}))}
            for x in range(sca.dim)] == table


def _count_free_blocks(monkeypatch):
    """A list that grows by one each time the blocks of maps held by
    their generator images are built."""
    from qtilt import repcore
    builds, real = [], repcore._image_blocks
    monkeypatch.setattr(repcore, "_image_blocks",
                        lambda *a: builds.append(1) or real(*a))
    return builds


@pytest.mark.parametrize("field", ["Q", "F32003"])
def test_endo_mixing_free_and_solved_summands_matches_solves(field,
                                                            monkeypatch):
    """End of free and non-free modules together, through every route of
    a composite (out of a free summand, through one, or neither), matches
    one solve per composite cell for cell, over Q and GF(32003), and builds
    no block of a map out of a free module."""
    from conftest import make_square, make_square_gf
    from qtilt.exactla import PrimeField
    from qtilt.quivercore import Arrow, Quiver, build_algebra
    builds = _count_free_blocks(monkeypatch)
    if field == "Q":
        algebras = [_endo_oracle_pool()["kron^2"], make_square()]
    else:
        kron = build_algebra(Quiver(["1", "2"], [Arrow("a0", "2", "1"),
                                                 Arrow("a1", "2", "1")]),
                             [], PrimeField(32003), name="kron_gf")
        algebras = [tensor_algebras(kron, kron).algebra, make_square_gf()]
    for alg in algebras:
        verts = alg.quiver.vertices
        modules = [proj(alg, verts[0]), random_module(alg, 1),
                   proj_sum(alg, [verts[-1], verts[0], verts[-1]]),
                   random_module(alg, 2)]
        del builds[:]
        blocks, table, idents = endomorphism_blocks(modules)
        assert not builds, alg.name
        assert (table, idents) == _per_product_solves(modules, blocks)
        assert sum(map(len, table)) > 20, alg.name


def test_endo_of_the_kron2_tilt_builds_no_free_source_block(monkeypatch,
                                                           kron2):
    """End(T)^op of the APR tilt of kron^2 at its sink, three projective
    summands beside the translate, reads every composite through a
    projective summand off the action rows: no block of a map out of a
    free module is built."""
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    assert sum(u.proj_gens is not None for _, u in rep.summands) == 3
    builds = _count_free_blocks(monkeypatch)
    sca, data = endo_algebra(rep.summands)
    assert sca.dim > len(rep.summands) and not builds


# --- present_algebra --------------------------------------------------------------

def _all_pairs_powers(sca, rad):
    """Spans of rad, rad^2, ... down to the zero span, each power spanned
    by every row of the one before times every vector of rad."""
    powers = [Span(sca.field)]
    for vec in rad:
        powers[0].add(vec)
    while powers[-1]:
        nxt = Span(sca.field)
        for row in powers[-1].rows.values():
            for vec in rad:
                nxt.add(sca.product(row, vec))
        powers.append(nxt)
    return powers


def _assert_peirce_powers_match(sca, idems):
    rad = abstract_radical(sca)
    powers, corners = _radical_powers(sca, rad, idems)
    assert [p.rows for p in powers] == \
        [p.rows for p in _all_pairs_powers(sca, rad)]
    for e, corner in zip(idems, corners):
        span = Span(sca.field)
        for x in rad:
            span.add(sca.product(x, e))
        assert len(corner) == len(span)
        assert all(not span.reduce(c) for c in corner)


@pytest.mark.parametrize("name", list(_ENDO_POOL) + ["corpus"])
def test_radical_powers_through_peirce_pieces_match_all_pairs(name, corpus):
    if name == "corpus":
        # with the pool's products and the two-loop algebra, whose radical
        # powers reach rad^4 != 0
        from conftest import make_two_loop
        from qtilt.quivercore import Path
        pool = list(_endo_oracle_pool().values())
        for alg in corpus + pool + [make_two_loop()]:
            _assert_peirce_powers_match(
                regular_structure_algebra(alg),
                [{alg.basis_index(Path.trivial(v)): 1}
                 for v in alg.quiver.vertices])
        return
    for summands in _tilts(name):
        sca, data = endo_algebra(summands)
        _assert_peirce_powers_match(sca, data.idempotents)


@pytest.mark.parametrize("how, error", [
    ("off-diagonal", "idempotent 1 is not orthogonal to 0"),
    ("doubled", "idempotent 0 is not idempotent"),
    ("zero", "do not sum to the unit")])
def test_present_algebra_checks_its_idempotents(kron2, how, error):
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    sca, data = endo_algebra(rep.summands)
    idems = [dict(e) for e in data.idempotents]
    if how == "off-diagonal":
        # x, a map from summand 1 to summand 0, lies in e_1 End(T)^op e_0
        # and is radical: e_1 + x is still idempotent, but
        # (e_1 + x) e_0 = x
        blocks = endomorphism_blocks([u for _, u in rep.summands])[0]
        x = next(p for p, (i, j, _) in enumerate(blocks) if (i, j) == (1, 0))
        idems[1][x] = 1
    elif how == "doubled":
        idems[0] = {k: 2 * c for k, c in idems[0].items()}
    else:
        idems[0] = {}
    with pytest.raises(QtiltError, match=error):
        present_algebra(sca, idempotents=idems,
                        labels=[lbl for lbl, _ in data.summands])


def test_present_regular_kronecker(kron):
    labeled = [(v, proj(kron, v)) for v in kron.quiver.vertices]
    sca, data = endo_algebra(labeled)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[lbl for lbl, _ in data.summands])
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 2
    assert len(pres.relations) == 0
    # two parallel arrows: the double-arrow quiver again
    pairs = {(a.source, a.target) for a in pres.quiver.arrows}
    assert len(pairs) == 1


def test_present_kronecker_tilt_is_kronecker_shaped(kron):
    rep = apr_check(kron, "1", 1)
    sca, data = endo_algebra(rep.summands)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[lbl for lbl, _ in data.summands])
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 2
    assert len(pres.relations) == 0
    assert pres.dim == 4


def test_present_tensor_corner_tilt(kron2):
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    sca, data = endo_algebra(rep.summands)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[lbl for lbl, _ in data.summands])
    assert len(pres.quiver.vertices) == 4
    v11 = kron2.vertex("1", "1")
    v12 = kron2.vertex("1", "2")
    v21 = kron2.vertex("2", "1")
    v22 = kron2.vertex("2", "2")
    assert arrow_count(pres.quiver, v22, v12) == 2
    assert arrow_count(pres.quiver, v22, v21) == 2
    assert arrow_count(pres.quiver, v11, v22) == 4
    assert len(pres.quiver.arrows) == 8
    # quadratic relation space of dimension four
    quad = [r for r in pres.relations
            if r.min_degree() == 2 and r.max_degree() == 2]
    assert len(quad) == len(pres.relations) == 4
    assert pres.dim == sca.dim == 24


def test_present_relation_span_against_kernel_oracle(kron2):
    # oracle: the full degree-2 kernel of the surjection has dimension
    # (#paths) - dim(rad^2 block) per block; compare with the recorded
    # relation span block by block
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    sca, data = endo_algebra(rep.summands)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[lbl for lbl, _ in data.summands])
    from oracles import paths_of_degree
    by_block = {}
    for p in paths_of_degree(pres.quiver, 2):
        by_block.setdefault((p.source, p.target), []).append(p)
    total_kernel = 0
    for (src, tgt), paths in by_block.items():
        # image dimension = number of degree-2 basis paths in that block
        img = sum(1 for b in pres.basis
                  if b.degree == 2 and b.source == src and b.target == tgt)
        total_kernel += len(paths) - img
    assert total_kernel == 4
    rel_blocks = {}
    for r in pres.relations:
        rel_blocks.setdefault((r.source, r.target), []).append(r)
    assert sum(len(v) for v in rel_blocks.values()) == 4


def _presented(sca):
    """`present_algebra` on the algebra's primitive idempotents, vertex k
    labelled v{k+1}."""
    idems = primitive_orthogonal_idempotents(sca)
    return present_algebra(sca, idems,
                           [f"v{k + 1}" for k in range(len(idems))])


def test_present_semisimple(ss2):
    sca = regular_structure_algebra(ss2)
    pres = _presented(sca)
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 0
    assert pres.relations == ()


# --- cotilting --------------------------------------------------------------------

def test_cotilting_matches_opposite_check(kron):
    from qtilt.quivercore import opposite
    rep = apr_cotilting_check(kron, "2", 1)
    base = apr_check(opposite(kron), "2", 1, construct=False)
    assert rep.base.weak == base.weak
    assert rep.base.full == base.full


def test_cotilting_kronecker_vertex2(kron):
    # over the opposite algebra, vertex 2 carries the simple projective
    rep = apr_cotilting_check(kron, "2", 1)
    assert rep.base.weak and rep.base.full
    assert len(rep.summands) == 2
    translate = dict(rep.summands)["2"]
    # dual statement of the translate dimensions
    assert translate.dim_vector() == (2, 3)


def test_cotilting_builds_only_the_cotilting_module(kron):
    """The check over the opposite algebra gives verdicts only: no tilting
    module is built there, while the cotilting module's summands are."""
    rep = apr_cotilting_check(kron, "2", 1)
    assert rep.base.weak
    assert rep.base.summands is None
    assert tuple(map(sum, zip(*(u.dim_vector() for _, u in rep.summands)))
                 ) == (3, 5)


def test_cotilting_a2_sink(a2):
    rep = apr_cotilting_check(a2, "2", 1)
    base_exts = rep.base.ext_dims
    from qtilt.quivercore import opposite
    opp = opposite(a2)
    cog = injective_cogenerator(opp)
    assert base_exts == [(0, ext_dim(cog, proj(opp, "2"), 0))]


def _counted_resolutions(monkeypatch):
    """A list that records a weak reference to each minimal resolution
    made from now on."""
    import weakref
    from qtilt import homengine
    made = []
    init = homengine.MinimalResolution.__init__

    def counted(self, module):
        made.append(weakref.ref(self))
        init(self, module)
    monkeypatch.setattr(homengine.MinimalResolution, "__init__", counted)
    return made


def test_cotilting_resolves_each_injective_once(monkeypatch):
    """At the 27 vertices of A3^3 with n = 3 the checks make 27 minimal
    resolutions: the one weak pass reads tau_3(I_v) off the resolution of
    I_v = D P_v that its check over the opposite algebra made."""
    from conftest import make_a3
    a3 = make_a3()
    alg = tensor_algebras(tensor_algebras(a3, a3).algebra, a3).algebra
    made = _counted_resolutions(monkeypatch)
    reports = [apr_cotilting_check(alg, v, 3) for v in alg.quiver.vertices]
    assert len(reports) == len(made) == 27
    weak = [r for r in reports if r.base.weak]
    assert len(weak) == 1 and weak[0].summands is not None


# --- count_apr --------------------------------------------------------------------

def test_count_kronecker(kron):
    count, witnesses = count_apr(kron, 1)
    assert count == 1
    assert witnesses[0].vertex == "1"


def test_count_tensor_square(kron2):
    count, witnesses = count_apr(kron2.algebra, 2)
    assert count == 1
    assert witnesses[0].vertex == kron2.vertex("1", "1")


def test_count_semisimple(ss2):
    count, witnesses = count_apr(ss2, 1)
    assert count == 0


def test_count_builds_no_module(monkeypatch, kron, kron2, a3):
    """count_apr reports verdicts only: it never takes tau_n^-, and its
    count and witnesses are those of the constructing apr_check."""
    import qtilt.tilting as tilting
    a3sq = tensor_algebras(a3, a3)
    cases = [(kron, 1, ["1"]), (kron2.algebra, 2, [kron2.vertex("1", "1")]),
             (a3sq.algebra, 2, [a3sq.vertex("1", "1")])]
    fields = ("simple_projective", "ext_dims", "weak",
              "injective_dimension", "full")

    def refuse(*args, **kwargs):
        raise AssertionError("count_apr built a translate")
    for alg, n, want in cases:
        reference = [apr_check(alg, v, n) for v in alg.quiver.vertices
                     if proj(alg, v).total_dim() == 1]
        reference = [r for r in reference if r.full]
        monkeypatch.setattr(tilting, "tau_n_minus", refuse)
        count, witnesses = count_apr(alg, n)
        monkeypatch.undo()
        assert count == len(witnesses) == len(want)
        assert [w.vertex for w in witnesses] == want
        assert [r.vertex for r in reference] == want
        for got, ref in zip(witnesses, reference):
            assert ref.summands is not None
            assert got.summands is None
            assert all(getattr(got, k) == getattr(ref, k) for k in fields)


def test_count_builds_only_the_checked_projectives_matrices(monkeypatch):
    """count_apr reads whether P_v is simple off the algebra's block sizes:
    only the simple projectives it goes on to check get their arrow
    matrices built."""
    import qtilt.repcore as repcore
    kron = make_kronecker()
    kron2, a3sq = tensor_algebras(kron, kron), tensor_algebras(make_a3(),
                                                                make_a3())
    cases = [(kron, 1, "1"), (kron2.algebra, 2, kron2.vertex("1", "1")),
             (a3sq.algebra, 2, a3sq.vertex("1", "1"))]
    real = repcore._proj_arrow_mats
    for alg, n, sink in cases:
        built = []

        def counting(p, alg=alg, built=built):
            if p.algebra is alg:
                built.append(p.proj_gens)
            return real(p)
        monkeypatch.setattr(repcore, "_proj_arrow_mats", counting)
        count_apr(alg, n)
        monkeypatch.undo()
        assert [v for v in alg.quiver.vertices
                if proj_sum(alg, [v]).total_dim() == 1] == [sink]
        assert built == [(sink,)]


def test_count_witnesses_hold_no_resolution(monkeypatch, kron2):
    """The resolutions the checks made are freed when count_apr returns,
    though its witness reports live on."""
    made = _counted_resolutions(monkeypatch)
    count, witnesses = count_apr(kron2.algebra, 2)
    assert count == 1 and made
    assert witnesses[0].projective is None
    assert all(ref() is None for ref in made)



# --- the duality route against the cogenerator route ------------------------------

def _tilt_pool():
    """Fresh A2^2, kron^2, A3^2, A2^3 and kron(x)A2^2, so no cache is shared
    with other tests."""
    from conftest import make_a2, make_a3, make_kronecker

    def power(*factors):
        alg = factors[0]
        for right in factors[1:]:
            alg = tensor_algebras(alg, right).algebra
        return alg
    a2, a3, kron = make_a2(), make_a3(), make_kronecker()
    return {"a2^2": power(a2, a2), "kron^2": power(kron, kron),
            "a3^2": power(a3, a3), "a2^3": power(a2, a2, a2),
            "kronxa2^2": power(kron, a2, a2)}


def _cogenerator_route(alg, v, n):
    """The checks' numbers read straight off their definitions: Ext against
    the injective cogenerator DA, and the injective dimension as the last
    degree with Ext^i(S, P) != 0 for some simple S."""
    cog = injective_cogenerator(alg)
    p, s = proj(alg, v), simple(alg, v)
    simples = [simple(alg, u) for u in alg.quiver.vertices]
    top = gldim(alg)
    injd_p = max(i for i in range(top + 1)
                 if any(ext_dim(t, p, i) for t in simples))
    return {"apr_ext": [(i, ext_dim(cog, p, i)) for i in range(n)],
            "injd": injd_p,
            "bb_cog": [(i, ext_dim(cog, s, i)) for i in range(n)],
            "bb_self": [(i, ext_dim(s, s, i)) for i in range(1, n + 1)]}


def test_checks_match_the_cogenerator_route():
    """apr_check, bb_check and count_apr read Ext^i(DA, X) as Ext^i(DX, A^op)
    over the opposite algebra; the ext dims, verdicts and witnesses equal
    those of the definitions at every vertex, for n = 1..3."""
    passes = {"apr": 0, "bb": 0}
    for name, alg in _tilt_pool().items():
        for n in (1, 2, 3):
            want_witnesses = []
            for v in alg.quiver.vertices:
                ref = _cogenerator_route(alg, v, n)
                apr = apr_check(alg, v, n)
                simple_p = proj(alg, v).total_dim() == 1
                weak = simple_p and all(d == 0 for _, d in ref["apr_ext"])
                assert apr.simple_projective == simple_p
                assert apr.ext_dims == ref["apr_ext"], (name, v, n)
                assert apr.injective_dimension == ref["injd"], (name, v, n)
                assert apr.weak == weak
                assert apr.full == (weak and ref["injd"] == n)
                if apr.full:
                    want_witnesses.append(v)
                bb = bb_check(alg, v, n)
                assert bb.cogenerator_ext_dims == ref["bb_cog"], (name, v, n)
                assert bb.self_ext_dims == ref["bb_self"], (name, v, n)
                assert bb.passes == all(
                    d == 0 for _, d in ref["bb_cog"] + ref["bb_self"])
                passes["apr"] += apr.full
                passes["bb"] += bb.passes
            count, witnesses = count_apr(alg, n)
            assert count == len(want_witnesses)
            assert [w.vertex for w in witnesses] == want_witnesses
    assert passes["apr"] and passes["bb"]


def test_checks_resolve_only_the_dual_of_the_candidate(monkeypatch):
    """No check resolves the injective cogenerator DA: no module a
    resolution is built on in apr_check, bb_check or count_apr has DA's
    dimension vector over the algebra.  apr_check builds one minimal
    resolution, that of D P_v over the opposite algebra, which serves Ext,
    the injective dimension and tau_n^-."""
    from qtilt import homengine
    made = []
    init = homengine.MinimalResolution.__init__

    def counted(self, module):
        made.append(module)
        init(self, module)
    monkeypatch.setattr(homengine.MinimalResolution, "__init__", counted)
    pool = _tilt_pool()
    for name, alg, v, n in [("kron^2", pool["kron^2"], "(1,1)", 2),
                            ("a2^3", pool["a2^3"], "((1,1),1)", 3),
                            ("a3^2", pool["a3^2"], "(2,2)", 2)]:
        made.clear()
        report = apr_check(alg, v, n)
        # proj returns a fresh module, so D P_v is compared by its data
        want = dual(proj(alg, v))
        assert [(r.algebra, r.dims, r.mats) for r in made] == [
            (want.algebra, want.dims, want.mats)], name
        assert report.weak == (name != "a3^2")
        assert report.weak == (report.summands is not None)
        bb_check(alg, v, n)
        count_apr(alg, n)
        da = injective_cogenerator(alg).dim_vector()
        assert not [r for r in made if r.algebra is alg
                    and r.dim_vector() == da], name


def test_presentation_cartan_data_round_trip(kron2):
    # dim e_i A e_j of the presented algebra matches the abstract blocks
    rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
    sca, data = endo_algebra(rep.summands)
    idems = data.idempotents
    alg = present_algebra(sca, idempotents=idems,
                          labels=[l for l, _ in data.summands])
    for i, li in enumerate(alg.quiver.vertices):
        for j, lj in enumerate(alg.quiver.vertices):
            abstract_block = [sca.product(idems[j], sca.product({k: 1},
                                                                idems[i]))
                              for k in range(sca.dim)]
            rank = Matrix(QQ, [dense(v, sca.dim)
                               for v in abstract_block]).rank()
            assert len(alg.block_indices(li, lj)) == rank


def _two_loop_regular_algebra():
    """The regular algebra of k<x,y>/(xy, yx, x^2 - y^3), whose
    presentation needs the inhomogeneous relation x^2 - y^3."""
    from conftest import make_two_loop
    return regular_structure_algebra(make_two_loop())


def test_presented_relations_generate_the_ideal_but_need_not_be_minimal():
    """What `present_algebra` promises: the relations give back the
    algebra, and each lies outside the span of the arrow multiples of the
    relations before it up to its own top degree.  For the two-loop
    algebra one of them still lies in the ideal of the others."""
    from qtilt.quivercore import IdealClosure, build_algebra
    pres = _presented(_two_loop_regular_algebra())
    rels = pres.relations

    def vec(rel):
        return {p: c for c, p in rel.terms}

    for k, rel in enumerate(rels):
        closure = IdealClosure(QQ, pres.quiver, [vec(r) for r in rels[:k]])
        closure.raise_cap(rel.max_degree())
        assert closure.span.reduce(vec(rel)), rel
    redundant = []
    for r in rels:
        try:
            dim = build_algebra(pres.quiver, [s for s in rels if s is not r],
                                QQ, maxdeg=pres.maxdeg).dim
        except NotAdmissibleError:
            continue
        if dim == pres.dim:
            redundant.append(repr(r))
    assert redundant == ["1 a0_0_0*a0_0_0*a0_0_0"]


@pytest.mark.parametrize("which", ["kron2_tilt", "two_loops"])
def test_present_algebra_extends_one_ideal_closure(monkeypatch, kron2, which):
    from qtilt import quivercore
    from qtilt.quivercore import build_algebra
    if which == "kron2_tilt":
        rep = apr_check(kron2.algebra, kron2.vertex("1", "1"), 2)
        sca, data = endo_algebra(rep.summands)
        idems = data.idempotents
    else:
        sca = _two_loop_regular_algebra()
        idems = primitive_orthogonal_idempotents(sca)
    made = []
    init = quivercore.IdealClosure.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quivercore.IdealClosure, "__init__", counted)
    pres = present_algebra(sca, idempotents=idems,
                           labels=[f"v{k + 1}" for k in range(len(idems))])
    in_present = len(made)
    made.clear()
    round_trip = build_algebra(pres.quiver, pres.relations, QQ,
                               maxdeg=pres.maxdeg)
    assert round_trip.dim == pres.dim == sca.dim
    # the presented algebra reads its basis off the closure that found its
    # relations, and an inhomogeneous one closes once more modulo rad^top,
    # as `build_algebra` does
    assert in_present == len(made) == (1 if which == "kron2_tilt" else 2)


def _canonical_sparse(x, dim):
    """Whether x is a dict basis index -> nonzero canonical rational."""
    from fractions import Fraction
    return isinstance(x, dict) and all(
        type(k) is int and 0 <= k < dim and c != 0
        and (type(c) is int or type(c) is Fraction and c.denominator != 1)
        for k, c in x.items())


@pytest.mark.parametrize("name", ["kron2", "a3xkron", "twoloop"])
def test_abstract_algebra_elements_are_canonical_sparse_dicts(name):
    from conftest import make_a3, make_kronecker, make_two_loop
    from qtilt.quivercore import primitive_orthogonal_idempotents
    kron = make_kronecker()
    alg = {"kron2": lambda: tensor_algebras(kron, kron).algebra,
           "a3xkron": lambda: tensor_algebras(make_a3(), kron).algebra,
           "twoloop": make_two_loop}[name]()
    sca, data = endo_algebra([(v, proj(alg, v)) for v in alg.quiver.vertices])
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[l for l, _ in data.summands])
    reg = regular_structure_algebra(alg)
    for a in (sca, reg):
        idems = primitive_orthogonal_idempotents(a)
        assert len(idems) == len(alg.quiver.vertices)
        for x in [a.unit] + abstract_radical(a) + idems:
            assert _canonical_sparse(x, a.dim), x
    # the arrow images lie among the Peirce pieces e rad f
    rad = abstract_radical(sca)
    for x in data.idempotents + [sca.product(e, sca.product(r, f))
                                 for e in data.idempotents
                                 for f in data.idempotents for r in rad]:
        assert _canonical_sparse(x, sca.dim), x
    assert len(pres.quiver.arrows) == len(alg.quiver.arrows)
