"""Bound quiver algebras: basis computation, products, radicals, idempotents."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtilt import quivercore
from qtilt.errors import NonSplitError, NotAdmissibleError, QtiltError
from qtilt.exactla import Matrix, PrimeField, QQ
from qtilt.quivercore import (Arrow, Path, PathSum, Quiver, StructureConstantAlgebra,
                              abstract_radical, build_algebra,
                              minimal_polynomial, opposite,
                              poly_mul, primitive_orthogonal_idempotents,
                              semisimple_and_basic_flags, split_rational_root)

from conftest import (dense, make_a3, make_a3_nilpotent, make_kronecker,
                      make_square, make_two_loop, op_element)
from oracles import (regular_structure_algebra, sparse_element,
                     structure_algebra, vstack)


# --- independent oracles ------------------------------------------------------

def span_dimension(vectors, positions):
    """Rank of a list of dict-vectors by plain Gaussian elimination."""
    idx = {p: i for i, p in enumerate(positions)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(positions)
        for p, c in v.items():
            row[idx[p]] = Fraction(c)
        rows.append(row)
    rank = 0
    for c in range(len(positions)):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def enumerate_paths(quiver, degree):
    """All paths of the given length as print-order arrow-name tuples
    (leftmost applied last) with endpoints."""
    if degree == 0:
        return [((), v, v) for v in quiver.vertices]
    out = []
    def extend(names, source, target, left):
        if left == 0:
            out.append((tuple(reversed(names)), source, target))
            return
        for a in quiver.arrows:
            if a.source == target:
                extend(names + [a.name], source, a.target, left - 1)
    for a in quiver.arrows:
        extend([a.name], a.source, a.target, degree - 1)
    return out


def tensor_square_quiver():
    """The four-vertex quiver with doubled arrows and the four
    commutativity relations, built by hand."""
    q = Quiver(["11", "12", "21", "22"],
               [Arrow("x1", "12", "11"), Arrow("y1", "12", "11"),
                Arrow("x2", "22", "12"), Arrow("y2", "22", "12"),
                Arrow("x3", "21", "11"), Arrow("y3", "21", "11"),
                Arrow("x4", "22", "21"), Arrow("y4", "22", "21")])
    rels = []
    # (horizontal after vertical) agrees with (vertical after horizontal)
    for top, bottom in (("x1", "x2"), ("x1", "y2"), ("y1", "x2"), ("y1", "y2")):
        other = {"x1": "x4", "y1": "y4"}[top]
        second = {"x2": "x3", "y2": "y3"}[bottom]
        rels.append(PathSum(QQ, [(1, Path.of(q, [top, bottom])),
                                 (-1, Path.of(q, [second, other]))]))
    return q, rels


# --- build_algebra ------------------------------------------------------------

def test_kronecker_build(kron):
    assert kron.dim == 4
    assert kron.nilpotency == 2
    names = {(p.arrows, p.source) for p in kron.basis}
    assert names == {((), "1"), ((), "2"), (("a0",), "2"), (("a1",), "2")}


def test_a2_build(a2):
    assert a2.dim == 3
    assert a2.nilpotency == 2


def test_tensor_square_dimension_against_path_oracle():
    q, rels = tensor_square_quiver()
    alg = build_algebra(q, rels, QQ, name="gamma")
    # oracle: degreewise path count minus the rank of the relation span
    deg2 = enumerate_paths(q, 2)
    rel_vectors = [{(tuple(p.arrows), p.source): c for c, p in r.terms}
                   for r in rels]
    positions = [(names, src) for names, src, _ in deg2]
    ideal_rank = span_dimension(rel_vectors, positions)
    expected = len(enumerate_paths(q, 0)) + len(enumerate_paths(q, 1)) \
        + len(deg2) - ideal_rank
    assert len(enumerate_paths(q, 3)) == 0
    assert alg.dim == expected == 16
    assert alg.nilpotency == 3
    assert alg.dims_by_degree() == [4, 8, 4]


def test_not_admissible_detected():
    q = Quiver(["1"], [Arrow("x", "1", "1")])
    with pytest.raises(NotAdmissibleError):
        build_algebra(q, [], QQ, maxdeg=10)


def test_inhomogeneous_relations_filtered_build():
    # x^2 = x^3 and x^4 = 0 force x^2 = 0, a two-dimensional quotient
    q = Quiver(["1"], [Arrow("x", "1", "1")])
    x = lambda k: Path.of(q, ["x"] * k)
    rels = [PathSum(QQ, [(1, x(2)), (-1, x(3))]),
            PathSum(QQ, [(1, x(4))])]
    alg = build_algebra(q, rels, QQ, name="inhom")
    assert alg.dim == 2
    assert alg.nilpotency == 2
    xe = alg.normal_form(x(1))
    assert alg.product(xe, xe) == {}


def test_prime_field_build():
    q = Quiver(["1", "2"], [Arrow("a0", "2", "1"), Arrow("a1", "2", "1")])
    f5 = PrimeField(5)
    alg = build_algebra(q, [], f5, name="kron5")
    assert alg.dim == 4
    e2 = alg.idempotent("2")
    a0 = alg.normal_form(Path.of(q, ["a0"]))
    assert alg.product(a0, e2) == a0


# --- multiplication -----------------------------------------------------------

def test_multiply_idempotents(kron):
    e1 = kron.idempotent("1")
    assert kron.product(e1, e1) == e1


def test_multiply_path_composition(kron):
    a0 = kron.normal_form(Path.of(kron.quiver, ["a0"]))
    e2 = kron.idempotent("2")
    assert kron.product(a0, e2) == a0
    assert kron.product(e2, a0) == {}


def test_multiply_associative_random_triples(square):
    rnd = random.Random(23)
    dim = square.dim
    for _ in range(100):
        x = dict(enumerate(rnd.randint(-2, 2) for _ in range(dim)))
        y = dict(enumerate(rnd.randint(-2, 2) for _ in range(dim)))
        z = dict(enumerate(rnd.randint(-2, 2) for _ in range(dim)))
        assert square.product(square.product(x, y), z) == \
            square.product(x, square.product(y, z))


def test_unit_and_idempotent_sum(kron):
    one = kron.unit
    total = {}
    for v in kron.quiver.vertices:
        e = kron.idempotent(v)
        total = {k: total.get(k, 0) + e.get(k, 0) for k in {*total, *e}}
        assert kron.product(e, e) == e
    assert {k: QQ.canon(c) for k, c in total.items()} == one
    e1, e2 = kron.idempotent("1"), kron.idempotent("2")
    assert kron.product(e1, e2) == {}


def test_block_dimension_sum(square):
    total = 0
    for u in square.quiver.vertices:
        for v in square.quiver.vertices:
            total += len(square.block_indices(u, v))
    assert total == square.dim


# --- opposite -----------------------------------------------------------------

def test_opposite_involution(kron):
    opp = opposite(kron)
    assert opposite(opp) is kron
    assert opp.dim == kron.dim
    assert all(a.source == "1" and a.target == "2" for a in opp.quiver.arrows)


def test_opposite_block_transport(square):
    opp = opposite(square)
    for u in square.quiver.vertices:
        for v in square.quiver.vertices:
            assert len(square.block_indices(u, v)) == \
                len(opp.block_indices(v, u))


def test_op_element_antihomomorphism(square):
    rnd = random.Random(5)
    for _ in range(20):
        x = dict(enumerate(rnd.randint(-2, 2) for _ in range(square.dim)))
        y = dict(enumerate(rnd.randint(-2, 2) for _ in range(square.dim)))
        lhs = op_element(square, square.product(x, y))
        opp = opposite(square)
        rhs = opp.product(op_element(square, y), op_element(square, x))
        assert lhs == rhs
        assert list(lhs) == sorted(lhs)


# --- radicals -----------------------------------------------------------------

def test_radical_kronecker(kron):
    assert len(kron.radical_indices()) == 2


def test_radical_tensor_square():
    q, rels = tensor_square_quiver()
    alg = build_algebra(q, rels, QQ)
    assert len(alg.radical_indices()) == 12


def test_radical_semisimple(ss2):
    assert ss2.radical_indices() == []


def test_abstract_radical_semisimple(ss2):
    sca = regular_structure_algebra(ss2)
    assert abstract_radical(sca) == []


def test_abstract_radical_matches_graded_radical(kron):
    sca = regular_structure_algebra(kron)
    rad = abstract_radical(sca)
    assert len(rad) == len(kron.radical_indices()) == 2
    graded = Matrix(QQ, [dense({i: 1}, kron.dim)
                         for i in kron.radical_indices()])
    for v in rad:
        stacked = vstack([graded, Matrix(QQ, [dense(v, sca.dim)])])
        assert stacked.rank() == graded.rank()


def upper_triangular_2x2():
    """Basis e11, e22, e12 of upper triangular 2x2 matrices."""
    z = (0, 0, 0)
    table = [
        [(1, 0, 0), z, (0, 0, 1)],     # e11 * (e11, e22, e12)
        [z, (0, 1, 0), z],             # e22 * ...
        [z, (0, 0, 1), z],             # e12 * ...
    ]
    return structure_algebra(QQ, table, (1, 1, 0))


def test_abstract_radical_upper_triangular():
    a = upper_triangular_2x2()
    rad = abstract_radical(a)
    # oracle: span of e12 is a nilpotent two-sided ideal with semisimple
    # quotient, hence is the radical
    e12 = {2: 1}
    assert dense(a.product(e12, e12), 3) == (0, 0, 0)
    for k in range(3):
        b = {k: 1}
        for prod in (a.product(b, e12), a.product(e12, b)):
            assert dense(prod, 3)[0] == 0 and dense(prod, 3)[1] == 0
    assert len(rad) == 1
    assert dense(rad[0], 3) == (0, 0, 1)


# --- sparse structure constants -----------------------------------------------

GF = PrimeField(32003)


def square_over_gf():
    """The commutative square over GF(32003); its relation p*f - q*g puts
    the residue p - 1 into the structure constants."""
    q = Quiver(["11", "12", "21", "22"],
               [Arrow("f", "22", "12"), Arrow("g", "22", "21"),
                Arrow("p", "12", "11"), Arrow("q", "21", "11")])
    rel = PathSum(GF, [(1, Path.of(q, ["p", "f"])),
                       (-1, Path.of(q, ["q", "g"]))])
    return build_algebra(q, [rel], GF, name="square_gf")


def tensor_of(a, b):
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(a, b).algebra


REGULAR = {}


def regular_pair(name):
    """(bound quiver algebra, its regular structure constant algebra)."""
    if name not in REGULAR:
        alg = {"kron": make_kronecker, "a3": make_a3,
               "a3nil": make_a3_nilpotent, "square_gf": square_over_gf,
               "kron2": lambda: tensor_of(make_kronecker(), make_kronecker()),
               "kron_a3": lambda: tensor_of(make_kronecker(), make_a3()),
               }[name]()
        REGULAR[name] = (alg, regular_structure_algebra(alg))
    return REGULAR[name]


def triple_loop_product(alg, x, y):
    """Oracle: x * y from the path algebra's basis products, dense."""
    acc = [0] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k, c in alg.basis_product(i, j):
                acc[k] += x[i] * y[j] * c
    return tuple(alg.field.canon(v) for v in acc)


def field_entries(field):
    if field.char:
        return st.sampled_from([0, 0, 0, 1, 2, 16001, field.char - 1])
    return st.sampled_from([0, 0, 0]) | st.fractions(
        -3, 3, max_denominator=3).map(QQ.canon)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_mult_matches_triple_loop(data):
    name = data.draw(st.sampled_from(["kron", "a3", "a3nil", "kron2",
                                      "square_gf"]))
    alg, sca = regular_pair(name)
    entries = field_entries(alg.field)
    x = data.draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))
    y = data.draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))
    want = triple_loop_product(alg, x, y)
    sx, sy = sparse_element(sca.field, x), sparse_element(sca.field, y)
    assert dense(sca.product(sx, sy), alg.dim) == want
    assert sca.product(sx, sy) == \
        {k: c for k, c in enumerate(want) if c}
    # only nonzero cells and nonzero entries are stored
    assert all(cell and all(cell.values())
               for row in sca.cells for cell in row.values())


def dense_table(sca):
    e = [{i: 1} for i in range(sca.dim)]
    return [[dense(sca.product(a, b), sca.dim) for b in e] for a in e]


def sparse_cells(table):
    """The sparse rows of a dense table: each nonzero cell as a dict."""
    return [{j: {k: c for k, c in enumerate(cell) if c}
             for j, cell in enumerate(row) if any(cell)} for row in table]


def sampled_triples(n):
    """500 seeded random basis triples, as a sampled associativity check
    reads them."""
    rnd = random.Random(0)
    return [(rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
            for _ in range(500)]


def table_product(table, x, y):
    n = len(table)
    acc = [0] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc[k] += x[i] * y[j] * table[i][j][k]
    return tuple(QQ.canon(v) for v in acc)


def cells_product(cells, x, y):
    """Oracle: x * y for dict elements, straight off the sparse cells."""
    acc = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in cells[i].get(j, {}).items():
                acc[k] = acc.get(k, 0) + xi * yj * c
    return {k: QQ.canon(c) for k, c in acc.items() if c}


def failing_triples(cells):
    """Every basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), by
    a loop over all n^3 of them."""
    n = len(cells)
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if cells_product(cells, cells[i].get(j, {}), {k: 1})
            != cells_product(cells, {i: 1}, cells[j].get(k, {}))]


@pytest.mark.parametrize("name", ["kron2", "kron_a3"])
def test_validate_rejects_ragged_table_and_broken_unit(name):
    """Keys past the table, in a row, a cell or the unit, and a unit that
    fails the unit law are refused."""
    alg, sca = regular_pair(name)
    n = sca.dim
    assert (n <= 16) == (name == "kron2")
    cells = sparse_cells(dense_table(sca))
    StructureConstantAlgebra(QQ, cells, sca.unit)
    j = next(iter(cells[0]))
    for bad in (cells[:-1],
                [{**cells[0], n: {0: 1}}] + cells[1:],
                [{**cells[0], j: {**cells[0][j], -1: 1}}] + cells[1:],
                [{**cells[0], j: {n: 1}}] + cells[1:]):
        with pytest.raises(QtiltError, match="out of range"):
            StructureConstantAlgebra(QQ, bad, sca.unit)
    with pytest.raises(QtiltError, match="out of range"):
        StructureConstantAlgebra(QQ, cells, {**sca.unit, n: 1})
    with pytest.raises(QtiltError, match="unit law"):
        StructureConstantAlgebra(QQ, cells, {0: 1})


@pytest.mark.parametrize("name", ["kron2", "kron_a3"])
def test_validate_finds_a_planted_associativity_defect(name):
    alg, sca = regular_pair(name)
    n = sca.dim
    radical = set(alg.radical_indices())
    # every basis triple is checked, in every dimension
    checked = [(i, j, k) for i in range(n) for j in range(n)
               for k in range(n)]
    i, j, k = next(t for t in checked if radical.issuperset(t))
    e = [dense({m: 1}, n) for m in range(n)]
    # e_i * e_j gains e_l, an idempotent with e_l * e_k != 0: the unit law
    # still holds, since i and j lie in the radical, but (e_i e_j) e_k moves
    l = next(m for m in range(n)
             if m not in radical and any(dense(sca.product({m: 1}, {k: 1}),
                                               n)))
    table = dense_table(sca)
    table[i][j] = tuple(c + (m == l) for m, c in enumerate(table[i][j]))
    unit = dense(sca.unit, n)
    assert all(table_product(table, unit, b) == b
               == table_product(table, b, unit) for b in e)
    assert table_product(table, table[i][j], e[k]) != \
        table_product(table, e[i], table[j][k])
    with pytest.raises(QtiltError, match="associativity"):
        StructureConstantAlgebra(QQ, sparse_cells(table), sca.unit)


def test_validate_finds_a_defect_off_any_sample():
    """A defect in dimension 24 whose every failing triple lies outside
    the 500 seeded samples is still found: the check reads every triple
    where either side can be nonzero."""
    alg, sca = regular_pair("kron_a3")
    n = sca.dim
    assert n > 16
    samples = set(sampled_triples(n))
    radical = alg.radical_indices()
    idempotents = [m for m in range(n) if m not in radical]
    for i, j, l in ((i, j, l) for i in radical for j in radical
                    for l in idempotents):
        cells = sparse_cells(dense_table(sca))
        cells[i][j] = {**cells[i].get(j, {})}
        cells[i][j][l] = cells[i][j].get(l, 0) + 1
        failing = failing_triples(cells)
        if failing and samples.isdisjoint(failing):
            break
    else:
        pytest.fail("no defect avoids the samples")
    assert all(cells_product(cells, sca.unit, {m: 1}) == {m: 1}
               == cells_product(cells, {m: 1}, sca.unit) for m in range(n))
    with pytest.raises(QtiltError, match="associativity") as info:
        StructureConstantAlgebra(QQ, cells, sca.unit)
    assert f"triple {min(failing)}".replace(" ", "") in \
        str(info.value).replace(" ", "")


@st.composite
def incidence_tables(draw):
    """(cells, unit) of the incidence algebra of a random poset on at most
    four points, on a shuffled basis of dimension at most 8, with up to two
    cells redrawn among the products of non-identity basis elements, so
    the unit law holds and associativity may fail."""
    m = draw(st.integers(1, 4))
    less = {(a, b) for a in range(m) for b in range(a + 1, m)
            if draw(st.booleans())}
    while True:     # transitive closure
        more = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not more:
            break
        less |= more
    pairs = [(a, a) for a in range(m)] + sorted(less)
    assume(len(pairs) <= 8)
    pairs = draw(st.permutations(pairs))
    at = {p: x for x, p in enumerate(pairs)}
    cells = [{y: {at[a, d]: 1} for y, (c, d) in enumerate(pairs) if b == c}
             for a, b in pairs]
    off = [x for x, (a, b) in enumerate(pairs) if a != b]
    if off:
        entries = st.dictionaries(st.integers(0, len(pairs) - 1),
                                  st.sampled_from([-1, 1, 2]), max_size=2)
        for x, y, cell in draw(st.lists(st.tuples(
                st.sampled_from(off), st.sampled_from(off), entries),
                max_size=2)):
            cells[x].pop(y, None)
            if cell:
                cells[x][y] = cell
    cells = [dict(sorted(row.items())) for row in cells]
    return cells, {at[a, a]: 1 for a in range(m)}


@settings(max_examples=200, deadline=None)
@given(incidence_tables())
def test_validate_raises_exactly_on_a_failing_triple(table):
    cells, unit = table
    failing = failing_triples(cells)
    if not failing:
        StructureConstantAlgebra(QQ, cells, unit)
        return
    with pytest.raises(QtiltError, match="associativity") as info:
        StructureConstantAlgebra(QQ, cells, unit)
    assert str(info.value).endswith("triple ({},{},{})".format(
        *min(failing)))


def test_non_idempotent_lift_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(quivercore, "lift_idempotent",
                        lambda a, x: {k: 2 * c for k, c in x.items()})
    with pytest.raises(QtiltError, match="not idempotent"):
        primitive_orthogonal_idempotents(upper_triangular_2x2())


def test_non_idempotent_quotient_split_raises_before_lifting(monkeypatch):
    # the Newton lift of 2 * unit would never return: its entries grow
    # doubly exponentially, so the quotient check must come first
    def doubled(bar):
        u = bar.unit
        return [{k: 2 * c for k, c in u.items()}, {k: -c for k, c in u.items()}]

    def refuse(a, x):
        raise AssertionError("lift_idempotent ran on a non-idempotent")

    monkeypatch.setattr(quivercore, "_split_semisimple", doubled)
    monkeypatch.setattr(quivercore, "lift_idempotent", refuse)
    with pytest.raises(QtiltError, match="idempotent 0 is not idempotent"):
        primitive_orthogonal_idempotents(upper_triangular_2x2())


# --- flags --------------------------------------------------------------------

def test_flags(kron, ss2):
    assert semisimple_and_basic_flags(kron) == (False, True)
    assert semisimple_and_basic_flags(ss2) == (True, True)


def test_flags_tensor_square():
    q, rels = tensor_square_quiver()
    alg = build_algebra(q, rels, QQ)
    assert semisimple_and_basic_flags(alg) == (False, True)


def test_radical_dimension_formula_for_tensor_square(kron):
    # rad dimension of the doubled-arrow square equals
    # r*d + d*r - r*r for the factor data (r=2, d=4)
    q, rels = tensor_square_quiver()
    alg = build_algebra(q, rels, QQ)
    r, d = 2, 4
    assert len(alg.radical_indices()) == r * d + d * r - r * r


# --- minimal polynomials and idempotents --------------------------------------

def test_minimal_polynomial_idempotent():
    a = upper_triangular_2x2()
    mu = minimal_polynomial(a, {0: 1})
    # t^2 - t
    assert mu == [0, -1, 1]


def test_primitive_idempotents_upper_triangular():
    a = upper_triangular_2x2()
    idems = primitive_orthogonal_idempotents(a)
    assert len(idems) == 2
    total = tuple(QQ.canon(x + y)
                  for x, y in zip(*(dense(e, a.dim) for e in idems)))
    assert total == dense(a.unit, a.dim)
    for e in idems:
        assert a.product(e, e) == e


def test_primitive_idempotents_regular_kronecker(kron):
    sca = regular_structure_algebra(kron)
    idems = primitive_orthogonal_idempotents(sca)
    assert len(idems) == 2


def test_non_split_quotient_rejected():
    # Q[i]: basis 1, i with i^2 = -1; a field, but not split over Q
    table = [
        [(1, 0), (0, 1)],
        [(0, 1), (-1, 0)],
    ]
    a = structure_algebra(QQ, table, (1, 0))
    assert abstract_radical(a) == []
    with pytest.raises(NonSplitError):
        # the quotient is a 2-dimensional field extension; splitting must
        # fail with an explicit error rather than a wrong decomposition
        from qtilt.quivercore import _split_semisimple
        _split_semisimple(a)


def sympy_split(mu):
    """Oracle for split_rational_root: sympy's monic irreducible factors
    sorted by (length, coefficient strings), so a linear factor with the
    least str(-root) comes first; f is its full power, g the rest."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(mu))
    factors = []
    for fac, mult in sympy.factor_list(expr, t)[1]:
        cs = [Fraction(str(c))
              for c in reversed(sympy.Poly(fac, t).all_coeffs())]
        factors.append(([c / cs[-1] for c in cs], int(mult)))
    factors.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
    if len(factors[0][0]) != 2:
        return None
    f, g = [Fraction(1)], [Fraction(1)]
    for k, (fac, mult) in enumerate(factors):
        for _ in range(mult):
            if k == 0:
                f = poly_mul(f, fac)
            else:
                g = poly_mul(g, fac)
    return f, g


roots = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4),
                           st.integers(1, 3)), min_size=1, max_size=3)
irreducible = st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, 1, 1],
                               [-2, 0, 0, 1]])


@settings(max_examples=60, deadline=None)
@given(roots, irreducible)
def test_split_rational_root_matches_sympy_factor_list(linear, rest):
    # integer polynomial prod (q t - p)^m * rest, made monic
    poly = [Fraction(c) for c in rest]
    for num, den, mult in linear:
        for _ in range(mult):
            poly = poly_mul(poly, [-num, den])
    mu = [c / poly[-1] for c in poly]
    assert split_rational_root(mu) == sympy_split(mu)


def test_split_rational_root_without_rational_roots():
    assert split_rational_root([1, 0, 1]) is None
    # (t^2 - 2)(t^2 - 3): reducible, but no rational root
    assert split_rational_root(poly_mul([-2, 0, 1], [-3, 0, 1])) is None


def test_loop_cube_algebra():
    q = Quiver(["1"], [Arrow("x", "1", "1")])
    rel = PathSum(QQ, [(1, Path.of(q, ["x", "x", "x"]))])
    alg = build_algebra(q, [rel], QQ, name="loop3")
    assert alg.dim == 3
    assert alg.nilpotency == 3
    x = alg.normal_form(Path.of(q, ["x"]))
    x2 = alg.product(x, x)
    assert x2 != {}
    assert alg.product(x2, x) == {}


def test_two_component_quiver():
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "1")])
    alg = build_algebra(q, [], QQ, name="split")
    assert alg.dim == 4
    assert len(alg.block_indices("3", "3")) == 1
    assert len(alg.block_indices("2", "3")) == 0


def test_prime_field_relation_algebra():
    f3 = PrimeField(3)
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "1"), Arrow("b", "3", "2")])
    rel = PathSum(f3, [(2, Path.of(q, ["a", "b"]))])
    alg = build_algebra(q, [rel], f3, name="nil3")
    assert alg.dim == 5
    opp = opposite(alg)
    assert opp.dim == 5


# --- the ideal closure ----------------------------------------------------------

GF = PrimeField(32003)


def one_loop_quiver():
    return Quiver(["1"], [Arrow("x", "1", "1")])


def two_loop_quiver():
    return Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])


def all_paths(quiver, degree):
    """Every path of the given length, built from print-order names."""
    return [Path(names, src, tgt)
            for names, src, tgt in enumerate_paths(quiver, degree)]


def brute_force_ideal_rows(field, quiver, relations, cap):
    """Rows of the span of every u*r*w of degree <= cap, by taking all
    pairs of paths u, w around each relation r."""
    span = quivercore.Span(field, quivercore._path_lead)
    for r in relations:
        deg = max(p.degree for p in r)
        for du in range(cap - deg + 1):
            for dw in range(cap - deg - du + 1):
                for u in all_paths(quiver, du):
                    for w in all_paths(quiver, dw):
                        vec = {}
                        for p, c in r.items():
                            up = u * p
                            upw = None if up is None else up * w
                            if upw is not None:
                                vec[upw] = c
                        if vec:
                            span.add(vec)
    return span.rows


@st.composite
def homogeneous_relations(draw):
    kind = draw(st.sampled_from(["kron2", "one_loop", "two_loops"]))
    quiver = {"kron2": lambda: tensor_square_quiver()[0],
              "one_loop": one_loop_quiver,
              "two_loops": two_loop_quiver}[kind]()
    field = draw(st.sampled_from([QQ, GF]))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(2, 2 if kind == "kron2" else 3))
        paths = all_paths(quiver, degree)
        first = draw(st.sampled_from(paths))
        parallel = [p for p in paths if p.source == first.source
                    and p.target == first.target]
        chosen = draw(st.lists(st.sampled_from(parallel), min_size=1,
                               max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(chosen), max_size=len(chosen)))
        vec = {p: field.canon(c) for p, c in zip(chosen, coeffs)}
        relations.append({p: c for p, c in vec.items() if c})
    return field, quiver, [r for r in relations if r]


@given(homogeneous_relations(), st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_ideal_closure_matches_brute_force_span(case, cap, data):
    field, quiver, relations = case
    closure = quivercore.IdealClosure(field, quiver, relations)
    for c in range(1, cap + 1):
        closure.raise_cap(c)
    want = brute_force_ideal_rows(field, quiver, relations, cap)
    assert closure.span.rows == want
    # relations added between raise_cap calls give the same rows
    late = quivercore.IdealClosure(field, quiver)
    steps = sorted(data.draw(st.lists(st.integers(0, cap),
                                      min_size=len(relations),
                                      max_size=len(relations))))
    for r, step in zip(relations, steps):
        late.raise_cap(step)
        late.add_relation(r)
    late.raise_cap(cap)
    assert late.span.rows == want


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("commutative,basis,nilpotency,normal_forms", [
    (False, ["", "x", "y", "xx", "yy"], 4,
     {"yyy": {"xx": 1}, "xyy": {}, "xxx": {}, "yyyy": {}, "yy": {"yy": 1}}),
    (True, ["", "x", "y", "xx", "yx", "yy", "xxx", "yyx"], 5,
     {"xy": {"yx": 1}, "yyy": {"xx": 1}, "xxy": {}, "xyyy": {"xxx": 1},
      "yyxy": {"xxx": 1}, "xyy": {"yyx": 1}, "xxxx": {}}),
])
def test_two_loop_inhomogeneous_algebras(field, commutative, basis,
                                         nilpotency, normal_forms):
    import time
    t0 = time.perf_counter()
    alg = make_two_loop(field, commutative)
    opp = opposite(alg)
    assert time.perf_counter() - t0 < 1.0
    for a in (alg, opp):
        names = ["".join(p.arrows) for p in a.basis]
        assert names == basis
        assert a.dim == len(basis) and a.nilpotency == nilpotency
        # both relation sets are closed under reversing words, so the
        # opposite presents the same algebra with the same normal forms
        for w, nf in normal_forms.items():
            got = a.normal_form(Path.of(a.quiver, list(w)))
            assert {"".join(a.basis[k].arrows): c
                    for k, c in got.items()} == nf, w


def test_longer_paths_extend_the_degree_below():
    """Paths of degree d + 1 extend those of degree d, and are the paths
    walked up from the arrows."""
    from conftest import corpus_over
    from oracles import paths_of_degree
    from qtilt.quivercore import _longer_paths
    for alg in corpus_over(QQ):
        paths = [Path.trivial(v) for v in alg.quiver.vertices]
        for d in range(1, 5):
            paths = _longer_paths(alg.quiver, paths)
            assert paths == paths_of_degree(alg.quiver, d), (alg.name, d)


@pytest.mark.parametrize("field", [QQ, GF, PrimeField(3)],
                         ids=["Q", "GF32003", "GF3"])
def test_opposite_reverses_the_span_a_closure_would_give(monkeypatch,
                                                         field):
    """`opposite` reverses the algebra's span rows and runs no closure; it
    gives the basis, nilpotency, span rows and anti-isomorphism table of
    the opposite built from scratch, over the corpus, its tensor products
    and the inhomogeneous two-loop algebras."""
    from conftest import corpus_over
    from oracles import opposite_by_closure
    from qtilt.quivercore import _op_table
    made = []
    init = quivercore.IdealClosure.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quivercore.IdealClosure, "__init__", counted)
    for alg in corpus_over(field):
        made.clear()
        opp = opposite(alg)
        assert not made, alg.name
        want = opposite_by_closure(alg)
        assert opp.quiver == want.quiver
        assert opp.basis == want.basis, alg.name
        assert opp.nilpotency == want.nilpotency, alg.name
        assert opp._span.rows == want._span.rows, alg.name
        assert _op_table(alg) == [list(want.normal_form(b.reversed()).items())
                                  for b in alg.basis]
        assert opposite(opp) is alg


@given(st.sampled_from(["kron", "a3", "kron_gf"]),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_minimal_polynomial_annihilates_and_is_least(which, coeffs):
    from qtilt.quivercore import poly_eval_in_algebra
    alg = {"kron": make_kronecker, "a3": make_a3,
           "kron_gf": lambda: build_algebra(make_kronecker().quiver, [], GF)
           }[which]()
    a = regular_structure_algebra(alg)
    x = sparse_element(a.field, coeffs[:a.dim])
    mu = minimal_polynomial(a, x)
    assert mu[-1] == 1 and len(mu) >= 2
    assert dense(poly_eval_in_algebra(a, mu, x), a.dim) == (0,) * a.dim
    # 1, x, ..., x^(deg - 1) are independent, so no lower degree works
    powers = [a.unit]
    for _ in range(len(mu) - 2):
        powers.append(a.product(x, powers[-1]))
    assert Matrix(a.field, [dense(p, a.dim) for p in powers]).rank() == \
        len(mu) - 1


# --- the radical quotient read off a reduced span -------------------------------

def _quotient_by_rref(a):
    """(free columns, quotient table, quotient unit) from the rref of the
    radical rows: projection rows e_f - sum_r R[r, f] e_{pivot r}."""
    from qtilt.exactla import rref
    rad = abstract_radical(a)
    if not rad:
        free, rows = list(range(a.dim)), [{j: 1} for j in range(a.dim)]
    else:
        res = rref(Matrix(QQ, [dense(v, a.dim) for v in rad]))
        free = [j for j in range(a.dim) if j not in set(res.pivots)]
        rows = []
        for f in free:
            row = {f: 1}
            for r, c in enumerate(res.pivots):
                if res.matrix[(r, f)] != 0:
                    row[c] = -res.matrix[(r, f)]
            rows.append(row)

    def to_bar(vec):
        out = [sum(row.get(j, 0) * c for j, c in vec.items()) for row in rows]
        return tuple(QQ.canon(x) for x in out)

    table = [[to_bar(a.cells[i].get(j, {})) for j in free] for i in free]
    return free, table, to_bar(a.unit)


def _in_random_basis(a, seed):
    """a on the basis b_i = sum_j P[j][i] e_j for a seeded invertible
    integer P, so that its radical rows are no longer unit vectors."""
    from qtilt.exactla import solve
    rnd = random.Random(seed)
    n = a.dim
    while True:
        p = Matrix(QQ, [[rnd.randint(-2, 2) for _ in range(n)]
                        for _ in range(n)])
        if p.rank() == n:
            break
    cols = [dense(c, n) for c in p.sparse_columns()]

    def coords(vec):
        rhs = Matrix(QQ, [[c] for c in dense(vec, n)])
        return dense(solve(p, rhs).sparse_columns()[0], n)

    table = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = {}
            for j, x in enumerate(cols[i]):
                for l, y in enumerate(cols[k]):
                    for m, c in a.cells[j].get(l, {}).items():
                        acc[m] = acc.get(m, 0) + x * y * c
            row.append(coords(acc))
        table.append(row)
    return structure_algebra(QQ, table, coords(a.unit))


def _quotient_corpus():
    from qtilt.repcore import endomorphism_algebra, random_module
    from qtilt.tensorcon import tensor_algebras
    kron = make_kronecker()
    algebras = [tensor_algebras(kron, kron).algebra,
                tensor_algebras(make_a3(), kron).algebra, make_two_loop()]
    out = [regular_structure_algebra(alg) for alg in algebras]
    out += [endomorphism_algebra(random_module(alg, seed))[0]
            for alg in algebras for seed in range(4)]
    out += [_in_random_basis(regular_structure_algebra(alg), seed)
            for alg in (kron, make_a3(), make_two_loop()) for seed in range(2)]
    return out


def test_quotient_by_radical_matches_the_rref_projection():
    """The free coordinates are the non-pivot columns of the rref of the
    radical, and the quotient table and unit are the rref projection's."""
    semisimple = 0
    for a in _quotient_corpus() + [upper_triangular_2x2()]:
        free, bar = quivercore.quotient_by_radical(a)
        ref_free, ref_table, ref_unit = _quotient_by_rref(a)
        assert free == ref_free
        assert bar.dim == len(free) and dense(bar.unit, bar.dim) == ref_unit
        assert [[dense(bar.product({i: 1}, {j: 1}), bar.dim)
                 for j in range(bar.dim)] for i in range(bar.dim)] == ref_table
        semisimple += len(free) == a.dim
    assert semisimple


# --- the idempotent split: Lagrange against the Bezout route ------------------

def _poly_sub(f, g):
    n = max(len(f), len(g))
    out = [Fraction(0)] * n
    for i, c in enumerate(f):
        out[i] += Fraction(c)
    for i, c in enumerate(g):
        out[i] -= Fraction(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_xgcd(f, g):
    """Extended gcd: (u, v, d) with u*f + v*g = d, d monic."""
    from qtilt.quivercore import poly_divmod
    r0, r1 = [Fraction(c) for c in f], [Fraction(c) for c in g]
    u0, u1 = [Fraction(1)], [Fraction(0)]
    v0, v1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, poly_mul(q, v1))
    lc = r0[-1]
    return [c / lc for c in u0], [c / lc for c in v0], [c / lc for c in r0]


def _corner_basis(bar, e):
    from qtilt.exactla import Span
    span = Span(bar.field)
    return [c for c in (bar.product(bar.product(e, {k: 1}), e)
                        for k in range(bar.dim)) if span.add(c)]


def _eager_candidates(bar, e, corner_basis, seed):
    """All split candidates of a corner, built up front as dense vectors:
    the basis vectors other than e, their pairwise sums, then 60 draws
    from one generator seeded per corner."""
    field, n = bar.field, bar.dim
    rnd = random.Random(seed)
    basis = [dense(c, n) for c in corner_basis]
    seeds = [c for c in basis if c != dense(e, n)]
    candidates = list(seeds)
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            candidates.append(tuple(field.canon(x + y)
                                    for x, y in zip(seeds[i], seeds[j])))
    for _ in range(60):
        candidates.append(tuple(
            field.canon(sum(rnd.randint(-3, 3) * v[k] for v in basis))
            for k in range(n)))
    return candidates


def _bezout_split(bar, seed=0):
    """The split of a semisimple algebra through the extended gcd: for
    mu = f g with u f + v g = 1, e1 = (v g)(x), trying the eagerly built
    candidates in turn."""
    from qtilt.quivercore import poly_eval_in_algebra
    n = bar.dim
    work, out = [bar.unit], []
    while work:
        e = work.pop(0)
        corner_basis = _corner_basis(bar, e)
        if len(corner_basis) <= 1:
            out.append(e)
            continue
        candidates = _eager_candidates(bar, e, corner_basis, seed)
        for x in (sparse_element(bar.field, c) for c in candidates):
            mu = minimal_polynomial(bar, x, unit=e)
            split_mu = split_rational_root(mu) if len(mu) > 2 else None
            if split_mu is None or len(split_mu[1]) == 1:
                continue
            f, g = split_mu
            _, v, d = _poly_xgcd(f, g)
            assert d == [1]
            e1 = poly_eval_in_algebra(bar, poly_mul(v, g), x, unit=e)
            break
        else:
            raise NonSplitError("no candidate split the corner")
        work.append(e1)
        work.append(sparse_element(bar.field, {k: e.get(k, 0) - e1.get(k, 0)
                                               for k in range(n)}))
    return out


def _split_corpus(corpus):
    """The regular algebras of the corpus, and End(m + m + S) for seeded
    random m and a simple S over kron, kron^2, A3 (x) kron and the two-loop
    algebra."""
    from qtilt.repcore import direct_sum, endomorphism_algebra, random_module
    from qtilt.repcore import simple
    from qtilt.tensorcon import tensor_algebras
    kron = make_kronecker()
    out = [regular_structure_algebra(alg) for alg in corpus]
    for alg in (kron, tensor_algebras(kron, kron).algebra,
                tensor_algebras(make_a3(), kron).algebra, make_two_loop()):
        for seed in range(2):
            m = random_module(alg, seed)
            s = simple(alg, alg.quiver.vertices[-1])
            out.append(endomorphism_algebra(direct_sum([m, m, s]))[0])
    return out


def test_lagrange_split_matches_the_bezout_split(monkeypatch, corpus):
    algebras = _split_corpus(corpus)
    got = [primitive_orthogonal_idempotents(a) for a in algebras]
    monkeypatch.setattr(quivercore, "_split_semisimple", _bezout_split)
    want = [primitive_orthogonal_idempotents(a) for a in algebras]
    assert got == want
    assert max(len(idems) for idems in got) >= 4


def test_lazy_candidates_match_the_eager_list(corpus):
    """Every candidate, the 60 seeded draws included, in the same order: at
    the unit corner of each quotient of the split corpus, and at the corner
    of the sum of its first two primitive idempotents."""
    checked = 0
    for a in _split_corpus(corpus):
        bar = quivercore.quotient_by_radical(a)[1]
        idems = quivercore._split_semisimple(bar)
        corners = [bar.unit]
        if len(idems) > 2:
            corners.append(sparse_element(bar.field,
                                          {k: idems[0].get(k, 0)
                                           + idems[1].get(k, 0)
                                           for k in range(bar.dim)}))
        for e in corners:
            basis = _corner_basis(bar, e)
            if len(basis) <= 1:
                continue
            for seed in (0, 5):
                lazy = quivercore._corner_candidates(bar, e, basis,
                                                     random.Random(seed))
                want = _eager_candidates(bar, e, basis, seed)
                assert [dense(x, bar.dim) for x in lazy] == want
                checked += 1
    assert checked >= 20


def test_split_refuses_a_repeated_root():
    """k[eps]/(eps^2) x k on the basis (1 + eps, 0), (eps, 0), (0, 1) is not
    semisimple.  Its first candidate (1 + eps, 0) has minimal polynomial
    t (t - 1)^2, and the root 1 is taken first, with g = t: the splitter
    must report the repeated root rather than split by g."""
    table = [[{0: 1, 1: 1}, {1: 1}, {}],
             [{1: 1}, {}, {}],
             [{}, {}, {2: 1}]]
    a = structure_algebra(QQ, table, (1, -1, 1))
    assert minimal_polynomial(a, {0: 1}) == [0, 1, -2, 1]
    assert split_rational_root([0, 1, -2, 1]) == ([1, -2, 1], [0, 1])
    with pytest.raises(QtiltError, match="repeated root") as info:
        quivercore._split_semisimple(a)
    assert not isinstance(info.value, NonSplitError)
