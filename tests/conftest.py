"""Shared fixtures: the small algebra corpus used across the suite."""

import pytest

from qtilt.exactla import QQ, Matrix
from qtilt.quivercore import Arrow, Path, PathSum, Quiver, build_algebra
from qtilt.repcore import Representation


def dense(x, n):
    """A sparse algebra element (index -> entry) as a dense tuple of
    length n."""
    return tuple(x.get(k, 0) for k in range(n))


def flatten(f):
    """A module map as one sparse vector {offset: entry}: its blocks in
    vertex order, each read row by row."""
    out, off = {}, 0
    for v in f.source.algebra.quiver.vertices:
        b = f.blocks[v]
        for row in b.sparse_rows:
            out.update((off + c, x) for c, x in row.items())
            off += b.ncols
    return out


def express_all_in_basis(maps, fs):
    """Coefficients of each of the (at least one) maps fs on the basis
    ``maps`` of their Hom space, as dicts basis position -> nonzero entry,
    from one solve over their `flatten`ed columns; None when one of them
    lies outside the span.  The solve oracle for the Hom positions."""
    from qtilt.exactla import Matrix, solve
    src, tgt = fs[0].source, fs[0].target
    field = src.algebra.field
    n = sum(src.dims[v] * tgt.dims[v] for v in src.algebra.quiver.vertices)
    sol = solve(Matrix.from_sparse_cols(field, [flatten(m) for m in maps], n),
                Matrix.from_sparse_cols(field, [flatten(f) for f in fs], n))
    return None if sol is None else sol.sparse_columns()


def op_element(alg, x):
    """Image of the sparse element x under the canonical anti-isomorphism
    onto the opposite algebra, as a sparse element there with ascending
    keys, one element at a time off `quivercore._op_table`: the oracle for
    the generator images of `homengine._dualized_elements`."""
    from qtilt.exactla import _tidy
    from qtilt.quivercore import _op_table
    table = _op_table(alg)
    acc = {}
    for idx, c in x.items():
        for k, d in table[idx]:
            acc[k] = acc.get(k, 0) + c * d
    return dict(sorted(_tidy(acc, alg.field.char).items()))


def differential(res, i):
    """The differential terms[i] -> terms[i-1] of a resolution, built from
    its generator images."""
    from oracles import proj_map_from_images
    return proj_map_from_images(res.terms[i], res.terms[i - 1], res.images[i])


def is_surjective(f):
    """Whether the module map f is onto: full row rank at every vertex."""
    return all(b.rank() == b.nrows for b in f.blocks.values())


def top_dims(m):
    """The dimension vector of m's top: the number of `_top_sections` at
    each vertex."""
    from qtilt.repcore import _top_sections
    return tuple(len(s) for s in _top_sections(m).values())


def radical_dims(m):
    """The dimension vector of m's radical, the rest of m past its top."""
    return tuple(d - t for d, t in zip(m.dim_vector(), top_dims(m)))


def arrow_count(quiver, source, target):
    """The number of arrows source -> target in quiver."""
    return sum(1 for a in quiver.arrows
               if a.source == source and a.target == target)


def resolution_maps(res):
    """The augmentation onto the module (maps[0]) and the differentials
    terms[i] -> terms[i-1] (maps[i]) of a resolution, built from its terms
    and generator images."""
    from qtilt.repcore import _image_maps
    if not res.terms:
        return []
    top = _image_maps(res.terms[0], res.module, [res.images[0]])[0]
    return [top] + [differential(res, i) for i in range(1, len(res.terms))]


def syzygies(res):
    """The module and the kernel of each map of `resolution_maps`: the
    syzygies 0 to length + 1 of a resolution."""
    from oracles import kernel_rep
    return [res.module] + [kernel_rep(f)[0] for f in resolution_maps(res)]


def with_fractions(m):
    """A module isomorphic to m whose arrow matrices hold Fractions: m's
    basis at each vertex rescaled by 1/2, 1/3, ..."""
    from fractions import Fraction
    field = m.algebra.field
    scale = {v: Matrix(field, [[Fraction(1, i + 2) if i == j else 0
                                for j in range(d)] for i in range(d)])
             for v, d in m.dims.items()}
    inverse = {v: Matrix(field, [[i + 2 if i == j else 0 for j in range(d)]
                                 for i in range(d)])
               for v, d in m.dims.items()}
    return Representation(m.algebra, m.dims, {
        a.name: inverse[a.target] * m.mats[a.name] * scale[a.source]
        for a in m.algebra.quiver.arrows})


def make_kronecker(name="kron"):
    q = Quiver(["1", "2"], [Arrow("a0", "2", "1"), Arrow("a1", "2", "1")])
    return build_algebra(q, [], QQ, name=name)


def make_a2(name="a2"):
    q = Quiver(["1", "2"], [Arrow("a", "2", "1")])
    return build_algebra(q, [], QQ, name=name)


def make_a3(name="a3"):
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "1"), Arrow("b", "3", "2")])
    return build_algebra(q, [], QQ, name=name)


def make_a3_nilpotent(name="a3nil"):
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "1"), Arrow("b", "3", "2")])
    rel = PathSum(QQ, [(1, Path.of(q, ["a", "b"]))])
    return build_algebra(q, [rel], QQ, name=name)


def make_loop_nilpotent(name="loop2"):
    q = Quiver(["1"], [Arrow("x", "1", "1")])
    rel = PathSum(QQ, [(1, Path.of(q, ["x", "x"]))])
    return build_algebra(q, [rel], QQ, name=name)


def make_semisimple(n=2, name="ss"):
    q = Quiver([str(i + 1) for i in range(n)], [])
    return build_algebra(q, [], QQ, name=name)


def make_square(name="square"):
    """Commutative square: two arrow pairs from a source corner to a sink
    corner, with the single commutativity relation."""
    q = Quiver(["11", "12", "21", "22"],
               [Arrow("f", "22", "12"), Arrow("g", "22", "21"),
                Arrow("p", "12", "11"), Arrow("q", "21", "11")])
    rel = PathSum(QQ, [(1, Path.of(q, ["p", "f"])),
                       (-1, Path.of(q, ["q", "g"]))])
    return build_algebra(q, [rel], QQ, name=name)


def make_square_gf(name="square_gf"):
    """The commutative square over GF(32003); its relation p*f - q*g puts
    the residue p - 1 into the structure constants."""
    from qtilt.exactla import PrimeField
    gf = PrimeField(32003)
    q = Quiver(["11", "12", "21", "22"],
               [Arrow("f", "22", "12"), Arrow("g", "22", "21"),
                Arrow("p", "12", "11"), Arrow("q", "21", "11")])
    rel = PathSum(gf, [(1, Path.of(q, ["p", "f"])),
                       (-1, Path.of(q, ["q", "g"]))])
    return build_algebra(q, [rel], gf, name=name)


def make_two_loop(field=QQ, commutative=False):
    """k<x,y>/(xy, yx, x^2 - y^3) or k[x,y]/(x^2 - y^3, y^4): the
    relation x^2 - y^3 is inhomogeneous."""
    q = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    word = lambda s: Path.of(q, list(s))
    cube = PathSum(field, [(1, word("xx")), (-1, word("yyy"))])
    if commutative:
        rels = [PathSum(field, [(1, word("xy")), (-1, word("yx"))]), cube,
                PathSum(field, [(1, word("yyyy"))])]
    else:
        rels = [PathSum(field, [(1, word("xy"))]),
                PathSum(field, [(1, word("yx"))]), cube]
    return build_algebra(q, rels, field, name="twoloop")


def rebuilt(alg, field):
    """alg built again over field, its relation coefficients read there."""
    rels = [PathSum(field, r.terms) for r in alg.relations]
    return build_algebra(alg.quiver, rels, field, alg.maxdeg, alg.name)


def corpus_over(field):
    """The six-algebra corpus and the commutative square over field, the
    tensor products of each pair of the corpus's first five algebras, and
    both two-loop algebras."""
    from qtilt.tensorcon import tensor_algebras
    base = [rebuilt(make(), field) for make in (
        make_kronecker, make_a2, make_a3, make_a3_nilpotent,
        make_loop_nilpotent, make_semisimple, make_square)]
    products = [tensor_algebras(x, y).algebra
                for i, x in enumerate(base[:5]) for y in base[i:5]]
    return base + products + [make_two_loop(field, c) for c in (False, True)]


@pytest.fixture(scope="session")
def kron():
    return make_kronecker()


@pytest.fixture(scope="session")
def a2():
    return make_a2()


@pytest.fixture(scope="session")
def a3():
    return make_a3()


@pytest.fixture(scope="session")
def a3nil():
    return make_a3_nilpotent()


@pytest.fixture(scope="session")
def loop2():
    return make_loop_nilpotent()


@pytest.fixture(scope="session")
def ss2():
    return make_semisimple(2)


@pytest.fixture(scope="session")
def square():
    return make_square()


@pytest.fixture(scope="session")
def corpus(kron, a2, a3, a3nil, loop2, ss2):
    """The fixed six-algebra corpus for structural property suites."""
    return [kron, a2, a3, a3nil, loop2, ss2]


@pytest.fixture(scope="session")
def kron2(kron):
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(kron, kron)


@pytest.fixture(scope="session")
def a2xa2(a2):
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(a2, a2)


@pytest.fixture(scope="session")
def kronxa2(kron, a2):
    from qtilt.tensorcon import tensor_algebras
    return tensor_algebras(kron, a2)
