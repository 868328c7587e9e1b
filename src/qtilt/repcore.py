"""Modules over a bound quiver algebra as quiver representations.

A representation assigns a space K^d to each vertex and a matrix to each
arrow (shape: target dimension by source dimension); every relation of the
algebra must evaluate to zero.  Module maps are vertex-indexed matrices
intertwining the arrow actions.  Projective modules carry their generator
bookkeeping so Hom spaces out of them need no linear solving.

A free module (a direct sum of indecomposable projectives, from
`proj_sum`) is held by its generator tuple.  Its arrow action is fixed by
the algebra: the arrow matrices of each indecomposable projective are
built once per algebra and cached on it as matrices (`_proj_mats`), and a
free module's own arrow matrices are assembled from them only when `mats`
is first read.  An algebra's cache holds data, never a module, and
`proj`, `inj` and `regular` return a fresh module on each call, so no
module and its algebra point at each other.  `cokernel_rep`,
`dual_free_kernel` and `_submodule_top` read the few arrow columns they
need in place off the projectives, columns read off the algebra's
products and cached on it (`_free_columns`): each column comes with
its block's offset in the free module, and the product applies the
offset instead of copying the column.  A resolution builds no kernel as
a module: it reads a syzygy's top off its kernel vectors in a free
module.  A top is read one way, as the standard coordinates that
complement the radical (`_top_sections`); its dimension at v is their
number, and the radical's is the rest.  An image given by a basis at
each vertex is restricted by a solve per arrow (`_restricted`).  A
random quotient of a free module p is the cokernel of a free map into
p, its random vectors as generator images (`_image_columns`).

A map out of a free module is its generator images.  A projective
cover and the Hom basis out of a free module (`_hom_from_projective`)
are `ModuleMap`s held that way (`_image_maps`): ``images`` lists, per
generator k, a sparse vector of the target, here a standard vector e_j
or zero, and the blocks are built only when first read, for the maps of
one batch together (`_image_blocks`).  Their column at basis element x
of generator k's block is column j of x's action.  A basis element x's
action is read two ways, one per kind of target.  A map of free modules
given by generator images has its column at x in generator k's block
x.images[k], read off the algebra's products (`_image_columns`).  Into
any other module the rows of x's action are read (`_action_rows`), once
per call, and dropped, so blocks are filled row by row with no
transpose.

Every Hom basis names its positions (`_hom_basis`): per basis map, an
entry where it alone is nonzero.  Coordinates are read there, so a
composite f o h needs a few rows of f and columns of h, and no solve.
Out of a free module the positions are its generators' own columns,
the trivial paths, where a map's column is a generator's image: the
guard (`_check_positions`) and the composites (`_column_reader`) read
the images, and End of a list of modules reads every composite f o h
through a free summand off the rows of the actions on the target
(`_free_composites`), so no block of a map out of a free module is
built.
"""

import random
from itertools import accumulate, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (AlgebraMismatchError, QtiltError, ShapeMismatchError,
                     UndecidedIsomorphismError)
from .exactla import (Matrix, _null_vectors, _product_rows, _tidy,
                      block_diag, cokernel_data, column_space_basis,
                      kernel_data, pivot_columns, solve)
from .quivercore import (BoundQuiverAlgebra, Path, StructureConstantAlgebra,
                         opposite, primitive_orthogonal_idempotents)


class Representation:
    """A finite dimensional left module, stored vertexwise."""

    __slots__ = ("algebra", "dims", "_mats", "proj_gens", "_cache",
                 "__weakref__")

    def __init__(self, algebra: BoundQuiverAlgebra, dims: Dict[str, int],
                 mats: Optional[Dict[str, Matrix]], proj_gens=None,
                 validate=True):
        """mats may be None only for a free module (proj_gens given): its
        arrow matrices are then built from its generators' indecomposable
        projectives when first read."""
        self.algebra = algebra
        unknown = set(dims) - set(algebra.quiver.vertices)
        if unknown:
            raise QtiltError(f"unknown vertices in dimension vector: {unknown}")
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        if min(self.dims.values(), default=0) < 0:
            raise QtiltError(f"negative dimension in dimension vector: {self.dims}")
        self.proj_gens = tuple(proj_gens) if proj_gens is not None else None
        self._mats = None
        if mats is not None:
            self._mats = {}
            for a in algebra.quiver.arrows:
                m = mats.get(a.name)
                if m is None:
                    m = Matrix.zeros(algebra.field, self.dims[a.target],
                                     self.dims[a.source])
                self._mats[a.name] = m
        self._cache: Dict = {}
        if validate:
            self._validate()

    @property
    def mats(self) -> Dict[str, Matrix]:
        """Arrow name -> matrix (target dimension by source dimension)."""
        if self._mats is None:
            self._mats = _free_arrow_mats(self)
        return self._mats

    def _validate(self):
        for a in self.algebra.quiver.arrows:
            m = self.mats[a.name]
            if (m.nrows, m.ncols) != (self.dims[a.target], self.dims[a.source]):
                raise ShapeMismatchError(
                    f"arrow {a.name}: matrix is {m.nrows}x{m.ncols}, expected "
                    f"{self.dims[a.target]}x{self.dims[a.source]}")
            if m.field != self.algebra.field:
                raise QtiltError(f"arrow {a.name}: wrong coefficient field")
        for rel in self.algebra.relations:
            if not self.evaluate_pathsum(rel).is_zero():
                raise QtiltError(f"relation {rel!r} does not vanish")

    # -- structure -----------------------------------------------------------

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def act_path(self, p: Path) -> Matrix:
        """Matrix of a path acting on this module (source to target space),
        composed along its arrows on each call."""
        if not p.arrows:
            return Matrix.identity(self.algebra.field, self.dims[p.source])
        m = self.mats[p.arrows[-1]]
        for name in reversed(p.arrows[:-1]):
            m = self.mats[name] * m
        return m

    def evaluate_pathsum(self, ps) -> Matrix:
        field = self.algebra.field
        acc = Matrix.zeros(field, self.dims[ps.target], self.dims[ps.source])
        for c, p in ps.terms:
            acc = acc + self.act_path(p).scale(c)
        return acc

    def __repr__(self):
        return f"Representation({self.algebra.name}, dim={self.dim_vector()})"


class ModuleMap:
    """A homomorphism of representations, one matrix per vertex.  A map
    out of a free module may be held by its generator images instead
    (`_image_maps`): ``images`` lists one sparse vector of the target per
    generator, and the blocks are built when first read."""

    __slots__ = ("source", "target", "images", "_blocks")

    def __init__(self, source: Representation, target: Representation,
                 blocks: Dict[str, Matrix], validate=True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatchError("map between modules over different algebras")
        self.source = source
        self.target = target
        self.images = None
        self._blocks = {}
        for v in source.algebra.quiver.vertices:
            b = blocks.get(v)
            if b is None:
                b = Matrix.zeros(source.algebra.field, target.dims[v],
                                 source.dims[v])
            self._blocks[v] = b
        if validate:
            self._validate()

    @property
    def blocks(self) -> Dict[str, Matrix]:
        """Vertex -> block (target dimension by source dimension).  A map
        held by its images takes them from its batch, where the first
        read of any map made with it puts all their blocks."""
        if type(self._blocks) is tuple:
            batch, i = self._blocks
            if batch[i] is self.images:
                batch[:] = _image_blocks(self.source, self.target, batch)
            self._blocks = batch[i]
        return self._blocks

    def _validate(self):
        for v in self.source.algebra.quiver.vertices:
            b = self.blocks[v]
            if (b.nrows, b.ncols) != (self.target.dims[v], self.source.dims[v]):
                raise ShapeMismatchError(f"block at {v} has wrong shape")
        for a in self.source.algebra.quiver.arrows:
            lhs = self.target.mats[a.name] * self.blocks[a.source]
            rhs = self.blocks[a.target] * self.source.mats[a.name]
            if lhs != rhs:
                raise QtiltError(f"map does not intertwine arrow {a.name}")

    @classmethod
    def identity(cls, m: Representation) -> "ModuleMap":
        field = m.algebra.field
        return cls(m, m, {v: Matrix.identity(field, m.dims[v])
                          for v in m.algebra.quiver.vertices}, validate=False)

    @classmethod
    def zero(cls, source, target) -> "ModuleMap":
        return cls(source, target, {}, validate=False)

    def __mul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition self after other."""
        if other.target is not self.source:
            if other.target.dims != self.source.dims:
                raise ShapeMismatchError("composition endpoints do not match")
        return ModuleMap(other.source, self.target,
                         {v: self.blocks[v] * other.blocks[v]
                          for v in self.blocks}, validate=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         {v: self.blocks[v] + other.blocks[v]
                          for v in self.blocks}, validate=False)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         {v: self.blocks[v].scale(c) for v in self.blocks},
                         validate=False)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self) -> bool:
        return all(b.rank() == b.ncols for b in self.blocks.values())

    def is_isomorphism(self) -> bool:
        return all(b.nrows == b.ncols and b.rank() == b.nrows
                   for b in self.blocks.values())

    def __repr__(self):
        return f"ModuleMap({self.source.dim_vector()} -> {self.target.dim_vector()})"


# ---------------------------------------------------------------------------
# constructors


def zero_rep(alg) -> Representation:
    return Representation(alg, {}, {}, validate=False)


def simple(alg, v: str) -> Representation:
    """The simple module concentrated at a vertex."""
    if not alg.quiver.has_vertex(v):
        raise QtiltError(f"unknown vertex {v}")
    return Representation(alg, {v: 1}, {}, validate=False)


def _proj_arrow_mats(p: Representation) -> Dict[str, Matrix]:
    """Arrow matrices of an indecomposable projective p = A e_v, whose
    basis at each vertex w is the basis of e_w * A * e_v: arrow a sends
    basis vector j to a.e_j, so its rows are the arrow's action rows, read
    off the algebra's products."""
    alg = p.algebra
    return {a.name: Matrix._raw(alg.field, _action_rows(
                p, alg.basis_index(Path.from_arrow(a))), p.dims[a.source])
            for a in alg.quiver.arrows}


def free_offsets(p: Representation, w: str) -> Tuple[int, ...]:
    """Coordinates of a free module at vertex w: generator k's block (the
    basis of e_w * A * e_{v_k}) starts at entry k; a last entry holds the
    dimension at w."""
    size = p.algebra.block_sizes[w]
    return (0, *accumulate(map(size.__getitem__, p.proj_gens)))


def _free_coordinates(p: Representation, w: str) -> List[Tuple[int, int]]:
    """Each coordinate of a free module at vertex w, decoded as (generator
    k, basis index of e_w * A * e_{v_k})."""
    return [(k, y) for k, v in enumerate(p.proj_gens)
            for y in p.algebra.block_indices(v, w)]


def _free_arrow_mats(p: Representation) -> Dict[str, Matrix]:
    """The block-diagonal arrow matrices of a free module."""
    alg = p.algebra
    blocks = [_proj_mats(alg, v) for v in p.proj_gens]
    return {a.name: block_diag(alg.field, [b[a.name] for b in blocks])
            for a in alg.quiver.arrows}


def _proj_mats(alg, v: str) -> Dict[str, Matrix]:
    """Arrow name -> that arrow's matrix on the indecomposable projective
    at v, built once and cached on the algebra as data."""
    got = alg._cache.get(("proj_mats", v))
    if got is None:
        got = alg._cache[("proj_mats", v)] = _proj_arrow_mats(
            proj_sum(alg, [v]))
    return got


def _proj_columns(alg, v: str) -> Dict[str, List[Dict[int, object]]]:
    """Arrow name -> the columns of that arrow's matrix on the
    indecomposable projective at v, read off the products, cached."""
    got = alg._cache.get(("proj_cols", v))
    if got is None:
        pos = alg.block_pos
        got = alg._cache[("proj_cols", v)] = {
            a.name: [{pos[z]: d for z, d in alg.basis_product(
                alg.basis_index(Path.from_arrow(a)), y)}
                for y in alg.block_indices(v, a.source)]
            for a in alg.quiver.arrows}
    return got


def _free_columns(m: Representation, arrow, idxs: Sequence[int]):
    """The sparse columns at the given coordinates of an arrow's matrix on
    a free module, read in place off its generators' indecomposable
    projectives: (column, offset) pairs, the column's entry at i sitting
    at row offset + i of the whole matrix."""
    alg, gens = m.algebra, m.proj_gens
    offs = free_offsets(m, arrow.source)
    shift = free_offsets(m, arrow.target)
    blocks = {v: _proj_columns(alg, v)[arrow.name]
              for v in dict.fromkeys(gens)}
    out, k = [], 0
    for r in idxs:      # step to r's block: one step apart when ascending
        while offs[k] > r:
            k -= 1
        while offs[k + 1] <= r:
            k += 1
        out.append((blocks[gens[k]][r - offs[k]], shift[k]))
    return out


def _arrow_cols(m: Representation, arrow, cols: Sequence[int]) -> Matrix:
    """The columns at the given coordinates of an arrow's matrix on m, as a
    matrix, without building the arrow matrices of a free module."""
    if m._mats is not None:
        return m._mats[arrow.name].take_columns(cols)
    rows = [{} for _ in range(m.dims[arrow.target])]
    for j, (col, off) in enumerate(_free_columns(m, arrow, cols)):
        for i, x in col.items():
            rows[off + i][j] = x
    return Matrix._raw(m.algebra.field, rows, len(cols))


def proj_sum(alg, gens: Sequence[str]) -> Representation:
    """Direct sum of indecomposable projectives, one per generator vertex;
    its arrow matrices are built only when read."""
    gens = tuple(gens)
    for v in gens:
        if not alg.quiver.has_vertex(v):
            raise QtiltError(f"unknown vertex {v}")
    dims = {w: sum(map(size.__getitem__, gens))
            for w, size in alg.block_sizes.items()}
    return Representation(alg, dims, None, proj_gens=gens, validate=False)


def proj(alg, v: str) -> Representation:
    """The indecomposable projective at a vertex, a fresh module on each
    call.  Its arrow matrices, the blocks of every free module, are built
    once per algebra and cached on it as matrices: an algebra's cache
    never holds a module, so nothing in it points back at the algebra.
    What is computed on the module (its dual, its resolution) lives as
    long as the caller keeps that module."""
    p = proj_sum(alg, [v])
    p._mats = dict(_proj_mats(alg, v))
    return p


def regular(alg) -> Representation:
    """The regular module, free on one generator per vertex; a fresh
    module on each call, like `proj`."""
    return proj_sum(alg, list(alg.quiver.vertices))


def dual(m: Representation) -> Representation:
    """The K-dual as a module over the opposite algebra: spaces keep their
    dimensions, arrow matrices transpose onto the reversed arrows.

    Cached on m (``m._cache["dual"]``), so everything computed on the
    dual, its minimal resolution first, is shared by every caller: the
    APR/BB checks, `injd` and `tau_n_minus` all resolve one DM.  The dual
    holds no reference back to m."""
    got = m._cache.get("dual")
    if got is None:
        opp = opposite(m.algebra)
        mats = {a.name: m.mats[a.name].transpose()
                for a in m.algebra.quiver.arrows}
        got = m._cache["dual"] = Representation(opp, dict(m.dims), mats,
                                                validate=False)
    return got


def inj(alg, v: str) -> Representation:
    """Indecomposable injective at a vertex: the dual of the projective at
    the same vertex over the opposite algebra.  A fresh module on each
    call, like `proj`; the transposed arrow matrices are cached on the
    algebra as data."""
    opp = opposite(alg)
    mats = alg._cache.get(("inj_mats", v))
    if mats is None:
        mats = alg._cache[("inj_mats", v)] = {
            name: m.transpose() for name, m in _proj_mats(opp, v).items()}
    return Representation(alg, {w: opp.block_sizes[w][v]
                                for w in alg.quiver.vertices}, mats,
                          validate=False)


def direct_sum(reps: Sequence[Representation]) -> Representation:
    """The direct sum, its matrices block-diagonal in the given order."""
    if not reps:
        raise QtiltError("direct sum of no modules")
    alg = reps[0].algebra
    for r in reps:
        if r.algebra is not alg:
            raise AlgebraMismatchError("direct sum across algebras")
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    mats = {a.name: block_diag(alg.field, [r.mats[a.name] for r in reps])
            for a in alg.quiver.arrows}
    return Representation(alg, dims, mats, validate=False)


# ---------------------------------------------------------------------------
# subquotients


def dual_free_kernel(p: Representation, rows) -> Representation:
    """The kernel of a map out of D p, the K-dual of a free module p over
    the opposite algebra, given at each vertex u by the sparse rows of its
    block (``rows[u]``, over p's coordinates at u); a module over the
    algebra.  The basis is the null vectors with entry 1 at one free
    coordinate and 0 at the others, so arrow a acts by the rows of D p's
    arrow at the free coordinates, which are the columns of p's arrow a
    read in place off the projectives, times the null vectors."""
    opp = p.algebra
    alg = opposite(opp)
    field = alg.field
    vecs = {u: _null_vectors(Matrix._raw(field, rows[u], p.dims[u]))
            for u in alg.quiver.vertices}
    basis_rows = {u: Matrix.from_sparse_cols(field, list(vs.values()),
                                             p.dims[u]).sparse_rows
                  for u, vs in vecs.items()}
    dims = {u: len(vs) for u, vs in vecs.items()}
    mats = {}
    for a in opp.quiver.arrows:     # a : t -> s here is s -> t over alg
        lines = _free_columns(p, a, list(vecs[a.source]))
        mats[a.name] = Matrix._raw(
            field, _product_rows(lines, basis_rows[a.target], field.char),
            dims[a.target])
    return Representation(alg, dims, mats, validate=False)


def _restricted(m: Representation, bases: Dict[str, Matrix], message: str):
    """(S, inclusion) for the subspaces of m spanned by the columns of
    ``bases[v]`` at each vertex: arrow a acts on S by the solution x of
    bases[t] x = m.mats[a] bases[s].  Raises QtiltError(message) when
    the subspaces are not arrow-stable."""
    alg = m.algebra
    mats = {}
    for a in alg.quiver.arrows:
        x = solve(bases[a.target], m.mats[a.name] * bases[a.source])
        if x is None:
            raise QtiltError(message)
        mats[a.name] = x
    s = Representation(alg, {v: b.ncols for v, b in bases.items()}, mats,
                       validate=False)
    return s, ModuleMap(s, m, dict(bases), validate=False)


def image_rep(f: ModuleMap):
    """(I, inclusion into the target)."""
    return _restricted(f.target, {v: column_space_basis(b)
                                  for v, b in f.blocks.items()},
                       "image is not arrow-stable")


def cokernel_rep(f: ModuleMap):
    """(C, projection from the target).  Quotient coordinates come from the
    left kernel of the image; the section is the standard vectors at the
    complementary positions, so entries stay small.  Only the target's
    arrow columns at those positions are read."""
    alg = f.source.algebra
    cds = {v: cokernel_data(f.blocks[v]) for v in alg.quiver.vertices}
    dims = {v: cds[v].projection.nrows for v in alg.quiver.vertices}
    mats = {}
    for a in alg.quiver.arrows:
        sect = _arrow_cols(f.target, a, cds[a.source].complement)
        mats[a.name] = cds[a.target].projection * sect
    c = Representation(alg, dims, mats, validate=False)
    projm = ModuleMap(f.target, c,
                      {v: cds[v].projection for v in alg.quiver.vertices},
                      validate=False)
    return c, projm


# ---------------------------------------------------------------------------
# top, radical, projective covers


def _top_sections(m: Representation):
    """Per vertex, the standard coordinates complementing the radical:
    their classes form a basis of the top.  They are the non-pivot columns
    of one echelon form whose rows, the columns of the incoming arrows,
    span the radical at the vertex."""
    alg = m.algebra
    out = {}
    for v in alg.quiver.vertices:
        radical = [col for a in alg.quiver.arrows_into(v)
                   for col in m.mats[a.name].sparse_columns()]
        pivots = set(pivot_columns(Matrix._raw(alg.field, radical, m.dims[v])))
        out[v] = tuple(j for j in range(m.dims[v]) if j not in pivots)
    return out


def _submodule_top(p: Representation, columns, free):
    """`_top_sections` of the submodule of the free module p with the
    canonical kernel basis columns[v] at each vertex v, free coordinates
    free[v].  Its vectors are fixed by their entries there, so each a.k
    (a an arrow into v, k at a's source, a's columns read in place) is
    read there: a column scaling of the radical, which moves no pivot."""
    alg = p.algebra
    char = alg.field.char
    out = {}
    for v in alg.quiver.vertices:
        at = {r: i for i, r in enumerate(free[v])}
        radical = []
        for a in alg.quiver.arrows_into(v) if at else ():
            ks = columns[a.source]
            if not ks:
                continue
            support = sorted({j for k in ks for j in k})
            lines = dict(zip(support, _free_columns(p, a, support)))
            for k in ks:
                acc = {}
                for j, c in k.items():
                    line, off = lines[j]
                    for r, y in line.items():
                        i = at.get(off + r)
                        if i is not None:
                            acc[i] = acc.get(i, 0) + c * y
                radical.append(_tidy(acc, char))
        pivots = set(pivot_columns(Matrix._raw(alg.field, radical, len(at))))
        out[v] = tuple(j for j in range(len(at)) if j not in pivots)
    return out


def _image_maps(p: Representation, n: Representation, images
                ) -> List[ModuleMap]:
    """The maps out of the free module p into n, map i sending generator k
    to images[i][k], a standard vector of n or zero, held by their images:
    one batch, whose blocks are built together when one map's are first
    read."""
    batch = list(images)
    maps = []
    for i, img in enumerate(batch):
        f = object.__new__(ModuleMap)
        f.source, f.target, f.images, f._blocks = p, n, img, (batch, i)
        maps.append(f)
    return maps


def _image_blocks(p: Representation, n: Representation, images
                  ) -> List[Dict[str, Matrix]]:
    """The blocks of the maps out of the free module p into n, map i
    sending generator k to images[i][k], the standard vector e_j of n or
    zero: its column at basis element x of generator k's block is column j
    of x's action on n.  So the blocks of all the maps are filled row by
    row, in one pass over the rows of each x's action, dropped once read."""
    uses = {}       # vertex v -> {coordinate j: [(map i, generator k)]}
    for i, img in enumerate(images):
        for k, (v, vec) in enumerate(zip(p.proj_gens, img)):
            for j in vec:
                uses.setdefault(v, {}).setdefault(j, []).append((i, k))
    alg, out = p.algebra, [{} for _ in images]
    for w in alg.quiver.vertices:
        offs = free_offsets(p, w)
        rows = [[{} for _ in range(n.dims[w])] for _ in images]
        for v, at in uses.items() if n.dims[w] else ():
            for t, x in enumerate(alg.block_indices(v, w)):
                for r, row in enumerate(_action_rows(n, x)):
                    for j, c in row.items():
                        for i, k in at.get(j, ()):
                            rows[i][r][offs[k] + t] = c
        for blocks, got in zip(out, rows):
            blocks[w] = Matrix._raw(alg.field, got, p.dims[w])
    return out


def _action_rows(m: Representation, x: int) -> List[Dict[int, object]]:
    """The sparse rows of basis element x's action matrix on m.  A free m
    whose arrow matrices are unbuilt keeps them so: its rows are read off
    the algebra's products."""
    alg, path = m.algebra, m.algebra.basis[x]
    if m._mats is not None:
        return m.act_path(path).sparse_rows
    # decoded before the rows are made, so that the passing list does not
    # sit above the rows of a projective, which the algebra caches
    coords = _free_coordinates(m, path.source)
    rows = [{} for _ in range(m.dims[path.target])]
    offs, pos = free_offsets(m, path.target), alg.block_pos
    for j, (k, y) in enumerate(coords):
        for z, d in alg.basis_product(x, y):
            rows[offs[k] + pos[z]][j] = d
    return rows


def _image_columns(p: Representation, n: Representation, images
                   ) -> Dict[str, List[Dict[int, object]]]:
    """The blocks of the map of free modules p -> n sending generator k to
    images[k], as vertex -> one sparse column per coordinate of p there:
    the column at basis element x of generator k's block is x.images[k],
    read off the algebra's products; a trivial path or an empty image
    gives the image itself."""
    if n.proj_gens is None:
        raise QtiltError("a map given by generator images needs a free "
                         "target")
    alg = p.algebra
    pos, char = alg.block_pos, alg.field.char
    coords = {v: _free_coordinates(n, v)
              for v in dict.fromkeys(p.proj_gens)}
    out = {}
    for w in alg.quiver.vertices:
        offs, cols = free_offsets(n, w), []
        for v, img in zip(p.proj_gens, images):
            for x in alg.block_indices(v, w):
                if not img or not alg.basis[x].arrows:
                    cols.append(img)
                    continue
                acc = {}
                for j, c in img.items():
                    k, y = coords[v][j]
                    for z, d in alg.basis_product(x, y):
                        at = offs[k] + pos[z]
                        acc[at] = acc.get(at, 0) + c * d
                cols.append(_tidy(acc, char))
        out[w] = cols
    return out


def projective_cover(m: Representation) -> ModuleMap:
    """The cover P(top m) -> m, held by its images (`_image_maps`): each
    generator goes to a standard vector at a top section, so the kernel
    sits inside rad P."""
    alg = m.algebra
    one = alg.field.one()
    sections = _top_sections(m)
    gens = []
    images = []
    for v in alg.quiver.vertices:
        for col in sections[v]:
            gens.append(v)
            images.append({col: one})
    # surjective by construction: the images lift a basis of the top
    return _image_maps(proj_sum(alg, gens), m, [images])[0]


# ---------------------------------------------------------------------------
# Hom spaces


def hom_space(m: Representation, n: Representation) -> List[ModuleMap]:
    """A basis of Hom(m, n): the maps of `_hom_basis`."""
    return _hom_basis(m, n)[0]


def _hom_basis(m: Representation, n: Representation):
    """(maps, positions): a basis of Hom(m, n) and, for each basis map i, a
    position (v, r, c, s) where map i has entry s in row r, column c of its
    block at v and every other basis map has 0.  So any f in Hom(m, n) has
    coordinate f_v[r][c] / s on map i.  Maps out of a free module are
    their generator images, with no solve (`_hom_from_projective`), all
    others solved for (`_hom_generic`); `_check_positions` guards every
    basis."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatchError("Hom between modules over different algebras")
    if m.proj_gens is not None:
        maps, positions = _hom_from_projective(m, n)
    else:
        maps, positions = _hom_generic(m, n)
    _check_positions(maps, positions)
    return maps, positions


def _own_columns(p: Representation) -> Dict[Tuple[str, int], int]:
    """(v, c) -> k for each generator k of p when p is free: c is generator
    k's own coordinate, the trivial path in its block at its vertex v,
    where a map's column is the generator's image.  Kept in ``p._cache``."""
    if p.proj_gens is None:
        return {}
    got = p._cache.get("own")
    if got is None:
        alg = p.algebra
        got = p._cache["own"] = {
            (v, free_offsets(p, v)[k]
             + alg.block_pos[alg.basis_index(Path.trivial(v))]): k
            for k, v in enumerate(p.proj_gens)}
    return got


def _check_positions(maps: Sequence[ModuleMap], positions):
    """Raise QtiltError unless each basis map reads as its own unit vector
    at the positions: entry s at its own, 0 at every other.  A map held by
    its images is read off them in a generator's own column, so the check
    builds no block."""
    own = _own_columns(maps[0].source) if maps else {}

    def entries(v, r, c):
        k = own.get((v, c))
        return [f.images[k].get(r, 0) if k is not None and f.images
                else f.blocks[v].sparse_rows[r].get(c, 0) for f in maps]

    d = len(maps)
    if d != len(positions) or any(
            not s or entries(v, r, c) != [0] * i + [s] + [0] * (d - i - 1)
            for i, (v, r, c, s) in enumerate(positions)):
        raise QtiltError("a Hom basis map does not read as its own unit "
                         "vector at the positions")


def _cochain_offsets(n: Representation, gens) -> Tuple[int, ...]:
    """Where each generator's block starts in Hom(P, n) for P free on the
    generators, in generator coordinates (the n-space at the generator's
    vertex); a last entry holds the dimension."""
    return (0, *accumulate(n.dims[v] for v in gens))


def _hom_from_projective(p: Representation, n: Representation):
    """One map per generator k of p and basis vector e_b of n at its
    vertex v, sending generator k to e_b and the others to 0: map
    `_cochain_offsets`[k] + b, held by its images (`_image_maps`).  Its
    position is row b of the block at v, in generator k's own column
    there, with entry 1."""
    one, none = p.algebra.field.one(), [{}] * len(p.proj_gens)
    images, positions = [], []
    for (v, c), k in _own_columns(p).items():
        for b in range(n.dims[v]):
            images.append(none[:k] + [{b: one}] + none[k + 1:])
            positions.append((v, b, c, one))
    return _image_maps(p, n, images), positions


def _hom_generic(m: Representation, n: Representation):
    """Hom(m, n) as the kernel of the intertwining system, with positions
    as in `_hom_basis`: unknown (v, r, c) is entry (r, c) of the block at
    v, at coordinate offsets[v] + r*m_v + c, and arrow a: s -> t
    contributes one row N_a f_s - f_t M_a per entry (r, c) of its
    n_t x m_s shape.  Rows are built from nonzeros only.  Kernel vector i
    has its scale at free coordinate i and 0 at the others, which gives
    its position."""
    alg = m.algebra
    field = alg.field
    p = field.char
    verts = alg.quiver.vertices
    offsets = {}
    coords = []                 # coordinate -> (vertex, row, column)
    for v in verts:
        offsets[v] = len(coords)
        coords.extend((v, r, c) for r in range(n.dims[v])
                      for c in range(m.dims[v]))
    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        ms, mt = m.dims[s], m.dims[t]
        n_rows = n.mats[a.name].sparse_rows
        m_cols = _arrow_columns(m, a.name)
        for r in range(n.dims[t]):
            for c in range(ms):
                acc = {offsets[s] + j * ms + c: x for j, x in n_rows[r].items()}
                for i, y in m_cols[c].items():
                    idx = offsets[t] + r * mt + i
                    acc[idx] = acc.get(idx, 0) - y
                row = _tidy(acc, p)
                if row:
                    rows.append(row)
    kd = kernel_data(Matrix._raw(field, rows, len(coords)))
    maps = []
    for vec in kd.columns:
        block_rows = {v: [{} for _ in range(n.dims[v])] for v in verts}
        for k, x in sorted(vec.items()):
            v, r, c = coords[k]
            block_rows[v][r][c] = x
        blocks = {v: Matrix._raw(field, block_rows[v], m.dims[v]) for v in verts}
        maps.append(ModuleMap(m, n, blocks, validate=False))
    return maps, [(*coords[k], s) for k, s in zip(kd.free, kd.scales)]


def _arrow_columns(m: Representation, name: str) -> List[Dict[int, object]]:
    """The columns of an arrow's matrix on m, read once per module and kept
    in ``m._cache`` as plain lists of dicts, which point back at nothing."""
    cols = m._cache.setdefault("arrow_cols", {})
    got = cols.get(name)
    if got is None:
        got = cols[name] = m.mats[name].sparse_columns()
    return got


def _column_reader(hs: Sequence[ModuleMap]):
    """col(b, v, c): column c of hs[b]'s block at v, as a sparse dict.  A
    map held by its images is read off them in a generator's own column,
    so no block is built; other columns come off the block, transposed
    once per map and vertex."""
    own = _own_columns(hs[0].source) if hs else {}
    cols = {}

    def col(b, v, c):
        k = own.get((v, c))
        if k is not None and hs[b].images is not None:
            return hs[b].images[k]
        if (b, v) not in cols:
            cols[b, v] = hs[b].blocks[v].sparse_columns()
        return cols[b, v][c]
    return col


def _composites(fs: Sequence[ModuleMap], hs: Sequence[ModuleMap],
                positions, field) -> Dict[Tuple[int, int], Dict[int, object]]:
    """{(a, b): coordinates of fs[a] o hs[b]} on a Hom basis with the given
    positions (see `_hom_basis`), as sparse dicts, zero composites left
    out.  The coordinate at (v, r, c, s) is row r of fs[a]'s block at v
    times column c of hs[b]'s (`_column_reader`), divided by s, so no map
    is composed."""
    col, out = _column_reader(hs), {}
    for i, (v, r, c, s) in enumerate(positions):
        rows = [(a, row) for a, f in enumerate(fs)
                if (row := f.blocks[v].sparse_rows[r])]
        if not rows:
            continue
        inv = field.inv(s)
        for b in range(len(hs)):
            column = col(b, v, c)
            for a, row in rows if column else ():
                x = sum(y * row[j] for j, y in column.items() if j in row)
                if x:
                    out.setdefault((a, b), {})[i] = x * inv
    return {ab: vec for ab, d in out.items() if (vec := _tidy(d, field.char))}


def _free_composites(p: Representation, modules, hs, groups, field):
    """{(i, j, a, b): coordinates of f_a o hs[i][b]} for f_a map a of
    `_hom_from_projective`(p, U_j) out of the free module p, hs[i] the
    basis of Hom(U_i, p) and groups[i, j] the positions of Hom(U_i, U_j)
    by (v, c), as (r, coordinate, 1/s) triples; zero composites left out.
    f_a sends generator k to e_a, so on a basis element x of generator
    k's block it is column a of x's action on U_j.  At (v, r, c, s) the
    composite reads, for each entry y at x of hs[i][b]'s column c
    (`_column_reader`), y / s times row r of x's action: the rows of each
    x on each U_j are read once and dropped, and no block of an f_a is
    built."""
    cols = [(i, _column_reader(h)) for i, h in enumerate(hs) if h]
    coords, entries, out = {}, {}, {}
    for j, n in enumerate(modules):
        start = _cochain_offsets(n, p.proj_gens)
        reads = {}      # x -> [(f_0 offset, i, b, y, [(r, coordinate, 1/s)])]
        for i, col in cols:
            for (v, c), rows_at in groups[i, j].items():
                got = entries.get((i, v, c))
                if got is None:     # (b, k, x, y) for y at x in column c
                    if v not in coords:
                        coords[v] = _free_coordinates(p, v)
                    got = entries[i, v, c] = [
                        (b, *coords[v][e], y) for b in range(len(hs[i]))
                        for e, y in col(b, v, c).items()]
                for b, k, x, y in got:
                    reads.setdefault(x, []).append(
                        (start[k], i, b, y, rows_at))
        for x, uses in reads.items():
            rows = _action_rows(n, x)
            for f0, i, b, y, rows_at in uses:
                cells = out.setdefault((i, j, b), {})
                for r, at, inv in rows_at:
                    z = y * inv
                    for a, d in rows[r].items():
                        got = cells.get(f0 + a)
                        if got is None:
                            got = cells[f0 + a] = {}
                        got[at] = got.get(at, 0) + d * z
    return {(i, j, a, b): vec for (i, j, b), cells in out.items()
            for a, d in cells.items()
            if (vec := _tidy(dict(sorted(d.items())), field.char))}


def linear_combination(coeffs: Dict[int, object], maps: Sequence[ModuleMap]
                       ) -> Optional[ModuleMap]:
    """sum_i coeffs[i] maps[i] over a sparse coefficient dict (position ->
    entry), or None when every coefficient is zero."""
    f = None
    for i, c in sorted(coeffs.items()):
        if c != 0:
            f = maps[i].scale(c) if f is None else f + maps[i].scale(c)
    return f


def endomorphism_blocks(modules: Sequence[Representation]):
    """End(U_0 + ... + U_k) on its Hom-block basis: ``blocks`` lists
    (i, j, f) for each basis map f : U_i -> U_j, the sparse row
    ``table[x]`` maps each y with f_x o f_y != 0, ascending, to its
    coordinates and ``identities[i]`` holds those of the identity of U_i,
    as sparse dicts.  Every cell is read at the positions of its Hom
    block, through a free U_k off the action rows on U_j
    (`_free_composites`), otherwise off rows and columns of the factors
    (`_composites`); every identity at the positions with row equal to
    column.  No block of a map out of a free module is built."""
    field = modules[0].algebra.field
    homs = {(i, j): _hom_basis(ui, uj) for i, ui in enumerate(modules)
            for j, uj in enumerate(modules)}
    blocks, start = [], {}
    for (i, j), (maps, _) in homs.items():
        start[i, j] = len(blocks)
        blocks.extend((i, j, f) for f in maps)
    table: List[Dict[int, Dict[int, object]]] = [{} for _ in blocks]
    # f o h for f : U_k -> U_j and h : U_i -> U_k lies in the (i, j) block
    ks = range(len(modules))
    groups = {}
    for (i, j), (_, positions) in homs.items():
        at = groups[i, j] = {}
        for x, (v, r, c, s) in enumerate(positions):
            at.setdefault((v, c), []).append((r, x, field.inv(s)))
    for k, uk in enumerate(modules):
        if uk.proj_gens is not None:
            cells = _free_composites(uk, modules, [homs[i, k][0] for i in ks],
                                     groups, field).items()
        else:
            cells = [((i, j, a, b), vec) for i in ks if homs[i, k][0]
                     for j in ks for (a, b), vec in _composites(
                         homs[k, j][0], homs[i, k][0], homs[i, j][1],
                         field).items()]
        for (i, j, a, b), vec in cells:
            table[start[k, j] + a][start[i, k] + b] = {
                start[i, j] + x: c for x, c in vec.items()}
    identities = [{start[k, k] + x: field.inv(s)
                   for x, (_, r, c, s) in enumerate(homs[k, k][1]) if r == c}
                  for k in ks]
    return blocks, [dict(sorted(row.items())) for row in table], identities


def endomorphism_algebra(m: Representation):
    """(StructureConstantAlgebra of End(m) with composition product,
    basis maps): `endomorphism_blocks` on the one module m."""
    blocks, table, (unit,) = endomorphism_blocks([m])
    sca = StructureConstantAlgebra(m.algebra.field, table, unit)
    return sca, [f for _, _, f in blocks]


# ---------------------------------------------------------------------------
# decomposition and isomorphism


def decompose(m: Representation) -> List[Tuple[Representation, int]]:
    """The indecomposable summands of m, each with its multiplicity, via
    primitive idempotents of the endomorphism algebra.  Characteristic
    zero, split quotients only."""
    if m.is_zero():
        return []
    sca, basis = endomorphism_algebra(m)
    if sca.dim == 1:
        return [(m, 1)]
    summands: List[Tuple[Representation, int]] = []
    for vec in primitive_orthogonal_idempotents(sca):
        e = linear_combination(vec, basis)
        if e is None:
            raise QtiltError("zero idempotent in a decomposition")
        piece = image_rep(e)[0]
        for i, (rep, mult) in enumerate(summands):
            if is_isomorphic(rep, piece):
                summands[i] = (rep, mult + 1)
                break
        else:
            summands.append((piece, 1))
    verts = m.algebra.quiver.vertices
    if tuple(sum(mult * rep.dims[v] for rep, mult in summands)
             for v in verts) != m.dim_vector():
        raise QtiltError("decomposition does not re-sum to the module")
    return summands


# the most coefficient vectors `is_isomorphic` tries on its grid
ISO_GRID_LIMIT = 20000


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Decide isomorphism by searching Hom(m, n) for an invertible map:
    20 random combinations drawn from a fresh `random.Random(0)` first,
    then, when Hom(n, m) has the same dimension d, every combination with
    coefficients in -2..2.  Raises UndecidedIsomorphismError when that
    grid's 5^d points exceed `ISO_GRID_LIMIT`."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatchError("modules over different algebras")
    if m.dim_vector() != n.dim_vector():
        return False
    if m.is_zero():
        return True
    homs = hom_space(m, n)
    if not homs:
        return False
    d = len(homs)

    def invertible(coeffs) -> bool:
        f = linear_combination(dict(enumerate(coeffs)), homs)
        return f is not None and f.is_isomorphism()

    rnd = random.Random(0)
    for _ in range(20):
        if invertible([rnd.randint(-3, 3) for _ in range(d)]):
            return True
    # necessary conditions before the expensive exhaustive fallback
    if len(hom_space(n, m)) != d:
        return False
    if 5 ** d > ISO_GRID_LIMIT:
        raise UndecidedIsomorphismError(
            f"hom space dimension {d} exceeds the exhaustive search budget")
    for coeffs in product(range(-2, 3), repeat=d):
        if invertible(coeffs):
            return True
    return False


# ---------------------------------------------------------------------------
# seeded random modules


def random_module(alg, seed: int, max_dim: int = 3) -> Representation:
    """Deterministic pseudo-random module.  Relation-free algebras get
    random matrices directly; otherwise a random quotient of a small
    projective sum p (always satisfies the relations): the cokernel of
    the free map into p sending one generator to each random vector,
    read with `_image_columns`."""
    rnd = random.Random(seed)
    field = alg.field
    if not alg.relations:
        for _ in range(50):
            dims = {v: rnd.randint(0, max_dim) for v in alg.quiver.vertices}
            if sum(dims.values()) == 0:
                continue
            mats = {}
            for a in alg.quiver.arrows:
                rows = [[field.canon(rnd.randint(-2, 2) if rnd.random() < 0.7 else 0)
                         for _ in range(dims[a.source])]
                        for _ in range(dims[a.target])]
                mats[a.name] = Matrix(field, rows, ncols=dims[a.source])
            return Representation(alg, dims, mats)
        raise QtiltError("random module generation failed")
    for _ in range(50):
        gens = []
        for v in alg.quiver.vertices:
            gens.extend([v] * rnd.randint(0, 2))
        if not gens:
            continue
        p = proj_sum(alg, gens)
        at, images = [], []
        for _ in range(1 + rnd.randint(0, 2)):
            v = rnd.choice(alg.quiver.vertices)
            if p.dims[v] == 0:
                continue
            at.append(v)
            images.append({i: c for i in range(p.dims[v])
                           if (c := field.canon(rnd.randint(-2, 2)))})
        if not at:
            continue
        free = proj_sum(alg, at)
        cols = _image_columns(free, p, images)
        quot, _ = cokernel_rep(ModuleMap(
            free, p, {w: Matrix.from_sparse_cols(field, cols[w], p.dims[w])
                      for w in alg.quiver.vertices}, validate=False))
        if not quot.is_zero():
            return quot
    raise QtiltError("random module generation failed")
