"""Reference implementations the tests compare the library against.

Each is a second route to something the library computes another way,
or a constructor only tests need:
- `ext_module` reads Ext^p(M, algebra) as a module over the opposite
  algebra, a kernel modulo an image of the dualized differentials built
  as maps; `tau_n_ext` and `tau_n_minus_ext` are the Ext forms of the
  translates, which agree with `tau_n` and `tau_n_minus` when the global
  dimension is at most n;
- `kernel_rep` restricts a module to the vertexwise kernels of a map,
  the module route to the syzygies a resolution keeps in its free terms;
- `proj_map_from_images` builds a map of free modules from its generator
  images as matrices;
- `hstack` and `vstack` stack matrices; `regular_structure_algebra` and
  `injective_cogenerator` build the regular algebra's table and DA;
- `structure_algebra` and `sparse_element` read a multiplication table
  and elements given with dense or dict cells, and `kernel_matrix` puts
  a kernel basis in a matrix;
- `transpose` reads Tr M as D tau_1 M, the Tr Tr oracle on stable
  modules;
- `opposite_by_closure` builds the opposite algebra from its reversed
  relations, a second `IdealClosure`, where `opposite` reverses the
  algebra's closed span; `paths_of_degree` walks every path of a degree
  up from the arrows, where the library extends the paths a degree
  shorter;
- `tensor_maps` is the vertexwise Kronecker product of two maps, and
  `tensor_resolution` assembles the minimal resolution of M (x) N from
  the factor resolutions, the factorized route to what the product
  algebra resolves from scratch.
"""

from typing import Sequence, Tuple

from qtilt.errors import InconclusiveError, QtiltError, ShapeMismatchError
from qtilt.exactla import (Matrix, _check_same_field, _tidy, kernel_data,
                           kron, solve)
from qtilt.homengine import (DEFAULT_BOUND, MinimalResolution,
                             _dualized_elements, _require_depth, is_finite,
                             min_proj_resolution, pd, tau_n)
from qtilt.quivercore import (BoundQuiverAlgebra, Path, PathSum, Quiver,
                              StructureConstantAlgebra, build_algebra,
                              opposite)
from qtilt.repcore import (ModuleMap, Representation, _image_columns,
                           _restricted, cokernel_rep, dual, free_offsets,
                           proj_sum, regular, zero_rep)
from qtilt.tensorcon import (TensorAlgebraResult, _lift_left_path,
                             _lift_right_path, _vname, tensor_modules)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeMismatchError("hstack of no matrices")
    out = mats[0]
    for m in mats[1:]:
        out = out.stack_right(m)
    return out


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeMismatchError("vstack of no matrices")
    out = mats[0]
    for m in mats[1:]:
        _check_same_field(out, m)
        if out.ncols != m.ncols:
            raise ShapeMismatchError("vstack column mismatch")
        out = Matrix._raw(out.field,
                          list(out.sparse_rows) + list(m.sparse_rows),
                          out.ncols)
    return out


def sparse_element(field, x):
    """x, a dense sequence or a dict index -> entry, as a dict of its
    nonzero canonical entries."""
    items = x.items() if isinstance(x, dict) else enumerate(x)
    return _tidy({k: field.canon(c) for k, c in items if c}, field.char)


def structure_algebra(field, table, unit, validate: bool = True
                      ) -> StructureConstantAlgebra:
    """The algebra with e_i * e_j = table[i][j], its cells and unit dense
    sequences or dicts."""
    cells = [{j: cell for j, cell in enumerate(
        sparse_element(field, x) for x in row) if cell} for row in table]
    return StructureConstantAlgebra(field, cells,
                                    sparse_element(field, unit), validate)


def regular_structure_algebra(alg: BoundQuiverAlgebra
                              ) -> StructureConstantAlgebra:
    """The same algebra repackaged as an abstract multiplication table."""
    n = alg.dim
    table = [[dict(alg.basis_product(i, j)) for j in range(n)]
             for i in range(n)]
    return structure_algebra(alg.field, table, alg.unit, validate=False)


def kernel_matrix(m: Matrix) -> Matrix:
    """The basis of `kernel_data` as the columns of a matrix."""
    return Matrix.from_sparse_cols(m.field, kernel_data(m).columns, m.ncols)


def injective_cogenerator(alg) -> Representation:
    """Direct sum of all indecomposable injectives (the dual of the
    regular module of the opposite algebra), a fresh module on each
    call."""
    return dual(regular(opposite(alg)))


def kernel_rep(f: ModuleMap):
    """(K, inclusion) with K the vertexwise kernel of f, arrows restricted."""
    return _restricted(f.source, {v: kernel_matrix(b)
                                  for v, b in f.blocks.items()},
                       "kernel is not arrow-stable")


def proj_map_from_images(p: Representation, n: Representation, images
                         ) -> ModuleMap:
    """The map of free modules p -> n sending generator k to the vector
    images[k] of n at the generator's vertex, given sparse as a dict
    coordinate -> nonzero entry: `_image_columns` as matrices."""
    field = p.algebra.field
    return ModuleMap(p, n, {w: Matrix.from_sparse_cols(field, c, n.dims[w])
                            for w, c in _image_columns(p, n, images).items()},
                     validate=False)


def _dualized_differential(res: MinimalResolution, i: int) -> ModuleMap:
    """Hom(-, algebra) applied to the differential terms[i] -> terms[i-1]:
    a map of projective sums over the opposite algebra.  `tau_n` reads the
    same blocks as columns."""
    return proj_map_from_images(*_dualized_elements(res, i))


def ext_module(m: Representation, p: int, maxlen: int = DEFAULT_BOUND
               ) -> Representation:
    """Ext^p(m, algebra) with its right-module structure, returned as a
    representation of the opposite algebra: the cohomology
    ker d_{p+1}^* / im d_p^* of the dualized resolution complex.  Its
    dual is ker nu(d_p) / im nu(d_{p+1}), a kernel modulo an image, so
    unlike `tau_n` it cannot be read as one kernel."""
    alg = m.algebra
    opp = opposite(alg)
    if m.is_zero():
        return zero_rep(opp)
    res = _require_depth(m, p + 1, maxlen)
    if p > res.length and res.terminated:
        return zero_rep(opp)
    out_map = _dualized_differential(res, p + 1)
    kernel, incl = kernel_rep(out_map)
    if p == 0:
        return kernel
    in_map = _dualized_differential(res, p)
    # factor the incoming map through the kernel (d* d* = 0)
    blocks = {}
    for v in opp.quiver.vertices:
        x = solve(incl.blocks[v], in_map.blocks[v])
        if x is None:
            raise QtiltError("dualized complex is not a complex")
        blocks[v] = x
    factored = ModuleMap(in_map.source, kernel, blocks, validate=False)
    quotient, _ = cokernel_rep(factored)
    return quotient


def tau_n_ext(m: Representation, n: int, maxlen: int = DEFAULT_BOUND
              ) -> Representation:
    """The Ext form of tau_n: the dual of Ext^n(m, algebra).  Agrees with
    tau_n when the global dimension is at most n."""
    return dual(ext_module(m, n, maxlen))


def tau_n_minus_ext(m: Representation, n: int, maxlen: int = DEFAULT_BOUND
                    ) -> Representation:
    """The Ext form of tau_n^-: Ext^n over the opposite algebra of the
    dual, against that algebra."""
    return ext_module(dual(m), n, maxlen)


def transpose(m: Representation) -> Representation:
    """Tr M = coker(d_1^*) over the opposite algebra, read as D tau_1 M:
    tau_1 = D Tr, so the cokernel is never built.  Minimality of the
    presentation keeps the result free of spurious projective summands."""
    return dual(tau_n(m, 1))


def opposite_by_closure(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """The opposite algebra built from scratch: the reversed relations on
    the reversed quiver through `build_algebra`.  A fresh algebra, not the
    one `opposite` keeps."""
    orels = [PathSum(alg.field, r.reversed()) for r in alg.relations]
    return build_algebra(alg.quiver.opposite(), orels, alg.field,
                         alg.maxdeg, alg.name + "_op")


def paths_of_degree(quiver: Quiver, d: int):
    """Every path of degree d, in `Path.sort_key` order from degree 1 on,
    each degree walked up from the arrows."""
    if d == 0:
        return [Path.trivial(v) for v in quiver.vertices]
    cur = [Path.from_arrow(a) for a in quiver.arrows]
    for _ in range(d - 1):
        cur = [Path((a.name,) + p.arrows, p.source, a.target)
               for p in cur for a in quiver.arrows if a.source == p.target]
    return sorted(cur, key=Path.sort_key)


def tensor_maps(t: TensorAlgebraResult, f: ModuleMap, g: ModuleMap,
                validate: bool = True) -> ModuleMap:
    """Vertexwise Kronecker product of two module maps."""
    source = tensor_modules(t, f.source, g.source, validate=False)
    target = tensor_modules(t, f.target, g.target, validate=False)
    blocks = {}
    for u in t.left.quiver.vertices:
        for v in t.right.quiver.vertices:
            blocks[_vname(u, v)] = kron(f.blocks[u], g.blocks[v])
    return ModuleMap(source, target, blocks, validate=validate)


def tensor_resolution(t: TensorAlgebraResult, m: Representation,
                      n: Representation, upto: int
                      ) -> Tuple[Representation, MinimalResolution]:
    """(M (x) N, its minimal resolution): the tensor of the factor minimal
    resolutions, as generator images.  Generator (a, b), a of degree i, at
    (u_a, v_b) maps to d(a) (x) b + (-1)^i a (x) d(b), factor paths lifted
    along the other factor's vertex; in degree 0 to the Kronecker product
    of the factor standard vectors.  It is minimal as rad(A (x) B) =
    rad A (x) B + A (x) rad B, and cached on the product, so tau_n(product,
    n+m) is the factorized translate.  Keep the product while reading it.
    A factor unresolved within upto steps raises InconclusiveError."""
    for f in (m, n):
        if not is_finite(pd(f, upto)):
            raise InconclusiveError(
                f"a factor resolution has not terminated within {upto} "
                f"steps; raise the bound")
    resm, resn = min_proj_resolution(m, upto), min_proj_resolution(n, upto)
    product = tensor_modules(t, m, n, validate=False)
    res = MinimalResolution(product)
    product._cache["minres"] = res
    if res.terminated:          # a zero factor
        return product, res
    alg, pos = t.algebra, t.algebra.block_pos
    gm = [resm.generators(i) for i in range(resm.length + 1)]
    gn = [resn.generators(j) for j in range(resn.length + 1)]
    dm, dn = ([_by_generator(r, i) for i in range(r.length + 1)]
              for r in (resm, resn))
    pairs = [[(i, a, d - i, b)
              for i in range(max(0, d - resn.length), min(d, resm.length) + 1)
              for a in range(len(gm[i])) for b in range(len(gn[d - i]))]
             for d in range(resm.length + resn.length + 1)]
    res.terms = [proj_sum(alg, [_vname(gm[i][a], gn[j][b])
                                for i, a, j, b in gens]) for gens in pairs]
    res.images = [[]]
    for _, a, _, b in pairs[0]:     # Kronecker products of standard vectors
        (x,), (y,) = resm.images[0][a], resn.images[0][b]
        res.images[0].append({x * n.dims[gn[0][b]] + y: 1})
    for d in range(1, len(pairs)):
        where = {g: k for k, g in enumerate(pairs[d - 1])}
        images = []
        for i, a, j, b in pairs[d]:
            u, v = gm[i][a], gn[j][b]
            parts = [(where[i - 1, k, j, b], c,
                      _lift_left_path(t.left.basis[x], v))
                     for k, el in dm[i][a] for x, c in el.items()]
            parts += [(where[i, a, j - 1, k], -c if i % 2 else c,
                       _lift_right_path(u, t.right.basis[y]))
                      for k, el in dn[j][b] for y, c in el.items()]
            offs, img = free_offsets(res.terms[d - 1], _vname(u, v)), {}
            for k, c, path in parts:
                for z, e in alg.normal_form(path).items():
                    at = offs[k] + pos[z]
                    img[at] = img.get(at, 0) + c * e
            images.append(dict(sorted(_tidy(img, alg.field.char).items())))
        res.images.append(images)
    res.terminated = True
    return product, res


def _by_generator(res: MinimalResolution, i: int):
    """Per generator l of terms[i], the (k, element) pairs of its image
    under the differential terms[i] -> terms[i-1]."""
    out = [[] for _ in res.generators(i)]
    for (k, l), x in res.presentation_elements(i).items():
        out[l].append((k, x))
    return out
