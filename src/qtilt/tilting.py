"""Higher APR / BB tilting modules: condition checking, construction,
generalized-tilting certification, endomorphism algebras, and bound quiver
presentations of the resulting tilt algebras.

Conventions: a candidate at a vertex means the simple (or the
indecomposable projective) there.  Ext against the injective cogenerator
DA is read through the duality D, which sends DA to the opposite
algebra's regular module: Ext^i(DA, X) = Ext^i(DX, A^op) over the
opposite algebra, so a check resolves the small module DX once and never
builds or resolves DA.  Constructed modules keep their summand
labels so presentations can name the tilt's vertices after them; the
translate summand inherits the replaced vertex's label.
"""

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (InconclusiveError, NonSplitError, QtiltError,
                     UnsupportedCharacteristicError)
from .exactla import Matrix, Span, kernel_data
from .homengine import (DEFAULT_BOUND, ext_dim, injd, is_finite, pd, tau_n,
                        tau_n_minus)
from .quivercore import (Arrow, BoundQuiverAlgebra, IdealClosure, Path,
                         PathSum, Quiver, StructureConstantAlgebra,
                         _bound_quotient, _check_idempotents,
                         _longer_paths, abstract_radical, opposite,
                         semisimple_and_basic_flags)
from .repcore import (ModuleMap, Representation, _composites, _hom_basis,
                      cokernel_rep, decompose, direct_sum, dual,
                      endomorphism_algebra, endomorphism_blocks, hom_space,
                      inj, is_isomorphic, linear_combination, proj, regular,
                      simple, zero_rep)


def _require_basic(alg: BoundQuiverAlgebra):
    _, basic = semisimple_and_basic_flags(alg)
    if not basic:
        raise QtiltError("tilting checks need a basic algebra")


class AprReport:
    """Verdicts for the higher-translate tilting conditions at a vertex:
    the projective must be simple, Ext^i against the injective cogenerator
    must vanish below n, and for the full (non-weak) property its
    injective dimension must equal n.  ``projective`` is P_v, whose
    cached dual D P_v holds the minimal resolution the check made."""

    def __init__(self, algebra, vertex, n):
        self.algebra = algebra
        self.vertex = vertex
        self.n = n
        self.simple_projective = False
        self.ext_dims: List[Tuple[int, int]] = []
        self.weak = False
        self.injective_dimension = None
        self.full = False
        self.summands: Optional[List[Tuple[str, Representation]]] = None
        self.projective: Optional[Representation] = None

    def verdict_lines(self) -> List[str]:
        out = [("simple_projective", self.simple_projective,
                f"P({self.vertex})")]
        ok = all(d == 0 for _, d in self.ext_dims)
        detail = ",".join(f"Ext^{i}={d}" for i, d in self.ext_dims)
        out.append(("ext_vanishing", ok, detail or "none"))
        out.append(("weak", self.weak, f"n={self.n}"))
        out.append(("injective_dimension",
                    self.injective_dimension == self.n,
                    f"id={self.injective_dimension}"))
        out.append(("full", self.full, f"n={self.n}"))
        return [f"verdict {name} {'pass' if ok_ else 'fail'} {d}"
                for name, ok_, d in out]


def _construct(report, x, maxlen):
    """Give report the summands of the tilting module T = tau_n^-(x) + (the
    projectives at the other vertices), each labelled by its vertex."""
    alg, v = report.algebra, report.vertex
    report.summands = [(v, tau_n_minus(x, report.n, maxlen))] + [
        (w, proj(alg, w)) for w in alg.quiver.vertices if w != v]


def apr_check(alg: BoundQuiverAlgebra, v: str, n: int,
              construct: bool = True, maxlen: int = DEFAULT_BOUND
              ) -> AprReport:
    """Check the translate-tilting conditions at a vertex and, on a weak
    pass, build T = tau_n^-(P) + (sum of the other projectives).

    Ext^i(DA, P) is computed as Ext^i(DP, A^op) over the opposite algebra.
    The one minimal resolution of DP (cached with the dual on P), grown
    at most maxlen steps, also serves `injd` (the projective dimension of
    DP) and `tau_n_minus`."""
    _require_basic(alg)
    if not alg.quiver.has_vertex(v):
        raise QtiltError(f"unknown vertex {v}")
    if n < 1:
        raise QtiltError("n must be at least 1")
    report = AprReport(alg, v, n)
    p = report.projective = proj(alg, v)
    report.simple_projective = p.total_dim() == 1
    dp = dual(p)
    opp_regular = regular(opposite(alg))
    report.ext_dims = [(i, ext_dim(dp, opp_regular, i, maxlen))
                       for i in range(n)]
    report.weak = report.simple_projective and \
        all(d == 0 for _, d in report.ext_dims)
    report.injective_dimension = injd(p, maxlen)
    report.full = report.weak and report.injective_dimension == n
    if report.weak and construct:
        _construct(report, p, maxlen)
    return report


class BbReport:
    """Verdicts for the simple-module tilting conditions: Ext against the
    injective cogenerator vanishes below n and the simple is orthogonal to
    itself in degrees 1..n."""

    def __init__(self, algebra, vertex, n):
        self.algebra = algebra
        self.vertex = vertex
        self.n = n
        self.cogenerator_ext_dims: List[Tuple[int, int]] = []
        self.self_ext_dims: List[Tuple[int, int]] = []
        self.passes = False
        self.summands: Optional[List[Tuple[str, Representation]]] = None

    def verdict_lines(self) -> List[str]:
        ok1 = all(d == 0 for _, d in self.cogenerator_ext_dims)
        ok2 = all(d == 0 for _, d in self.self_ext_dims)
        l1 = ",".join(f"Ext^{i}={d}" for i, d in self.cogenerator_ext_dims)
        l2 = ",".join(f"Ext^{i}={d}" for i, d in self.self_ext_dims)
        return [
            f"verdict cogenerator_ext {'pass' if ok1 else 'fail'} {l1 or 'none'}",
            f"verdict self_ext {'pass' if ok2 else 'fail'} {l2 or 'none'}",
            f"verdict bb {'pass' if self.passes else 'fail'} n={self.n}",
        ]


def bb_check(alg: BoundQuiverAlgebra, v: str, n: int,
             construct: bool = True, maxlen: int = DEFAULT_BOUND) -> BbReport:
    """Check the simple-module tilting conditions at a vertex; on a pass
    build T = tau_n^-(S) + (sum of the non-cover projectives).

    Both Ext lists are read off the one minimal resolution of DS over the
    opposite algebra: Ext^i(DA, S) = Ext^i(DS, A^op) and
    Ext^i(S, S) = Ext^i(DS, DS); `tau_n_minus` reads it again.  Every
    resolution grows at most maxlen steps.  The global dimension is not
    read: no verdict uses it, and `gldim` would resolve every simple."""
    _require_basic(alg)
    if not alg.quiver.has_vertex(v):
        raise QtiltError(f"unknown vertex {v}")
    if n < 1:
        raise QtiltError("n must be at least 1")
    report = BbReport(alg, v, n)
    s = simple(alg, v)
    ds = dual(s)
    opp_regular = regular(opposite(alg))
    report.cogenerator_ext_dims = [(i, ext_dim(ds, opp_regular, i, maxlen))
                                   for i in range(n)]
    report.self_ext_dims = [(i, ext_dim(ds, ds, i, maxlen))
                            for i in range(1, n + 1)]
    report.passes = all(d == 0 for _, d in report.cogenerator_ext_dims) and \
        all(d == 0 for _, d in report.self_ext_dims)
    if report.passes and construct:
        _construct(report, s, maxlen)
    return report


# ---------------------------------------------------------------------------
# generalized tilting certificates


class TiltingCertificate:
    def __init__(self, m):
        self.m = m
        self.pd_value = None
        self.pd_ok = False
        self.self_ext_dims: List[Tuple[int, int]] = []
        self.self_ext_ok = False
        self.coresolution_length = 0
        self.failure_stage: Optional[int] = None
        self.failure_reason: Optional[str] = None
        self.passed = False

    def verdict_lines(self) -> List[str]:
        lines = [
            f"verdict pd {'pass' if self.pd_ok else 'fail'} "
            f"pd={self.pd_value} m={self.m}",
            f"verdict self_orthogonal {'pass' if self.self_ext_ok else 'fail'} "
            + (",".join(f"Ext^{i}={d}" for i, d in self.self_ext_dims) or "none"),
        ]
        if self.failure_stage is None:
            lines.append(
                f"verdict coresolution pass length={self.coresolution_length}")
        else:
            lines.append(
                f"verdict coresolution fail stage={self.failure_stage} "
                f"{self.failure_reason}")
        lines.append(f"verdict tilting {'pass' if self.passed else 'fail'} "
                     f"m={self.m}")
        return lines


def _radical_maps(summand_reps: Sequence[Representation]):
    """(maps, tops): for each U_i and each U_j, maps[i][j] are maps
    U_j -> U_i: a basis of the radical of End(U_i) for j = i, of
    Hom(U_j, U_i) otherwise, which together span the radical of the
    additive closure when the U are pairwise non-isomorphic
    indecomposables.  tops[i] is the dimension of End(U_i) modulo its
    radical, 1 exactly when End(U_i) is local with the field as its top.
    Neither depends on the module approximated, so a coresolution builds
    them once."""
    maps, tops = [], []
    for i, u in enumerate(summand_reps):
        sca, basis = endomorphism_algebra(u)
        rad = [linear_combination(vec, basis) for vec in abstract_radical(sca)]
        maps.append([rad if j == i else hom_space(uj, u)
                     for j, uj in enumerate(summand_reps)])
        tops.append(sca.dim - len(rad))
    return maps, tops


def _summand_fault(summand_reps, tops) -> Optional[str]:
    """Why the U are not pairwise non-isomorphic indecomposables with
    local endomorphism rings of top the field (their `_radical_maps`
    tops given), naming the first failing summand by its position from
    1; None when they are."""
    for i, (u, top) in enumerate(zip(summand_reps, tops), 1):
        if top != 1:
            return f"summand {i} has End/rad of dimension {top}, not 1"
        for j, earlier in enumerate(summand_reps[:i - 1], 1):
            if is_isomorphic(earlier, u):
                return f"summand {i} is isomorphic to summand {j}"
    return None


def _left_approximation(x, summand_reps, radical_maps):
    """Minimal left approximation of x by the additive closure of the given
    pairwise non-isomorphic indecomposables, with their `_radical_maps`
    given: pick hom generators modulo the radical composites, one block at
    a time, in the coordinates of each Hom(x, U_i) basis, where basis map
    k is the unit vector {k: 1}.  The map into the sum of the chosen
    targets stacks the chosen maps' block rows."""
    field = x.algebra.field
    homs = [_hom_basis(x, u) for u in summand_reps]
    chosen: List[Tuple[int, ModuleMap]] = []
    for i in range(len(summand_reps)):
        maps, positions = homs[i]
        if not maps:
            continue
        span = Span(field)
        for j, rs in enumerate(radical_maps[i]):
            for vec in _composites(rs, homs[j][0], positions, field).values():
                span.add(vec)
        for k, g in enumerate(maps):
            if span.add({k: 1}):
                chosen.append((i, g))
    if not chosen:
        return ModuleMap.zero(x, zero_rep(x.algebra))
    target = direct_sum([summand_reps[i] for i, _ in chosen])
    blocks = {v: Matrix._raw(field, [row for _, g in chosen
                                     for row in g.blocks[v].sparse_rows],
                             x.dims[v])
              for v in x.algebra.quiver.vertices}
    return ModuleMap(x, target, blocks, validate=False)


def verify_tilting(alg: BoundQuiverAlgebra,
                   summands: Sequence[Tuple[Representation, int]], m: int,
                   maxlen: int = DEFAULT_BOUND) -> TiltingCertificate:
    """Certify the generalized tilting conditions for T, the direct sum of
    the given (module, multiplicity) summands: projective dimension at
    most m, self-orthogonality in all positive degrees (complete once
    checked up to pd), and a coresolution of the regular module by the
    additive closure, built from minimal left approximations; the
    summands' radical maps and cross Hom bases are built once for all its
    stages.  The modules must be pairwise non-isomorphic
    indecomposables with local endomorphism rings of top the field, as
    `decompose` returns them: that is checked on each summand's own End,
    and a failure fails the coresolution at stage 0, naming the summand.
    The resolution of T grows at most maxlen steps: a pd past a bound
    below m raises InconclusiveError, and past a bound at or above m
    self-Ext is read only in degrees below the bound."""
    if m < 0:
        raise QtiltError(f"m must be >= 0, got {m}")
    summand_reps = [rep for rep, _ in summands]
    parts = [rep for rep, mult in summands for _ in range(mult)]
    t = direct_sum(parts) if parts else zero_rep(alg)
    cert = TiltingCertificate(m)
    cert.pd_value = pd(t, maxlen)
    if not is_finite(cert.pd_value) and maxlen < m:
        raise InconclusiveError(
            f"projective dimension exceeds the resolution bound {maxlen}, "
            f"below m={m}; raise the bound")
    cert.pd_ok = is_finite(cert.pd_value) and cert.pd_value <= m
    # an infinite pd at a bound >= m has failed: read Ext below the bound
    top_degree = (cert.pd_value if is_finite(cert.pd_value)
                  else min(m, maxlen - 1))
    cert.self_ext_dims = [(i, ext_dim(t, t, i, maxlen))
                          for i in range(1, top_degree + 1)]
    cert.self_ext_ok = all(d == 0 for _, d in cert.self_ext_dims)
    radical_maps, tops = _radical_maps(summand_reps)
    cert.failure_reason = _summand_fault(summand_reps, tops)
    if cert.failure_reason is not None:
        cert.failure_stage = 0
    x = regular(alg)
    for stage in range(m + 1):
        if x.is_zero() or cert.failure_stage is not None:
            break
        fmap = _left_approximation(x, summand_reps, radical_maps)
        if not fmap.is_injective():
            cert.failure_stage = stage
            cert.failure_reason = "approximation not injective"
            break
        cert.coresolution_length += 1
        x, _ = cokernel_rep(fmap)
    else:
        if not x.is_zero():
            cert.failure_stage = m + 1
            cert.failure_reason = "cokernel nonzero after the last stage"
    cert.passed = (cert.pd_ok and cert.self_ext_ok
                   and cert.failure_stage is None)
    return cert


# ---------------------------------------------------------------------------
# endomorphism algebras and presentations


class EndoData:
    """Bookkeeping for End(T)^op on a basic list of summands; each of
    ``idempotents`` is a summand's identity as a sparse element."""

    def __init__(self, summands, basicized, idempotents):
        self.summands = summands            # list of (label, Representation)
        self.basicized = basicized
        self.idempotents = idempotents      # summand identities, sparse


def endo_algebra(t):
    """(StructureConstantAlgebra of End(T)^op, bookkeeping).

    Accepts either a module (decomposed internally, repeated summands
    dropped with a note) or an explicit list of (label, summand) pairs.
    The cells are `repcore.endomorphism_blocks` on the summands,
    transposed: in End(T)^op, x * y = f_y o f_x, so path conventions in
    presentations match left-module composition."""
    if isinstance(t, Representation):
        dec = decompose(t)
        summands = [(f"u{k}", rep) for k, (rep, _) in enumerate(dec)]
        basicized = any(mult > 1 for _, mult in dec)
    else:
        summands = list(t)
        basicized = False
        labels = [lbl for lbl, _ in summands]
        if len(set(labels)) != len(labels):
            raise QtiltError("summand labels must be unique")
    if not summands:
        raise QtiltError("End(T) needs at least one nonzero summand")
    _, table, ident = endomorphism_blocks([u for _, u in summands])
    # the identities lie in distinct diagonal blocks, so the unit is their
    # union
    unit = {p: c for e in ident for p, c in e.items()}
    cells: List[Dict[int, Dict[int, object]]] = [{} for _ in table]
    for x, row in enumerate(table):
        for y, cell in row.items():
            cells[y][x] = cell
    sca = StructureConstantAlgebra(summands[0][1].algebra.field, cells, unit)
    return sca, EndoData(summands, basicized, ident)


def _radical_powers(sca: StructureConstantAlgebra, rad, idems):
    """(powers, corners): powers[k] spans rad^(k+1), down to 0; corners[i]
    is the first independent subsequence of [x e_i for x in rad].  As the
    e_i are orthogonal and sum to 1, rad^k = sum_i (rad^(k-1) e_i)(e_i rad)."""
    def basis(vecs):
        span = Span(sca.field)
        return [v for v in vecs if span.add(v)]

    right = [basis(sca.product(e, y) for y in rad) for e in idems]
    left = corners = [basis(sca.product(x, e) for x in rad) for e in idems]
    powers = [Span(sca.field)]
    for vec in rad:
        powers[0].add(vec)
    while powers[-1]:
        powers.append(Span(sca.field))
        for xs, ys in zip(left, right):
            for x, y in product(xs, ys):
                powers[-1].add(sca.product(x, y))
        left = [basis(sca.product(x, e) for x in powers[-1].rows.values())
                for e in idems]
    return powers, corners


def present_algebra(sca: StructureConstantAlgebra, idempotents: Sequence,
                    labels: Sequence[str]) -> BoundQuiverAlgebra:
    """The bound quiver algebra presenting sca on the given primitive
    idempotents, vertex k labelled labels[k]: take arrows from rad/rad^2
    and relations off the path algebra surjection's kernel, degree by
    degree until rad^N = 0.  Radical powers go through the Peirce pieces,
    so the (sparse) idempotents must be complete and orthogonal.
    Characteristic zero with split semisimple quotient only.

    The relations generate the ideal (the round trip is checked), each
    reduced modulo the arrow multiples of the earlier ones up to its own
    degree, and the presented algebra reads its basis off that closure.
    They need not be minimal: x^3 is kept for
    k<x,y>/(xy, yx, x^2 - y^3), though x^3 = x(x^2 - y^3) + (xy)y^2."""
    if sca.field.char != 0:
        raise UnsupportedCharacteristicError(
            "presentations need characteristic zero")
    field = sca.field
    rad = abstract_radical(sca)
    idems = list(idempotents)
    _check_idempotents(sca, idems)
    s = len(idems)
    if sca.dim - len(rad) != s:
        raise NonSplitError(
            "semisimple quotient is not a product of base-field copies "
            "matching the primitive idempotents (non-basic algebra?)")
    labels = [str(l) for l in labels]

    powers, corners = _radical_powers(sca, rad, idems)
    nilpotency = len(powers)  # least N with rad^N = 0

    # arrows: block bases of rad modulo rad^2
    arrows = []
    images = {}
    rad2 = powers[1] if len(powers) > 1 else powers[0]
    for i in range(s):
        for j in range(s):
            # independent directions modulo rad^2 within the block
            block = Span(field)
            for r in corners[i]:
                w = sca.product(idems[j], r)
                if block.add(rad2.reduce(w)):
                    aname = f"a{len(block) - 1}_{i}_{j}"
                    arrows.append(Arrow(aname, labels[i], labels[j]))
                    images[aname] = w
    quiver = Quiver(labels, arrows)

    # the path-algebra surjection, degree by degree, each image once: a
    # path a*q of degree 2 or more is read after every shorter path, so the
    # image of its tail q is in the memo and one product gives its own
    phi: Dict[Path, Dict[int, object]] = {
        Path.trivial(l): e for l, e in zip(labels, idems)}
    phi.update((Path.from_arrow(a), images[a.name]) for a in arrows)

    def phi_path(p: Path):
        got = phi.get(p)
        if got is None:
            tail = Path(p.arrows[1:], p.source,
                        quiver.arrow(p.arrows[0]).source)
            got = phi[p] = sca.product(images[p.arrows[0]], phi[tail])
        return got

    # the kernel of phi on paths of degree 2..d, blockwise, modulo the
    # ideal of the relations found so far; each new generator extends the
    # closure, so only genuinely new directions are recorded
    relations: List[PathSum] = []
    closure = IdealClosure(field, quiver)
    by_degree = [[Path.trivial(l) for l in labels]]
    by_degree.append(_longer_paths(quiver, by_degree[0]))
    by_block: Dict[Tuple[str, str], List[Path]] = {}
    for d in range(2, nilpotency + 1):
        closure.raise_cap(d)
        by_degree.append(_longer_paths(quiver, by_degree[-1]))
        for p in by_degree[d]:
            by_block.setdefault((p.source, p.target), []).append(p)
        for _, paths in sorted(by_block.items()):
            mat = Matrix.from_sparse_cols(field, [phi_path(p) for p in paths],
                                          sca.dim)
            for col in kernel_data(mat).columns:
                combo = {paths[j]: col[j] for j in sorted(col)}
                reduced = closure.span.reduce(combo)
                if reduced:
                    relations.append(PathSum(field, [(c, p) for p, c
                                                     in reduced.items()]))
                    closure.add_relation(reduced)

    # the closure is capped at the nilpotency, where every path lies in it
    presented = _bound_quotient("presented", quiver, relations, closure,
                                by_degree, max(4, 2 * nilpotency))
    if presented.dim != sca.dim:
        raise QtiltError(
            f"presentation round trip failed: {presented.dim} != {sca.dim}")
    # the induced map must be a linear isomorphism on the basis
    cols = [phi_path(p) for p in presented.basis]
    if Matrix.from_sparse_cols(field, cols, sca.dim).rank() != sca.dim:
        raise QtiltError("presentation surjection is not an isomorphism")
    return presented


# ---------------------------------------------------------------------------
# cotilting and counting


class CotiltReport:
    """Dual verdicts, computed over the opposite algebra and transported
    back through the duality; on a weak pass ``summands`` lists the
    cotilting module's summands, labelled by vertex."""

    def __init__(self, base: AprReport, summands):
        self.base = base
        self.summands = summands

    def verdict_lines(self):
        return [line.replace("verdict ", "verdict co_")
                for line in self.base.verdict_lines()]


def apr_cotilting_check(alg: BoundQuiverAlgebra, v: str, n: int,
                        maxlen: int = DEFAULT_BOUND) -> CotiltReport:
    """Run the tilting check over the opposite algebra, verdicts only (its
    tilting module is never read, so it is not built); on a weak pass the
    dual module tau_n(I_v) + (sum of the other injectives) is the
    cotilting candidate, given by its summands.  I_v is the dual of the
    opposite algebra's P_v, which the check resolved, so the translate
    reads that resolution."""
    base = apr_check(opposite(alg), v, n, False, maxlen)
    summands = None
    if base.weak:
        translate = tau_n(dual(base.projective), n, maxlen)
        summands = [(v, translate)] + \
            [(w, inj(alg, w)) for w in alg.quiver.vertices if w != v]
    return CotiltReport(base, summands)


def count_apr(alg: BoundQuiverAlgebra, n: int, maxlen: int = DEFAULT_BOUND
              ) -> Tuple[int, List[AprReport]]:
    """Number of vertices carrying a full tilting candidate, with the
    passing reports as witnesses.  The reports carry verdicts only: no
    summands are built and no P_v is held, so no resolution outlives the
    call; ``apr_check`` at a witness builds the module."""
    _require_basic(alg)
    if n < 1:
        raise QtiltError("n must be at least 1")
    witnesses = []
    for v in alg.quiver.vertices:
        # P_v is simple when its blocks e_w A e_v add up to dimension 1
        if sum(size[v] for size in alg.block_sizes.values()) != 1:
            continue
        report = apr_check(alg, v, n, False, maxlen)
        report.projective = None
        if report.full:
            witnesses.append(report)
    return len(witnesses), witnesses
