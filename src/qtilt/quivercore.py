"""Quivers, paths, relations, and bound quiver algebras.

Paths compose right to left: in ``b*a`` the arrow ``a`` acts first, so a
path is admissible when the target of each arrow equals the source of the
next one applied.  The algebra basis is computed degree by degree as the
path space modulo the span of the relation ideal, which terminates for
admissible ideals; each basis element is represented by a single path.
"""

import random
import weakref
from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (NotAdmissibleError, NonSplitError, QtiltError,
                     UnsupportedCharacteristicError)
from .exactla import Matrix, QQ, Span, _sub_multiple, _tidy, kernel_data


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """Finite directed graph with named vertices and arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QtiltError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QtiltError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise QtiltError("arrow names clash with vertex names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise QtiltError(f"arrow {a.name} has unknown endpoint")
        self._arrow_by_name = {a.name: a for a in self.arrows}
        self._vertex_pos = {v: i for i, v in enumerate(self.vertices)}

    def arrow(self, name: str) -> Arrow:
        return self._arrow_by_name[name]

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_pos

    def arrows_into(self, v: str) -> List[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices,
                      [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path:
    """A path in a quiver; ``arrows`` lists names left to right, the
    rightmost acting first.  Trivial paths have an empty arrow tuple."""

    __slots__ = ("arrows", "source", "target", "_hash")

    def __init__(self, arrows: Tuple[str, ...], source: str, target: str):
        self.arrows = tuple(arrows)
        self.source = source
        self.target = target
        self._hash = hash((self.arrows, source))   # a path never changes

    @classmethod
    def trivial(cls, v: str) -> "Path":
        return cls((), v, v)

    @classmethod
    def from_arrow(cls, a: Arrow) -> "Path":
        return cls((a.name,), a.source, a.target)

    @classmethod
    def of(cls, quiver: Quiver, names: Sequence[str]) -> "Path":
        """Build a path from arrow names in print order, validating
        composability."""
        if not names:
            raise QtiltError("empty arrow list; use Path.trivial")
        arrows = [quiver.arrow(n) for n in names]
        for late, early in zip(arrows, arrows[1:]):
            if late.source != early.target:
                raise QtiltError(
                    f"arrows {late.name}*{early.name} do not compose")
        return cls(tuple(names), arrows[-1].source, arrows[0].target)

    @property
    def degree(self) -> int:
        return len(self.arrows)

    def __mul__(self, other: "Path") -> Optional["Path"]:
        """Composition self*other (other acts first); None if endpoints
        do not match."""
        if self.source != other.target:
            return None
        return Path(self.arrows + other.arrows, other.source, self.target)

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.arrows)), self.target, self.source)

    def sort_key(self):
        return (self.degree, self.arrows, self.source)

    def __eq__(self, other):
        return (isinstance(other, Path) and self.arrows == other.arrows
                and self.source == other.source)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_path(self)


def format_path(p: Path) -> str:
    if not p.arrows:
        return f"e({p.source})"
    return "*".join(p.arrows)


class PathSum:
    """A linear combination of parallel paths (shared source and target)."""

    __slots__ = ("terms", "source", "target")

    def __init__(self, field, terms: Sequence[Tuple[object, Path]]):
        combined: Dict[Path, object] = {}
        for c, p in terms:
            c = field.canon(c)
            if p in combined:
                s = combined[p] + c
                combined[p] = field.canon(s % field.p if field.char else s)
            else:
                combined[p] = c
        items = [(c, p) for p, c in combined.items() if c != 0]
        items.sort(key=lambda t: t[1].sort_key())
        self.terms = tuple(items)
        if not self.terms:
            self.source = None
            self.target = None
            return
        first = self.terms[0][1]
        self.source, self.target = first.source, first.target
        for _, p in self.terms:
            if p.source != self.source or p.target != self.target:
                raise QtiltError("paths in a relation must be parallel")

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        return min(p.degree for _, p in self.terms)

    def max_degree(self) -> int:
        return max(p.degree for _, p in self.terms)

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.min_degree() == self.max_degree()

    def reversed(self) -> List[Tuple[object, Path]]:
        return [(c, p.reversed()) for c, p in self.terms]

    def __repr__(self):
        return " + ".join(f"{c} {format_path(p)}" for c, p in self.terms)


def _path_lead(vec) -> Path:
    """Leading path of an ideal element: the longest paths lead, so normal
    forms prefer shorter representatives."""
    return min(vec, key=lambda p: (-p.degree, p.arrows, p.source))


def _longer_paths(quiver: Quiver, paths: List[Path]) -> List[Path]:
    """The paths one arrow longer than the given paths of one degree, in
    `Path.sort_key` order."""
    return sorted((Path((a.name,) + p.arrows, p.source, a.target)
                   for p in paths for a in quiver.arrows
                   if a.source == p.target), key=Path.sort_key)


class BoundQuiverAlgebra:
    """A path algebra modulo an admissible relation ideal, with a monomial
    basis, structure constants, and radical grading.

    Elements take the format of `StructureConstantAlgebra`: a sparse dict
    basis index -> nonzero canonical entry, with the attribute ``unit``
    and the method `product`.  Use :func:`build_algebra`; the constructor
    trusts precomputed data.
    """

    def __init__(self, name, field, quiver, relations, basis, span, nilpotency,
                 maxdeg):
        self.name = name
        self.field = field
        self.quiver = quiver
        self.relations = tuple(relations)
        self.basis = tuple(basis)                # Path monomial representatives
        self.dim = len(self.basis)
        self.nilpotency = nilpotency             # least N with rad^N = 0
        self.maxdeg = maxdeg
        self._span = span                        # ideal Span for normal forms
        self._index = {p: i for i, p in enumerate(self.basis)}
        self._blocks: Dict[Tuple[str, str], List[int]] = {}
        self.block_pos: List[int] = []           # index within its block
        for i, p in enumerate(self.basis):
            block = self._blocks.setdefault((p.source, p.target), [])
            self.block_pos.append(len(block))
            block.append(i)
        # block_sizes[w][v] = dim e_w * A * e_v
        self.block_sizes = {w: {v: len(self._blocks.get((v, w), ()))
                                for v in quiver.vertices}
                            for w in quiver.vertices}
        self._products: Dict[Tuple[int, int], Tuple[Tuple[int, object], ...]] = {}
        self.unit = {i: 1 for i, p in enumerate(self.basis) if not p.arrows}
        # the opposite this algebra built, or a weak reference to the
        # algebra that built this one as its opposite (see `opposite`)
        self._opposite = None
        self._cache: Dict = {}               # data only, never a module

    # -- basic structure ----------------------------------------------------

    def vertex_count(self) -> int:
        return len(self.quiver.vertices)

    def dims_by_degree(self) -> List[int]:
        out = [0] * self.nilpotency
        for p in self.basis:
            out[p.degree] += 1
        return out

    def block_indices(self, source: str, target: str) -> List[int]:
        """Basis indices of e_target * A * e_source."""
        return self._blocks.get((source, target), [])

    def idempotent(self, v: str) -> Dict[int, object]:
        return {self._index[Path.trivial(v)]: 1}

    def basis_index(self, p: Path) -> int:
        return self._index[p]

    def normal_form(self, p: Path) -> Dict[int, object]:
        """Coefficients of a path on the monomial basis."""
        if p.degree >= self.nilpotency:
            return {}
        nf = self._span.reduce({p: self.field.one()})
        return {self._index[q]: c for q, c in nf.items()}

    def basis_product(self, i: int, j: int) -> Tuple[Tuple[int, object], ...]:
        """b_i * b_j as (index, coeff) pairs."""
        got = self._products.get((i, j))
        if got is not None:
            return got
        p, q = self.basis[i], self.basis[j]
        out: Tuple[Tuple[int, object], ...] = ()
        if p.source == q.target:
            pq = p * q
            out = tuple(sorted(self.normal_form(pq).items()))
        self._products[(i, j)] = out
        return out

    def product(self, x: Dict[int, object], y: Dict[int, object]
                ) -> Dict[int, object]:
        """x * y for sparse elements, read off `basis_product`; the result
        is sparse and canonical."""
        acc: Dict[int, object] = {}
        get = acc.get
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in self.basis_product(i, j):
                    acc[k] = get(k, 0) + xi * yj * c
        return _tidy(acc, self.field.char)

    def radical_indices(self) -> List[int]:
        return [i for i, p in enumerate(self.basis) if p.degree >= 1]

    def __repr__(self):
        return f"BoundQuiverAlgebra({self.name}, dim={self.dim})"


def _validate_relations(quiver: Quiver, relations) -> None:
    for r in relations:
        if r.is_zero():
            raise QtiltError("zero relation")
        for _, p in r.terms:
            if p.degree < 2:
                raise QtiltError(
                    f"relation path {format_path(p)} has length < 2")
            for name in p.arrows:
                if name not in quiver._arrow_by_name:
                    raise QtiltError(f"relation uses unknown arrow {name}")


def _top_degree(vec: Dict[Path, object]) -> int:
    return max(p.degree for p in vec)


class IdealClosure:
    """The two-sided ideal that relations generate in the path algebra,
    as an echelon `Span` keyed by `_path_lead`: each vector that grows the
    span is queued and multiplied by every arrow on both sides.  A vector
    with a term of degree above ``cap``, which starts at 0, is held back
    until `raise_cap` admits it, so for homogeneous relations the span is
    exactly the ideal's part of degree <= cap.  With ``top`` set, terms of
    degree >= top are dropped first: the closure is then taken modulo
    rad^top, a finite quotient in which it is exact."""

    def __init__(self, field, quiver: Quiver, relations=(),
                 top: Optional[int] = None):
        self.span = Span(field, _path_lead)
        self.cap = 0
        self.top = top
        # arrows by the vertex where they compose on the left / right
        self._left = {v: [Path.from_arrow(a) for a in quiver.arrows
                          if a.source == v] for v in quiver.vertices}
        self._right = {v: [Path.from_arrow(a) for a in quiver.arrows
                           if a.target == v] for v in quiver.vertices}
        self._held: List[Dict[Path, object]] = []
        self._close(relations)

    def contains(self, p: Path) -> bool:
        """Whether the path lies in the span: its row is then p alone."""
        return len(self.span.rows.get(p, ())) == 1

    def add_relation(self, vec: Dict[Path, object]) -> None:
        """Extend the ideal by a relation, a dict from parallel paths to
        coefficients."""
        self._close([vec])

    def raise_cap(self, cap: int) -> None:
        self.cap = cap
        held, self._held = self._held, []
        self._close(held)

    def _close(self, vecs) -> None:
        queue: List[Dict[Path, object]] = []
        for vec in vecs:
            self._push(vec, queue)
        for vec in queue:
            # relations are parallel, so every path of vec composes alike
            p0 = next(iter(vec))
            for ap in self._left[p0.target]:
                self._push({ap * p: c for p, c in vec.items()}, queue)
            for ap in self._right[p0.source]:
                self._push({p * ap: c for p, c in vec.items()}, queue)

    def _push(self, vec, queue) -> None:
        if self.top is not None:
            vec = {p: c for p, c in vec.items() if p.degree < self.top}
        if not vec:
            return
        if _top_degree(vec) > self.cap:
            self._held.append(vec)
        elif self.span.add(vec):
            queue.append(vec)


def build_algebra(quiver: Quiver, relations: Sequence[PathSum], field=QQ,
                  maxdeg: int = 30, name: str = "algebra") -> BoundQuiverAlgebra:
    """Bound quiver algebra for an admissible relation ideal.

    An `IdealClosure` of the relations raises its cap one degree at a
    time until some degree ``top`` lies wholly in the ideal, so that
    rad^top is in it.  For homogeneous relations the capped closure is
    exact and ``top`` is the radical nilpotency degree.  Inhomogeneous
    relations are closed once more modulo rad^top, where the closure is
    exact, and the nilpotency is the least degree that vanishes there.
    The basis is the paths below the nilpotency that lead no row of the
    ideal span.  Raises NotAdmissibleError when no degree up to
    ``maxdeg`` vanishes.
    """
    _validate_relations(quiver, relations)
    closure = IdealClosure(field, quiver,
                           [{p: c for c, p in r.terms} for r in relations])
    return _bound_quotient(name, quiver, relations, closure,
                           [[Path.trivial(v) for v in quiver.vertices]],
                           maxdeg)


def _bound_quotient(name, quiver: Quiver, relations, closure: IdealClosure,
                    paths: List[List[Path]], maxdeg: int
                    ) -> BoundQuiverAlgebra:
    """`build_algebra` from a capped closure of the relations on, with
    ``paths[d]`` the paths of each degree d up to its cap."""
    field = closure.span.field
    vecs = [{p: c for c, p in r.terms} for r in relations]
    graded = all(r.is_homogeneous() for r in relations)
    # an inhomogeneous ideal may need products past maxdeg to show rad^top
    limit = maxdeg if graded else maxdeg + max(map(_top_degree, vecs))

    def vanishing(closure, degrees):
        """The least of the degrees whose paths all lie in the closure."""
        return next((d for d in degrees
                     if all(map(closure.contains, paths[d]))), None)

    while (top := vanishing(closure, range(1, len(paths)))) is None:
        if closure.cap >= limit:
            raise NotAdmissibleError(
                f"quotient still nonzero at degree {maxdeg}; ideal not "
                f"admissible within the bound")
        closure.raise_cap(closure.cap + 1)
        if closure.cap <= maxdeg:
            paths.append(_longer_paths(quiver, paths[-1]))
    if not graded:
        closure = IdealClosure(field, quiver, vecs, top=top)
        closure.raise_cap(top)
        top = vanishing(closure, range(1, top)) or top
    basis = [p for ps in paths[:top] for p in ps
             if p not in closure.span.rows]
    basis.sort(key=Path.sort_key)
    return BoundQuiverAlgebra(name, field, quiver, relations, basis,
                              closure.span, top, maxdeg)


def opposite(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """The opposite algebra: arrows and relation paths reversed.  It runs
    no closure: a fully reduced echelon basis is unique, so its span rows
    are the algebra's reversed and re-led, and its basis the reversed
    basis and leads below the nilpotency less the new leads.  An algebra
    keeps the opposite it built, and the opposite refers back to it
    weakly, so the two make no reference cycle and applying `opposite`
    twice returns the original object while that object lives: keep the
    algebra itself, not only its opposite, where that identity matters."""
    got = alg._opposite
    if isinstance(got, weakref.ref):
        got = got()
    if got is not None:
        return got
    span = Span(alg.field, _path_lead)
    below = list(alg.basis)
    for lead, row in alg._span.items():
        span.add({p.reversed(): c for p, c in row.items()})
        if lead.degree < alg.nilpotency:
            below.append(lead)
    basis = sorted((q for q in map(Path.reversed, below)
                    if q not in span.rows), key=Path.sort_key)
    orels = [PathSum(alg.field, r.reversed()) for r in alg.relations]
    opp = BoundQuiverAlgebra(alg.name + "_op", alg.field,
                             alg.quiver.opposite(), orels, basis, span,
                             alg.nilpotency, alg.maxdeg)
    alg._opposite = opp
    opp._opposite = weakref.ref(alg)
    return opp


def _op_table(alg: BoundQuiverAlgebra) -> List[List[Tuple[int, object]]]:
    """For each basis index, the reversed basis path in normal form over
    the opposite algebra, as (basis index, coeff) pairs: the canonical
    anti-isomorphism onto the opposite algebra, built once per algebra."""
    table = alg._cache.get("op_table")
    if table is None:
        opp = opposite(alg)
        table = [list(opp.normal_form(b.reversed()).items())
                 for b in alg.basis]
        alg._cache["op_table"] = table
    return table


def semisimple_and_basic_flags(alg: BoundQuiverAlgebra) -> Tuple[bool, bool]:
    """(is_semisimple, is_basic): the radical vanishes / every simple occurs
    once in the top of the regular module."""
    is_semisimple = not alg.radical_indices()
    # top of the regular module: one copy of each vertex simple iff the
    # degree-zero part is exactly the span of the trivial idempotents
    degree_zero = [p for p in alg.basis if p.degree == 0]
    is_basic = (len(degree_zero) == alg.vertex_count()
                and all(p.source == p.target for p in degree_zero))
    return is_semisimple, is_basic


# ---------------------------------------------------------------------------
# abstract algebras given by structure constants


class StructureConstantAlgebra:
    """Finite dimensional associative algebra given by structure constants
    on a fixed basis.  Validates the key ranges, the unit law and
    associativity, the last on every basis triple where either side can
    be nonzero, so the check is complete in every dimension.

    An element is a sparse dict basis index -> nonzero canonical entry.
    ``cells[i]`` maps each j with e_i * e_j != 0, ascending, to that
    product, a sparse element; ``unit`` is a sparse element."""

    def __init__(self, field, cells, unit, validate: bool = True):
        self.field = field
        self.dim = len(cells)
        self.cells = cells
        self.unit = unit
        if validate:
            self._validate()

    def _validate(self):
        n, cells, p = self.dim, self.cells, self.field.char
        if any(not 0 <= k < n for k in self.unit) or any(
                not 0 <= j < n or any(not 0 <= k < n for k in cell)
                for row in cells for j, cell in row.items()):
            raise QtiltError("structure constant key out of range")
        for i in range(n):
            ei = {i: 1}
            if self.product(self.unit, ei) != ei or \
                    self.product(ei, self.unit) != ei:
                raise QtiltError("unit law fails")
        # (e_i e_j) e_k can be nonzero only for j in cells[i], and
        # e_i (e_j e_k) only when e_j e_k has a coordinate m in cells[i]:
        # reach[m] holds the j with a product e_j e_k that has one at m
        reach: List[set] = [set() for _ in range(n)]
        for j, row in enumerate(cells):
            for cell in row.values():
                for m in cell:
                    reach[m].add(j)
        for i, row in enumerate(cells):
            for j in sorted(row.keys() | {j for m in row for j in reach[m]}):
                diff: Dict[int, Dict[int, object]] = {}  # k -> left - right
                for m, c in row.get(j, {}).items():
                    for k, cell in cells[m].items():
                        _sub_multiple(diff.setdefault(k, {}), -c, cell, p)
                for k, cell in cells[j].items():
                    for m, c in cell.items():
                        if m in row:
                            _sub_multiple(diff.setdefault(k, {}), c, row[m], p)
                bad = [k for k, vec in diff.items() if vec]
                if bad:
                    raise QtiltError(f"associativity fails on basis triple "
                                     f"({i},{j},{min(bad)})")

    def product(self, x: Dict[int, object], y: Dict[int, object]
                ) -> Dict[int, object]:
        """x * y for sparse elements; the result is sparse and canonical."""
        cells = self.cells
        acc: Dict[int, object] = {}
        get = acc.get
        for i, xi in x.items():
            row = cells[i]
            if not row:
                continue
            for j, yj in y.items():
                cell = row.get(j)
                if cell is None:
                    continue
                f = xi * yj
                for k, c in cell.items():
                    acc[k] = get(k, 0) + f * c
        return _tidy(acc, self.field.char)

    def __repr__(self):
        return f"StructureConstantAlgebra(dim={self.dim})"


def _combine(terms, p: int) -> Dict[int, object]:
    """The sum of c * x over the pairs (c, x) in terms, x a sparse element,
    as a sparse canonical element."""
    acc: Dict[int, object] = {}
    for c, x in terms:
        if c:
            _sub_multiple(acc, -c, x, p)
    return acc


def abstract_radical(a: StructureConstantAlgebra) -> List[Dict[int, object]]:
    """Basis of the radical, as sparse elements, via the trace form of the
    regular representation: x is radical iff trace(L_{xy}) vanishes for
    all y.  Characteristic zero only."""
    if a.field.char != 0:
        raise UnsupportedCharacteristicError(
            "trace-form radical needs characteristic zero")
    n = a.dim
    # trace of left multiplication by each basis element
    tr = [sum(cell.get(i, 0) for i, cell in row.items()) for row in a.cells]
    gram = [_tidy({j: sum(c * tr[k] for k, c in cell.items())
                   for j, cell in row.items()}, 0) for row in a.cells]
    g = Matrix._raw(a.field, gram, n)
    return [dict(sorted(col.items()))
            for col in kernel_data(g.transpose()).columns]


def minimal_polynomial(a: StructureConstantAlgebra, x: Dict[int, object],
                       unit: Optional[Dict[int, object]] = None) -> List:
    """Monic minimal polynomial of the sparse element x (low-to-high
    coefficients) relative to the given sparse unit (defaults to the
    algebra unit).

    A Krylov span holds x^k + t^k, with t^k at key dim + k; the first
    power whose algebra part reduces to zero leaves the polynomial in the
    tail of its remainder."""
    power = a.unit if unit is None else unit
    span = Span(a.field)
    for k in count():
        rem = span.reduce({**power, a.dim + k: 1})
        if k and min(rem) >= a.dim:
            return [rem.get(a.dim + j, 0) for j in range(k + 1)]
        span.add(rem)
        power = a.product(x, power)


# -- polynomial helpers over the rationals ----------------------------------

def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g):
                out[i + j] += Fraction(c) * Fraction(d)
    return out


def poly_divmod(f, g):
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while g and g[-1] == 0:
        g.pop()
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = f[:]
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1] / g[-1]
        d = len(r) - len(g)
        q[d] = c
        for i, gc in enumerate(g):
            r[i + d] -= c * gc
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
    return small + [abs(n) // d for d in small]


def split_rational_root(mu) -> Optional[Tuple[List, List]]:
    """(f, g) with mu = f * g and f = (t - r)^m, where r is the rational
    root of mu with the least str(-r) and m its multiplicity; None when mu
    has no rational root.  The root order is that of the linear factors in
    a sorted sympy factor_list, which the tests use as an oracle."""
    cs = [Fraction(c) for c in mu]
    low = next(i for i, c in enumerate(cs) if c)
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs[low:]]
    # rational root theorem: a root num/q has num | ints[0], q | ints[-1]
    roots = [Fraction(0)] if low else []
    roots += [r for q in _divisors(ints[-1]) for num in _divisors(ints[0])
              for r in (Fraction(num, q), Fraction(-num, q))
              if not poly_divmod(cs, [-r, 1])[1]]
    if not roots:
        return None
    linear = [-min(roots, key=lambda r: str(-r)), Fraction(1)]
    f, g = [Fraction(1)], cs
    while True:
        q, rem = poly_divmod(g, linear)
        if rem:
            return f, g
        f, g = poly_mul(f, linear), q


def poly_eval_in_algebra(a: StructureConstantAlgebra, coeffs, x, unit=None):
    """Evaluate a polynomial (low-to-high coefficients) at the sparse
    element x by Horner, with the constant term against the given sparse
    unit (defaults to the algebra unit)."""
    u = a.unit if unit is None else unit
    acc: Dict[int, object] = {}
    for c in reversed(list(coeffs)):
        acc = _combine(((1, a.product(x, acc)), (c, u)), a.field.char)
    return acc


# -- idempotent splitting and lifting ----------------------------------------

def quotient_by_radical(a: StructureConstantAlgebra):
    """(free coordinates, quotient algebra) for a/rad(a): the coordinates
    leading no row of the radical's reduced `Span` index the quotient
    basis, and an element maps to its remainder modulo that span."""
    rad = Span(a.field)
    for vec in abstract_radical(a):
        rad.add(vec)
    free = [j for j in range(a.dim) if j not in rad.rows]
    at = {j: k for k, j in enumerate(free)}

    def to_bar(vec):
        return {at[j]: c for j, c in rad.reduce(vec).items()}

    cells = [{at[fj]: cell for fj, x in a.cells[fi].items()
              if fj in at and (cell := to_bar(x))} for fi in free]
    bar = StructureConstantAlgebra(a.field, cells, to_bar(a.unit),
                                   validate=False)
    return free, bar


def lift_idempotent(a: StructureConstantAlgebra, x: Dict[int, object]
                    ) -> Dict[int, object]:
    """Newton iteration x <- 3x^2 - 2x^3 from a sparse idempotent mod
    rad."""
    for _ in range(64):
        x2 = a.product(x, x)
        if x2 == x:
            return x
        x = _combine(((3, x2), (-2, a.product(x2, x))), a.field.char)
    raise QtiltError("idempotent lifting did not converge")


def _corner_candidates(bar: StructureConstantAlgebra, e, corner_basis, rnd):
    """Elements to split the corner by, lazily: the basis vectors other
    than e, their pairwise sums, then 60 elements whose coordinate k mixes
    the basis vectors' coordinates k with coefficients drawn in -3..3."""
    p = bar.field.char
    seeds = [c for c in corner_basis if c != e]
    yield from seeds
    for i, x in enumerate(seeds):
        for y in seeds[i + 1:]:
            yield _combine(((1, x), (1, y)), p)
    for _ in range(60):
        yield _tidy({k: sum(rnd.randint(-3, 3) * v.get(k, 0)
                            for v in corner_basis)
                     for k in range(bar.dim)}, p)


def _split_semisimple(bar: StructureConstantAlgebra):
    """Primitive orthogonal idempotents of a semisimple algebra, as sparse
    elements, or NonSplitError when a corner refuses to split over the
    base field.  A corner e bar e splits by the first candidate x whose
    minimal polynomial mu relative to e has a rational root r and another
    factor.  As bar is semisimple, mu is squarefree: mu = (t - r) g with
    g(r) != 0, and e is the sum of the Lagrange idempotent g(x) / g(r) and
    its complement.  A repeated root means a radical left in bar and
    raises QtiltError.  Each corner draws its random candidates from a
    fresh `random.Random(0)`, so the split depends on the algebra only."""
    field = bar.field
    work = [bar.unit]
    out = []
    while work:
        e = work.pop(0)
        corner = [bar.product(bar.product(e, {k: 1}), e)
                  for k in range(bar.dim)]
        span = Span(field)
        corner_basis = [c for c in corner if span.add(c)]
        if len(corner_basis) <= 1:
            out.append(e)
            continue
        split = None
        saw_nonlinear = False
        for x in _corner_candidates(bar, e, corner_basis, random.Random(0)):
            mu = minimal_polynomial(bar, x, unit=e)
            if len(mu) <= 2:
                continue
            split_mu = split_rational_root(mu)
            if split_mu is None:
                saw_nonlinear = True
                continue
            f, g = split_mu
            if len(g) == 1:
                continue
            if len(f) > 2:
                raise QtiltError(
                    "repeated root of a minimal polynomial in a semisimple "
                    "quotient: the radical is wrong")
            r = -f[0]
            g_r = sum(c * r ** i for i, c in enumerate(g))
            split = poly_eval_in_algebra(bar, [c / g_r for c in g], x, unit=e)
            break
        if split is None:
            raise NonSplitError(
                "semisimple quotient did not split into copies of the base "
                "field" + ("" if not saw_nonlinear else
                           " (an irreducible minimal polynomial of degree"
                           " > 1 appeared)"))
        work.append(split)
        work.append(_combine(((1, e), (-1, split)), field.char))
    return out


def _check_idempotents(a: StructureConstantAlgebra, idems) -> None:
    """QtiltError unless the sparse elements idems are idempotent,
    pairwise orthogonal and sum to the unit."""
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            if a.product(e, f) != (e if i == j else {}):
                what = "idempotent" if i == j else f"orthogonal to {j}"
                raise QtiltError(f"idempotent {i} is not {what}")
    if _combine(((1, e) for e in idems), a.field.char) != a.unit:
        raise QtiltError("the idempotents do not sum to the unit")


def primitive_orthogonal_idempotents(a: StructureConstantAlgebra
                                     ) -> List[Dict[int, object]]:
    """A complete list of primitive orthogonal idempotents summing to 1,
    as sparse elements, lifted from the semisimple quotient: each quotient
    idempotent is put at the free coordinates of `quotient_by_radical`,
    cut by the complement of those lifted before, and lifted.  Requires
    characteristic zero and a split quotient."""
    if a.field.char != 0:
        raise UnsupportedCharacteristicError(
            "idempotent splitting needs characteristic zero")
    free, bar = quotient_by_radical(a)
    bar_idems = _split_semisimple(bar)
    # the Newton lift of a non-idempotent never converges: check first
    _check_idempotents(bar, bar_idems)
    lifted = []
    comp = dict(a.unit)
    for ebar in bar_idems[:-1]:
        x = {free[j]: c for j, c in ebar.items()}
        e = lift_idempotent(a, a.product(a.product(comp, x), comp))
        lifted.append(e)
        comp = _combine(((1, comp), (-1, e)), 0)
    lifted.append(comp)
    _check_idempotents(a, lifted)
    return lifted
