"""Exact sparse linear algebra over the rationals and over prime fields.

A `Matrix` keeps its rows sparse: row i is a dict from column index to
the nonzero entry there.  Entries over Q are python ints where possible
and `fractions.Fraction` otherwise; prime-field entries are residues in
[1, p).  Every vector and every algebra element is a sparse dict of the
same kind.  Dense values appear only at the file boundary: the
constructor takes dense rows, and `Matrix.rows`, a tuple-of-tuples view
built on demand, serves printing.

One elimination core serves both fields.  `_echelon` reduces each row
against the pivot rows found so far, keyed by their leading column, and
`_back_substitute` then clears every pivot column above its pivot, taking
the pivots in descending order.  Over Q the rows are integer rows with
their content stripped after each scaled update (fraction-free, in the
spirit of Bareiss); over F_p the pivot rows are monic.  Reduced row
echelon form is unique over a field, so the pivots and the canonical
kernel vectors do not depend on the order of the row operations.

The core reads the input matrix's own row dicts and copies a row only
before its first change, so the many rows that become pivot rows
untouched are never copied and no input row is mutated; over Q only a
row holding a Fraction is replaced, by a primitive integer row.  Kernel
vectors are read straight off the back-substituted integer pivot rows.

`Span` grows a span one vector at a time.  It keeps monic rows over
both fields, since normal forms modulo a span need exact remainders, and
shares the monic update `_sub_multiple` with the F_p elimination.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import FieldMismatchError, ShapeMismatchError

# Deterministic Miller-Rabin: with the first thirteen primes as bases the
# test is exact below _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q.  Elements are int or Fraction in lowest terms."""

    char = 0

    def canon(self, x):
        if type(x) is int:
            return x
        if type(x) is Fraction:
            return x.numerator if x.denominator == 1 else x
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def parse(self, token: str):
        try:
            return self.canon(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {token!r}") from exc

    def fmt(self, x) -> str:
        return str(x)

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, x):
        if x == 1 or x == -1:
            return int(x)
        if x == 0:
            raise ZeroDivisionError("inverting zero")
        return self.canon(Fraction(1, 1) / x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The prime field F_p.  Elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise ValueError(f"{p} is too large for the exact primality test")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def canon(self, x):
        return int(x) % self.p

    def parse(self, token: str):
        try:
            return int(token) % self.p
        except ValueError as exc:
            raise ValueError(f"bad residue literal {token!r}") from exc

    def fmt(self, x) -> str:
        return str(x)

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverting zero")
        return pow(x, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

SparseRow = Dict[int, object]


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


def _qq(x):
    """Canonical form of a product or sum of canonical rationals."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _tidy(acc: SparseRow, p: int) -> SparseRow:
    """Drop zeros from an accumulated row and make its entries canonical,
    in one pass."""
    if p:
        return {j: r for j, v in acc.items() if (r := v % p)}
    return {j: v if type(v) is int else _qq(v) for j, v in acc.items() if v}


def _scaled(row: SparseRow, c, p: int) -> SparseRow:
    """row times the nonzero canonical scalar c."""
    if c == 1:
        return row
    if p:
        return {j: v * c % p for j, v in row.items()}
    return {j: _qq(v * c) for j, v in row.items()}


def _dense(row: SparseRow, n: int) -> Tuple:
    out = [0] * n
    for j, v in row.items():
        out[j] = v
    return tuple(out)


class Matrix:
    """Immutable sparse matrix with exact entries over a fixed field.

    ``sparse_rows[i]`` maps each column of row i holding a nonzero entry
    to that entry.  The row dicts are shared between matrices and must
    never be mutated."""

    __slots__ = ("field", "nrows", "ncols", "sparse_rows")

    def __init__(self, field, rows: Sequence[Sequence], nrows=None, ncols=None):
        rows = [tuple(map(field.canon, row)) for row in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("ragged rows")
        if nrows is not None and nrows != len(rows):
            raise ShapeMismatchError("row count mismatch")
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)
        self.sparse_rows = [{j: x for j, x in enumerate(r) if x} for r in rows]

    @classmethod
    def _raw(cls, field, rows: Sequence[SparseRow], ncols: int):
        """Trusted constructor: sparse rows of canonical nonzero entries."""
        m = object.__new__(cls)
        m.field = field
        m.sparse_rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._raw(field, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls._raw(field, [{i: 1} for i in range(n)], n)

    @classmethod
    def from_sparse_cols(cls, field, cols: Sequence[SparseRow], nrows: int):
        """Columns given as dicts row -> canonical nonzero entry."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        return cls._raw(field, rows, len(cols))

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        """Dense view, one tuple of entries per row, for printing."""
        return tuple(_dense(r, self.ncols) for r in self.sparse_rows)

    def sparse_columns(self) -> List[SparseRow]:
        """Columns as dicts row -> nonzero entry, rows ascending."""
        return self.transpose().sparse_rows

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for a, b in zip(self.sparse_rows,
                                               other.sparse_rows)))

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} out of range")
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return self.sparse_rows[i].get(j, 0)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse_rows):
            for j, v in row.items():
                cols[j][i] = v
        return Matrix._raw(self.field, cols, self.nrows)

    def __add__(self, other):
        _check_same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatchError("addition shape mismatch")
        p = self.field.char
        rows = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            if not r2:
                rows.append(r1)
                continue
            acc = dict(r1)
            for j, v in r2.items():
                acc[j] = acc.get(j, 0) + v
            rows.append(_tidy(acc, p))
        return Matrix._raw(self.field, rows, self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.canon(c)
        if c == 0:
            return Matrix.zeros(self.field, self.nrows, self.ncols)
        p = self.field.char
        return Matrix._raw(self.field,
                           [_scaled(r, c, p) for r in self.sparse_rows],
                           self.ncols)

    def __mul__(self, other):
        """Matrix product, touching only the nonzero entries of both sides."""
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"product of {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return Matrix._raw(self.field, _product_rows(
            zip(self.sparse_rows, repeat(0)), other.sparse_rows,
            self.field.char), other.ncols)

    def stack_right(self, other) -> "Matrix":
        _check_same_field(self, other)
        if self.nrows != other.nrows:
            raise ShapeMismatchError("hstack row mismatch")
        off = self.ncols
        rows = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            if r2:
                r1 = dict(r1)
                for j, v in r2.items():
                    r1[off + j] = v
            rows.append(r1)
        return Matrix._raw(self.field, rows, self.ncols + other.ncols)

    def take_columns(self, js: Iterable[int]) -> "Matrix":
        js = list(js)
        new_of: Dict[int, List[int]] = {}
        for new, j in enumerate(js):
            new_of.setdefault(j, []).append(new)
        rows = [{new: v for j, v in r.items() for new in new_of.get(j, ())}
                for r in self.sparse_rows]
        return Matrix._raw(self.field, rows, len(js))

    def rank(self) -> int:
        return len(_echelon(_core_rows(self), self.field.char))


def _product_rows(lines: Iterable[Tuple[SparseRow, int]],
                 right: Sequence[SparseRow], p: int) -> List[SparseRow]:
    """The rows of a product, one per (line, offset) pair: the line is a
    sparse row whose entry at j multiplies row offset + j of ``right``.
    So a caller reading rows off a block of a larger matrix passes the
    block's rows in place, with the block's offset.  A row with a single
    entry may come back as a shared row of ``right``."""
    out = []
    for line, off in lines:
        if len(line) == 1:
            (k, a), = line.items()
            out.append(_scaled(right[off + k], a, p))
            continue
        acc = {}
        get = acc.get
        for k, a in line.items():
            if a == 1:
                for j, v in right[off + k].items():
                    acc[j] = get(j, 0) + v
            else:
                for j, v in right[off + k].items():
                    acc[j] = get(j, 0) + a * v
        out.append(_tidy(acc, p))
    return out


def block_diag(field, mats: Sequence[Matrix]) -> Matrix:
    """The first block's row dicts are shared, the others shifted."""
    rows = []
    c0 = 0
    for m in mats:
        rows.extend(m.sparse_rows if c0 == 0 else
                    ({c0 + j: v for j, v in r.items()} for r in m.sparse_rows))
        c0 += m.ncols
    return Matrix._raw(field, rows, c0)


class RrefResult:
    __slots__ = ("matrix", "pivots", "rank")

    def __init__(self, matrix, pivots):
        self.matrix = matrix
        self.pivots = pivots
        self.rank = len(pivots)


# ---------------------------------------------------------------------------
# the elimination core


def _content(row: SparseRow) -> int:
    """The gcd of the entries of an integer row."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


def _strip(row: SparseRow) -> None:
    """Divide an integer row by its content, in place."""
    g = _content(row)
    if g > 1:
        for j in row:
            row[j] //= g


def _int_row(row: SparseRow) -> SparseRow:
    """A new primitive integer row spanning the same line as a Q row that
    holds a Fraction."""
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = den * v.denominator // gcd(den, v.denominator)
    out = {j: v * den if type(v) is int else v.numerator * (den // v.denominator)
           for j, v in row.items()}
    _strip(out)
    return out


def _core_rows(m: Matrix) -> List[SparseRow]:
    """The nonzero rows of m, as the core reads them: the matrix's own row
    dicts, except that over Q a row holding a Fraction becomes a new
    primitive integer row.  The core never mutates a row it did not copy."""
    rows = [r for r in m.sparse_rows if r]
    if m.field.char or Fraction not in map(
            type, chain.from_iterable(map(dict.values, rows))):
        return rows
    return [_int_row(r) if Fraction in map(type, r.values()) else r
            for r in rows]


def _sub_multiple(row: SparseRow, f, prow: SparseRow, p: int) -> None:
    """row -= f * prow, in place, for a nonzero canonical f; entries stay
    canonical (residues mod p, or ints and Fractions over Q)."""
    get = row.get
    if p:
        for j, v in prow.items():
            s = (get(j, 0) - f * v) % p
            if s:
                row[j] = s
            else:
                del row[j]
        return
    for j, v in prow.items():
        s = get(j, 0) - f * v
        if s:
            row[j] = _qq(s)
        else:
            del row[j]


def _eliminate(row: SparseRow, c: int, prow: SparseRow, p: int) -> None:
    """Clear column c of row, in place, with the pivot row prow whose
    leading column is c (monic mod p; positive lead over Q)."""
    f = row[c]
    if p:
        _sub_multiple(row, f, prow, p)
        return
    lead = prow[c]
    scaled = f % lead
    if scaled:
        g = gcd(f, lead)
        a, f = lead // g, f // g
        for j in row:
            row[j] *= a
    else:
        f //= lead
    for j, v in prow.items():
        s = row.get(j, 0) - f * v
        if s:
            row[j] = s
        else:
            del row[j]
    if scaled:
        _strip(row)


def _echelon(rows: Iterable[SparseRow], p: int) -> Dict[int, SparseRow]:
    """Reduce each row against the pivot rows found so far until its
    leading column is new; the survivors become pivot rows, monic mod p
    and primitive with positive lead over Q.  Returns {leading column:
    pivot row}.  A row is copied before its first change, so a row that
    needs none is kept as it came."""
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        owned = False
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                break
            if not owned:
                row = dict(row)
                owned = True
            _eliminate(row, c, prow, p)
        if not row:
            continue
        if p:
            if row[c] != 1:
                row = _scaled(row, pow(row[c], p - 2, p), p)
        else:
            g = row[c]
            if g not in (1, -1):
                g = _content(row) if g > 0 else -_content(row)
            if g != 1:
                row = {j: v // g for j, v in row.items()}
        pivots[c] = row
    return pivots


def _back_substitute(pivots: Dict[int, SparseRow], p: int) -> None:
    """Clear each pivot row at the other pivot columns.  Pivots are taken
    in descending order, so every pivot row used is already reduced and
    brings in no pivot column.  A pivot row that meets another pivot
    column is replaced by a reduced copy; the others are kept."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        js = [j for j in row if j != c and j in pivots]
        if js:
            row = dict(row)
            for j in js:
                _eliminate(row, j, pivots[j], p)
            pivots[c] = row


def _reduced_pivots(m: Matrix) -> Dict[int, SparseRow]:
    """{pivot column c: row} for the nonzero rows of the rref of m: mod p
    the rref row itself, over Q an integer row with positive lead row[c]
    that equals the rref row times row[c]."""
    if m.nrows == 0 or m.ncols == 0:
        return {}
    p = m.field.char
    pivots = _echelon(_core_rows(m), p)
    _back_substitute(pivots, p)
    return pivots


def pivot_columns(m: Matrix) -> Tuple[int, ...]:
    """The pivot columns of the rref of m, ascending, from the echelon
    form alone: back substitution keeps every leading column."""
    if m.nrows == 0 or m.ncols == 0:
        return ()
    return tuple(sorted(_echelon(_core_rows(m), m.field.char)))


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with pivot columns and rank."""
    if m.nrows == 0 or m.ncols == 0:
        return RrefResult(m, ())
    field = m.field
    p = field.char
    pivots = _reduced_pivots(m)
    order = sorted(pivots)
    rows = []
    for c in order:
        row = pivots[c]
        if row[c] != 1:
            row = _scaled(row, field.inv(row[c]), p)
        rows.append(row)
    rows.extend({} for _ in range(m.nrows - len(order)))
    return RrefResult(Matrix._raw(field, rows, m.ncols), tuple(order))


class Span:
    """A growing span of sparse vectors, held as a fully reduced echelon
    basis: ``rows`` maps each row's leading key ``lead(row)`` (by default
    its least column index) to the row, which is monic there and has no
    entry at any other row's leading key.  So ``reduce`` may clear the
    leading keys a vector carries in any order, and its remainder, the
    unique representative of the vector modulo the span supported off the
    leading keys, is exact over Q and F_p.  With ``lead=min`` the rows are
    the nonzero rows of the rref of the vectors added."""

    __slots__ = ("field", "lead", "rows")

    def __init__(self, field, lead=min):
        self.field = field
        self.lead = lead
        self.rows: Dict[object, SparseRow] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def items(self):
        """The (leading key, row) pairs of the echelon basis."""
        return self.rows.items()

    def reduce(self, vec) -> SparseRow:
        """Remainder of vec, a dict key -> entry or a dense sequence; it
        is empty exactly when vec lies in the span."""
        p = self.field.char
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        if p:
            out = {k: c % p for k, c in items if c % p}
        else:
            out = {k: _qq(c) for k, c in items if c}
        rows = self.rows
        for k in [k for k in out if k in rows]:
            _sub_multiple(out, out[k], rows[k], p)
        return out

    def add(self, vec) -> bool:
        """Extend the span by vec; True when it grew."""
        row = self.reduce(vec)
        if not row:
            return False
        c = self.lead(row)
        p = self.field.char
        row = _scaled(row, self.field.inv(row[c]), p)
        for other in self.rows.values():
            f = other.get(c)
            if f:
                _sub_multiple(other, f, row, p)
        self.rows[c] = row
        return True


# ---------------------------------------------------------------------------
# kernels, cokernels, solving


def _null_numerators(m: Matrix) -> Tuple[Dict[int, int], Dict[int, SparseRow]]:
    """(leads, vecs) read off the back-substituted pivot rows row_c of m:
    ``leads`` holds each row_c[c] that is not 1 (over Q only), and vecs[f],
    for each free column f ascending, has entry 1 at f, then -row_c[f] at
    each pivot column c ascending: the null vector at f once its entries
    at the c in ``leads`` are divided by row_c[c]."""
    p = m.field.char
    pivots = _reduced_pivots(m)
    vecs = {f: {f: 1} for f in range(m.ncols) if f not in pivots}
    leads = {}
    for c in sorted(pivots):
        row = pivots[c]
        if row[c] != 1:
            leads[c] = row[c]
        for j, v in row.items():
            if j != c:
                vecs[j][c] = p - v if p else -v
    return leads, vecs


def _null_vectors(m: Matrix) -> Dict[int, SparseRow]:
    """For each free (non-pivot) column f of m, the kernel vector with
    entry 1 at f and 0 at the other free columns, keyed by f ascending;
    its entries run f first, then the pivot columns ascending."""
    leads, vecs = _null_numerators(m)
    if leads:
        for vec in vecs.values():
            for c in leads.keys() & vec.keys():
                vec[c] = _qq(Fraction(vec[c], leads[c]))
    return vecs


class KernelData:
    """Kernel basis with its free-column structure: column i has value
    ``scales[i]`` at coordinate ``free[i]`` and zero at every other free
    coordinate, so linear systems against it solve by row reads.
    ``columns`` holds the basis as sparse columns, their entries not in
    ascending row order."""

    __slots__ = ("columns", "free", "scales")

    def __init__(self, columns, free, scales):
        self.columns = columns
        self.free = tuple(free)
        self.scales = tuple(scales)


def kernel_data(m: Matrix) -> KernelData:
    """Canonical basis of the right null space, as columns: for each free
    (non-pivot) column f, the null vector zero at the other free columns,
    scaled to a primitive integer vector with positive first entry over Q
    and to first entry 1 over F_p.  It is read off the back-substituted
    integer pivot rows without division; its entries run f first, then
    the pivot columns ascending."""
    p = m.field.char
    leads, vecs = _null_numerators(m)
    cols = []
    for f, col in vecs.items():
        if p:
            first = min(col)
            if first != f:
                col = _scaled(col, pow(col[first], p - 2, p), p)
        else:
            divided = leads.keys() & col.keys() if leads else ()
            if divided:
                # times d, the lcm of the reduced denominators of the
                # entries x / lead: a prime power dividing d exactly leaves
                # some entry's numerator coprime, so col stays primitive
                d = 1
                for c in divided:
                    den = leads[c] // gcd(col[c], leads[c])
                    d = d * den // gcd(d, den)
                col = {j: x * d // leads[j] if j in leads else x * d
                       for j, x in col.items()}
            if col[min(col)] < 0:
                col = {j: -x for j, x in col.items()}
        cols.append(col)
    scales = [col[f] for f, col in zip(vecs, cols)]
    return KernelData(cols, vecs, scales)


class CokernelData:
    """Quotient data for the column space of a matrix: ``projection`` has
    ``projection * basis == 0`` and restricts to the identity on the
    standard vectors at ``complement`` positions (the section)."""

    __slots__ = ("projection", "complement")

    def __init__(self, projection: Matrix, complement):
        self.projection = projection
        self.complement = tuple(complement)


def cokernel_data(m: Matrix) -> CokernelData:
    """Projection onto the cokernel of the column space of m, with the
    complementary standard vectors as section.  Its rows are the left
    kernel vectors normalized to 1 on their free coordinates."""
    vecs = _null_vectors(m.transpose())
    proj = Matrix._raw(m.field, list(vecs.values()), m.nrows)
    return CokernelData(proj, vecs)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Any X with a*X = b, or None when the system is inconsistent."""
    _check_same_field(a, b)
    if a.nrows != b.nrows:
        raise ShapeMismatchError("solve: row counts differ")
    if b.ncols == 0:
        return Matrix.zeros(a.field, a.ncols, 0)
    if a.ncols == 0:
        return None if not b.is_zero() else Matrix.zeros(a.field, 0, b.ncols)
    res = rref(a.stack_right(b))
    na = a.ncols
    if any(c >= na for c in res.pivots):
        return None
    xrows = [{} for _ in range(na)]
    for c, row in zip(res.pivots, res.matrix.sparse_rows):
        xrows[c] = {j - na: v for j, v in row.items() if j >= na}
    return Matrix._raw(a.field, xrows, b.ncols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: entry ((i*b.nrows+k),(j*b.ncols+l)) = a[i,j]*b[k,l]."""
    _check_same_field(a, b)
    p = a.field.char
    w = b.ncols
    rows = []
    for arow in a.sparse_rows:
        for brow in b.sparse_rows:
            row = {}
            for j, av in arow.items():
                for l, v in _scaled(brow, av, p).items():
                    row[j * w + l] = v
            rows.append(row)
    return Matrix._raw(a.field, rows, a.ncols * w)


def column_space_basis(m: Matrix) -> Matrix:
    """The columns of m sitting at its rref pivot positions; these form a
    basis of the column space and stay as sparse as the input."""
    return m.take_columns(pivot_columns(m))
