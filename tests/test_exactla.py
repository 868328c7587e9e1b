"""Exact linear algebra: contract examples, oracles, and invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtilt.exactla import (Matrix, PrimeField, QQ, Span, block_diag,
                           kernel_data, kron, rref, solve)
from qtilt.errors import FieldMismatchError, ShapeMismatchError

from oracles import hstack, kernel_matrix, vstack


# --- independent oracle: Bareiss fraction-free elimination rank -------------

def bareiss_rank(rows):
    """Rank via one-step fraction-free Gaussian elimination on integers."""
    A = [[Fraction(x).numerator * 1 for x in row] for row in rows]
    # clear denominators row by row so the input may be rational
    for i, row in enumerate(rows):
        den = 1
        for x in row:
            f = Fraction(x)
            den = den * f.denominator // __import__("math").gcd(den, f.denominator)
        A[i] = [int(Fraction(x) * den) for x in row]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if A[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                A[i][j] = (A[i][j] * A[r][c] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
        rank += 1
    return rank


def mat(rows, field=QQ):
    return Matrix(field, rows)


def rand_matrix(rnd, m, n, lo=-4, hi=4):
    return mat([[Fraction(rnd.randint(lo, hi), rnd.choice([1, 1, 2, 3]))
                 for _ in range(n)] for _ in range(m)])


# --- rref --------------------------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    res = rref(m)
    assert res.matrix == m
    assert res.pivots == (0, 1)
    assert res.rank == 2


def test_rref_proportional_rows():
    res = rref(mat([[1, 1], [2, 2]]))
    assert res.matrix == mat([[1, 1], [0, 0]])
    assert res.rank == 1


def test_rref_rank_matches_bareiss_oracle():
    import random
    rnd = random.Random(7)
    for trial in range(25):
        rows = [[Fraction(rnd.randint(-5, 5), rnd.choice([1, 2]))
                 for _ in range(7)] for _ in range(5)]
        assert rref(mat(rows)).rank == bareiss_rank(rows)


def test_rref_idempotent():
    import random
    rnd = random.Random(3)
    for trial in range(10):
        m = rand_matrix(rnd, 4, 6)
        r1 = rref(m).matrix
        assert rref(r1).matrix == r1


def test_rref_prime_field():
    f5 = PrimeField(5)
    m = Matrix(f5, [[2, 4], [1, 2]])
    res = rref(m)
    assert res.rank == 1
    assert res.matrix.rows[0] == (1, 2)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        mat([[1]]) * Matrix(PrimeField(3), [[1]])


def test_getitem_refuses_out_of_range_indices_on_both_axes():
    m = mat([[1, 2], [3, 4]])
    assert (m[0, 0], m[0, 1], m[1, 0], m[1, 1]) == (1, 2, 3, 4)
    for i, j, axis in [(-1, 0, "row -1"), (2, 0, "row 2"), (5, 0, "row 5"),
                       (0, -1, "column -1"), (0, 2, "column 2")]:
        with pytest.raises(IndexError, match=f"^{axis} out of range$"):
            m[i, j]


# --- kernel ------------------------------------------------------------------

def kernel_basis(m):
    """The canonical kernel basis as sparse columns."""
    return kernel_matrix(m).sparse_columns()


def test_kernel_of_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_single_relation():
    basis = kernel_basis(mat([[1, 1]]))
    assert len(basis) == 1
    assert basis[0] == {0: 1, 1: -1}


def test_kernel_rank_nullity_and_annihilation():
    import random
    rnd = random.Random(11)
    for trial in range(20):
        m = rand_matrix(rnd, rnd.randint(1, 5), rnd.randint(1, 7))
        basis = kernel_basis(m)
        assert m.rank() + len(basis) == m.ncols
        for v in basis:
            prod = m * Matrix.from_sparse_cols(QQ, [v], m.ncols)
            assert prod.is_zero()


def test_kernel_zero_columns():
    m = Matrix(QQ, [], ncols=4)
    assert m.nrows == 0
    assert len(kernel_basis(m)) == 4


# --- solve -------------------------------------------------------------------

def test_solve_identity():
    b = mat([[2], [3]])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_underdetermined_residual():
    a = mat([[1, 1]])
    b = mat([[2]])
    x = solve(a, b)
    assert x is not None
    assert (a * x) == b


def test_solve_random_consistent():
    import random
    rnd = random.Random(13)
    for trial in range(15):
        a = rand_matrix(rnd, 4, 3)
        x0 = rand_matrix(rnd, 3, 2)
        b = a * x0
        x = solve(a, b)
        assert x is not None
        assert (a * x - b).is_zero()


def test_solve_inconsistent():
    a = mat([[1], [1]])
    b = mat([[0], [1]])
    assert solve(a, b) is None


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        solve(mat([[1]]), mat([[1], [2]]))


# --- kron --------------------------------------------------------------------

def test_kron_identities():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)


def test_kron_scalar():
    b = mat([[1, 2], [3, 4]])
    assert kron(mat([[2]]), b) == b.scale(2)


def test_kron_rank_multiplicative():
    import random
    rnd = random.Random(17)
    for trial in range(10):
        a = rand_matrix(rnd, 3, 3, -2, 2)
        b = rand_matrix(rnd, 3, 3, -2, 2)
        assert kron(a, b).rank() == a.rank() * b.rank()


def test_kron_mixed_product():
    import random
    rnd = random.Random(19)
    a1, a2 = rand_matrix(rnd, 2, 3), rand_matrix(rnd, 3, 2)
    b1, b2 = rand_matrix(rnd, 2, 2), rand_matrix(rnd, 2, 3)
    assert kron(a1 * a2, b1 * b2) == kron(a1, b1) * kron(a2, b2)


def test_kron_entry_layout():
    a = mat([[0, 1], [2, 0]])
    b = mat([[5, 6], [7, 8]])
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for t in range(2):
                    assert k[(i * 2 + l, j * 2 + t)] == a[(i, j)] * b[(l, t)]


# --- hypothesis property tests ----------------------------------------------

small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, max_dim=4):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return mat(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_prop_rank_nullity(m):
    assert rref(m).rank + len(kernel_basis(m)) == m.ncols


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_prop_rref_idempotent(m):
    r = rref(m).matrix
    assert rref(r).matrix == r


@settings(max_examples=30, deadline=None)
@given(matrices(max_dim=3), matrices(max_dim=3))
def test_prop_kron_bilinear_in_first(a, b):
    two_a = a.scale(2)
    assert kron(two_a, b) == kron(a, b).scale(2)


# --- block helpers ------------------------------------------------------------

def test_stacking_and_blocks():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    assert hstack([a, b]) == mat([[1, 2, 3, 4]])
    assert vstack([a, b]) == mat([[1, 2], [3, 4]])
    d = block_diag(QQ, [mat([[1]]), mat([[2, 0], [0, 3]])])
    assert d == mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_empty_shapes():
    z = Matrix.zeros(QQ, 0, 3)
    assert z.transpose().nrows == 3 and z.transpose().ncols == 0
    z2 = Matrix.zeros(QQ, 3, 0)
    assert (z2 * Matrix.zeros(QQ, 0, 2)).nrows == 3
    assert rref(z2).rank == 0


def test_prime_field_kernel_and_solve():
    f7 = PrimeField(7)
    m = Matrix(f7, [[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (m * Matrix.from_sparse_cols(f7, [v], 3)).is_zero()
    b = Matrix(f7, [[5], [3]])
    x = solve(Matrix(f7, [[1, 0], [0, 2]]), b)
    assert x is not None
    assert x.rows[1][0] == (3 * pow(2, 5, 7)) % 7


def test_dense_axpy_product_path_with_fractions():
    # wide, dense product routed through the vectorized row updates
    from fractions import Fraction as F
    import random
    rnd = random.Random(2)
    a = Matrix(QQ, [[F(rnd.randint(-3, 3), rnd.choice([1, 2]))
                     for _ in range(60)] for _ in range(4)])
    b = Matrix(QQ, [[F(rnd.randint(-3, 3), rnd.choice([1, 2]))
                     for _ in range(64)] for _ in range(60)])
    slow_rows = []
    for i in range(4):
        row = []
        for j in range(64):
            row.append(sum(a[(i, k)] * b[(k, j)] for k in range(60)))
        slow_rows.append(row)
    assert (a * b) == Matrix(QQ, slow_rows)


# --- the sparse elimination core against a Gauss-Jordan oracle ---------------

GF = PrimeField(32003)


def gauss_jordan(rows, p=0):
    """Reduced row echelon form by textbook Gauss-Jordan elimination on
    Fractions (p = 0) or on residues mod p; returns (rows, pivots)."""
    if p:
        A = [[x % p for x in row] for row in rows]
    else:
        A = [[Fraction(x) for x in row] for row in rows]
    m, n = len(A), len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], p - 2, p) if p else 1 / A[r][c]
        A[r] = [x * inv % p if p else x * inv for x in A[r]]
        for i in range(m):
            f = A[i][c]
            if i != r and f:
                A[i] = [(a - f * b) % p if p else a - f * b
                        for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, tuple(pivots)


def sparse_rows(seed, m, n, density, p=0):
    import random
    rnd = random.Random(seed)
    rows = [[0] * n for _ in range(m)]
    for _ in range(max(1, int(density * m * n))):
        i, j = rnd.randrange(m), rnd.randrange(n)
        if p:
            rows[i][j] = rnd.randrange(1, p)
        else:
            rows[i][j] = Fraction(rnd.choice([-3, -2, -1, 1, 1, 2, 5]),
                                  rnd.choice([1, 1, 1, 2, 3]))
    if rnd.random() < 0.5 and m > 1:
        # a dependent row keeps the rank below full
        a, b = rnd.randrange(m), rnd.randrange(m)
        rows[a] = [x + 2 * y for x, y in zip(rows[a], rows[b])]
    return rows


# shapes from tiny to past 4096 cells
shapes = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 75),
                   st.integers(1, 90), st.sampled_from([0.02, 0.06, 0.2]))


@settings(max_examples=40, deadline=None)
@given(shapes, st.sampled_from([0, 32003]))
def test_prop_sparse_rref_matches_gauss_jordan(shape, p):
    seed, m, n, density = shape
    field = GF if p else QQ
    rows = sparse_rows(seed, m, n, density, p)
    res = rref(Matrix(field, rows))
    want, pivots = gauss_jordan(rows, p)
    assert res.pivots == pivots
    assert res.matrix == Matrix(field, want)
    if not p:
        assert res.rank == bareiss_rank(rows)


@settings(max_examples=30, deadline=None)
@given(shapes, st.sampled_from([0, 32003]))
def test_prop_sparse_kernel_annihilates(shape, p):
    seed, m, n, density = shape
    field = GF if p else QQ
    a = Matrix(field, sparse_rows(seed, m, n, density, p))
    k = kernel_matrix(a)
    assert k.ncols == n - a.rank()
    assert (a * k).is_zero()
    # the kernel columns are independent
    assert k.rank() == k.ncols


@pytest.mark.parametrize("p", [0, 32003])
def test_echelon_pivots_match_rref(p):
    """pivot_columns skips back substitution and keeps the rref pivots."""
    from qtilt.exactla import pivot_columns
    field = GF if p else QQ
    for seed in range(40):
        m, n = 1 + seed % 13, 1 + (7 * seed) % 17
        a = Matrix(field, sparse_rows(seed, m, n, 0.05 + (seed % 4) / 10, p))
        assert pivot_columns(a) == rref(a).pivots
        assert pivot_columns(a.transpose()) == rref(a.transpose()).pivots
    assert pivot_columns(Matrix.zeros(field, 0, 3)) == ()


def test_large_sparse_matrix_past_old_dense_threshold():
    rows = sparse_rows(5, 70, 80, 0.03)
    assert 70 * 80 > 4096
    res = rref(Matrix(QQ, rows))
    want, pivots = gauss_jordan(rows)
    assert res.pivots == pivots and res.matrix == Matrix(QQ, want)


def mixed_rows(seed, m, n, density, p=0):
    """Seeded sparse rows with non-unit leads.  Over Q each row is either
    all integers (content and sign vary) or holds Fractions; a few rows are
    combinations of earlier ones, so some rows reduce to zero or need
    elimination and back substitution."""
    import random
    rnd = random.Random(seed)
    rows = []
    for i in range(m):
        ints = p or rnd.random() < 0.6
        row = [0] * n
        for _ in range(max(1, int(density * n))):
            j = rnd.randrange(n)
            if p:
                row[j] = rnd.randrange(1, p)
            elif ints:
                row[j] = rnd.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
            else:
                row[j] = Fraction(rnd.choice([-5, -3, -2, -1, 1, 2, 4]),
                                  rnd.choice([1, 2, 3, 6]))
        if i > 1 and rnd.random() < 0.3:
            a, b = rnd.sample(range(i), 2)
            c = rnd.choice([2, -3])
            row = [x * 2 + c * y for x, y in zip(rows[a], rows[b])]
        rows.append(row)
    return rows


def oracle_kernel_columns(rows, n, p=0):
    """Canonical kernel vectors from the Gauss-Jordan oracle: for each free
    column f, entry 1 at f and -rref[r][f] at each pivot column, entries
    in the order f, then pivots ascending; then scaled to a primitive
    integer vector with positive first entry over Q, or first entry 1 over
    F_p.  Returns (columns, free columns)."""
    from math import gcd
    want, pivots = gauss_jordan(rows, p) if rows else ([], ())
    free = [f for f in range(n) if f not in pivots]
    cols = []
    for f in free:
        vec = {f: Fraction(1)}
        for r, c in enumerate(pivots):
            if want[r][f]:
                vec[c] = (p - want[r][f]) % p if p else -want[r][f]
        first = vec[min(vec)]
        if p:
            inv = pow(int(first), p - 2, p)
            col = {j: int(x) * inv % p for j, x in vec.items()}
        else:
            den = 1
            for x in vec.values():
                den = den * x.denominator // gcd(den, x.denominator)
            ints = {j: int(x * den) for j, x in vec.items()}
            g = 0
            for x in ints.values():
                g = gcd(g, x)
            sign = -1 if first < 0 else 1
            col = {j: sign * x // g for j, x in ints.items()}
        cols.append(col)
    return cols, tuple(free)


@pytest.mark.parametrize("p", [0, 32003])
def test_kernel_data_matches_oracle_canonical_vectors(p):
    """Columns (entry order included), free coordinates and scales equal
    the canonical vectors built from the Fraction Gauss-Jordan oracle."""
    field = GF if p else QQ
    for seed in range(60):
        m, n = 1 + seed % 11, 1 + (5 * seed) % 19
        rows = mixed_rows(seed, m, n, 0.1 + (seed % 5) / 8, p)
        kd = kernel_data(Matrix(field, rows))
        cols, free = oracle_kernel_columns(rows, n, p)
        assert [list(c.items()) for c in kd.columns] == \
            [list(c.items()) for c in cols]
        assert kd.free == free
        assert kd.scales == tuple(c[f] for c, f in zip(cols, free))
        assert all(type(x) is int for c in kd.columns for x in c.values())
        assert kernel_matrix(Matrix(field, rows)) == \
            Matrix.from_sparse_cols(field, cols, n)
    # no rows: every column is free
    kd = kernel_data(Matrix.zeros(field, 0, 3))
    assert kd.free == (0, 1, 2) and kd.scales == (1, 1, 1)


def test_entry_points_leave_input_rows_unchanged():
    """No elimination entry point mutates a row dict of its input, also
    when rows are shared, non-primitive, negative-led or eliminated."""
    import copy
    from qtilt.exactla import cokernel_data, pivot_columns
    for p in (0, 32003):
        field = GF if p else QQ
        for seed in range(40):
            m, n = 2 + seed % 9, 2 + (3 * seed) % 13
            a = Matrix(field, mixed_rows(seed, m, n, 0.3 + (seed % 3) / 5, p))
            b = Matrix(field, mixed_rows(seed + 100, m, 3, 0.5, p))
            before = copy.deepcopy((a.sparse_rows, b.sparse_rows))
            rref(a)
            pivot_columns(a)
            a.rank()
            kernel_data(a)
            cokernel_data(a)
            solve(a, b)
            solve(a, a)
            assert (a.sparse_rows, b.sparse_rows) == before
        # a matrix whose rows are all shared into the core
        c = Matrix._raw(field, [{0: 2, 1: 4}, {0: 3, 2: 1}, {1: p - 1 if p
                                                             else -1}], 3)
        before = copy.deepcopy(c.sparse_rows)
        rref(c), kernel_data(c), pivot_columns(c), c.rank()
        assert c.sparse_rows == before


@settings(max_examples=30, deadline=None)
@given(shapes, st.sampled_from([0, 32003]))
def test_prop_dense_view_and_equality(shape, p):
    seed, m, n, density = shape
    field = GF if p else QQ
    rows = sparse_rows(seed, m, n, density, p)
    a = Matrix(field, rows)
    assert a.rows == tuple(tuple(field.canon(x) for x in row) for row in rows)
    built = [Matrix.from_sparse_cols(field, a.sparse_columns(), m),
             Matrix.identity(field, m) * a,
             a * Matrix.identity(field, n),
             a.transpose().transpose(),
             (a + a) - a]
    for b in built:
        assert b == a and hash(b) == hash(a)
    assert Matrix(field, rows).scale(2) != a or a.is_zero()


# --- Span: the incremental echelon basis -------------------------------------

@settings(max_examples=40, deadline=None)
@given(shapes, st.sampled_from([0, 32003]))
def test_prop_span_grows_with_rank_and_matches_rref(shape, p):
    seed, m, n, density = shape
    field = GF if p else QQ
    rows = sparse_rows(seed, m, n, density, p)
    span = Span(field)
    rank = 0
    for k, row in enumerate(rows):
        grew = span.add(row)
        new_rank = Matrix(field, rows[:k + 1]).rank()
        assert grew == (new_rank > rank) and len(span) == new_rank
        rank = new_rank
    res = rref(Matrix(field, rows))
    assert sorted(span.rows) == list(res.pivots)
    assert [span.rows[c] for c in sorted(span.rows)] == \
        [r for r in res.matrix.sparse_rows if r]


@settings(max_examples=40, deadline=None)
@given(shapes, st.sampled_from([0, 32003]))
def test_prop_span_reduce_is_empty_exactly_on_the_span(shape, p):
    seed, m, n, density = shape
    field = GF if p else QQ
    rows = sparse_rows(seed, m, n, density, p)
    span = Span(field)
    for row in rows:
        span.add(row)
    a = Matrix(field, rows)
    coeffs = Matrix(field, sparse_rows(seed + 1, 3, m, 0.5, p))
    for v in (coeffs * a).sparse_rows:
        assert span.reduce(v) == {}
    for v in sparse_rows(seed + 2, 6, n, density, p):
        inside = vstack([a, Matrix(field, [v])]).rank() == a.rank()
        rem = span.reduce(v)
        assert (rem == {}) == inside
        assert not set(rem) & set(span.rows)
        # remainders are canonical, also for unreduced residues mod p
        assert all(type(x) is type(field.canon(x)) and x == field.canon(x)
                   for x in rem.values())
        if p:
            assert span.reduce([x - p if x else 0 for x in v]) == rem
        # v minus its remainder lies in the span
        diff = Matrix(field, [v]) - Matrix(field, [[rem.get(j, 0)
                                                    for j in range(n)]])
        assert span.reduce(diff.sparse_rows[0]) == {}


def test_matrix_rows_view_indexes_like_dense():
    m = Matrix(QQ, [[0, Fraction(1, 2)], [3, 0]])
    assert m.rows == ((0, Fraction(1, 2)), (3, 0))
    assert m.rows[1].count(0) == 1
    assert m[(0, 1)] == Fraction(1, 2) and m[(1, 1)] == 0


# --- prime fields ---------------------------------------------------------------

def test_prime_field_accepts_mersenne_61_quickly():
    import time
    t0 = time.perf_counter()
    f = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert f.inv(2) * 2 % f.p == 1


@pytest.mark.parametrize("n", [0, 1, 4, 561, 41041, 2 ** 61 + 1,
                               318665857834031151167461])
def test_prime_field_rejects_composites(n):
    # the last one is a strong pseudoprime to the first twelve prime bases
    with pytest.raises(ValueError):
        PrimeField(n)


def test_prime_field_rejects_primes_past_exact_range():
    with pytest.raises(ValueError):
        PrimeField(2 ** 89 - 1)


def test_primality_matches_trial_division():
    from qtilt.exactla import _is_prime
    for n in range(3000):
        assert _is_prime(n) == (n > 1 and all(n % q for q in range(2, n)))


def test_import_does_not_load_numpy():
    import os
    import subprocess
    import sys
    import qtilt
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtilt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qtilt, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=60, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    # sympy is only a test oracle: the primitive idempotents a
    # presentation is given split the semisimple quotient with sympy
    # blocked
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.abspath(__file__)), env["PYTHONPATH"]])
    script = "\n".join([
        "import sys",
        "sys.modules['sympy'] = None",
        "from qtilt.quivercore import (Arrow, Quiver, build_algebra,",
        "                              primitive_orthogonal_idempotents)",
        "from oracles import regular_structure_algebra",
        "from qtilt.tilting import present_algebra",
        "q = Quiver(['1', '2'],",
        "           [Arrow('a0', '2', '1'), Arrow('a1', '2', '1')])",
        "sca = regular_structure_algebra(build_algebra(q, []))",
        "pres = present_algebra(sca, primitive_orthogonal_idempotents(sca),",
        "                       ['v1', 'v2'])",
        "assert (pres.dim, len(pres.quiver.arrows)) == (4, 2)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=False, env=env)
    assert proc.returncode == 0, proc.stderr


def test_stacking_no_matrices_raises():
    with pytest.raises(ShapeMismatchError, match="hstack of no matrices"):
        hstack([])
    with pytest.raises(ShapeMismatchError, match="vstack of no matrices"):
        vstack([])


def test_rational_inverse_keeps_canonical_types():
    for x, want in [(1, 1), (-1, -1), (Fraction(-1), -1), (2, Fraction(1, 2)),
                    (-2, Fraction(-1, 2)), (Fraction(1, 3), 3),
                    (Fraction(-2, 3), Fraction(-3, 2))]:
        got = QQ.inv(x)
        assert got == want and type(got) is type(want)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
