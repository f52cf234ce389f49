import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep.linalg import (bareiss_det, clear_denominators, conjugate, echelon,
                              exact_div, identity, integer_kernel_basis, norm,
                              products, rank, reduce_mod_lattice, xgcd)
from reference import invert_upper, is_identity, mat_mul, ops_product, sparse


def test_norm_and_exact_div():
    assert norm(Fraction(4, 2)) == 2 and isinstance(norm(Fraction(4, 2)), int)
    assert exact_div(6, 3) == 2 and isinstance(exact_div(6, 3), int)
    assert exact_div(1, 2) == Fraction(1, 2)
    assert exact_div(Fraction(3, 2), 3) == Fraction(1, 2)


def test_invert_upper_random():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 8)
        u = [[0] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = rng.choice([1, -1, 2, Fraction(1, 3)])
            for j in range(i + 1, n):
                u[i][j] = rng.randint(-3, 3)
        assert is_identity(mat_mul(u, invert_upper(u)))


def test_rank_known_values():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_bareiss_matches_cofactor():
    rng = random.Random(3)

    def cofactor_det(a):
        n = len(a)
        if n == 1:
            return a[0][0]
        return sum((-1) ** j * a[0][j] *
                   cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
                   for j in range(n))

    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(a) == cofactor_det(a)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_integer_kernel_basis_generates_whole_kernel():
    rng = random.Random(4)
    for _ in range(50):
        nr, nc = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        basis = integer_kernel_basis(rows, nc)
        for vec in basis.values():
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)
        assert len(basis) == nc - rank(rows)
        # spot-check membership: small kernel vectors found by scanning must
        # be integer combinations of the basis (solvia exact elimination)
        for _ in range(5):
            x = [rng.randint(-2, 2) for _ in range(nc)]
            if any(sum(a * v for a, v in zip(row, x)) for row in rows):
                continue
            work = [list(v) for v in basis.values()]
            # solve sum c_i basis_i = x over the rationals, then check ints
            aug = [[work[i][k] for i in range(len(work))] + [x[k]]
                   for k in range(nc)]
            r_basis = rank([row[:-1] for row in aug])
            assert rank(aug) == r_basis  # solvable over Q
            # integrality: reduce x by the basis lattice; must reach zero
            assert all(v == 0 for v in reduce_mod_lattice(x, basis))


def test_clear_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [2, 1]]
    assert clear_denominators(rows) == [[3, 2], [2, 1]]


def test_reduce_mod_lattice_canonical():
    basis = [[2, 0, 0], [0, 3, 0]]
    # representatives land in the symmetric range of each pivot
    assert reduce_mod_lattice([5, 7, 1], echelon(basis)) == [1, 1, 1]
    assert reduce_mod_lattice([-5, -7, 1], echelon(basis)) == [1, -1, 1]
    # coset invariance
    assert reduce_mod_lattice([5 + 4, 7 - 9, 1], echelon(basis)) == [1, 1, 1]


def _minors_gcd(vectors, k):
    """gcd of the k x k minors of the matrix whose rows are vectors."""
    width = range(len(vectors[0]) if vectors else 0)
    return gcd(*(bareiss_det([[v[j] for j in cols] for v in rows])
                 for rows in combinations(vectors, k)
                 for cols in combinations(width, k)))


def _reduces_to_zero(v, ech):
    """Whether v is an integer combination of the echelon vectors, read off
    pivot by pivot from the last."""
    for p in sorted(ech, reverse=True):
        q, rem = divmod(v[p], ech[p][p])
        if rem:
            return False
        v = [a - q * e for a, e in zip(v, ech[p])]
    return not any(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-4, 4), min_size=d, max_size=d), max_size=5)))
def test_echelon_is_a_basis_of_the_same_lattice(vectors):
    """echelon's vectors pivot at distinct last nonzero coordinates, are as
    many as the rank, generate every input vector, and have the inputs'
    gcd of maximal minors, so they generate the inputs' lattice exactly."""
    ech = echelon(vectors)
    for p, e in ech.items():
        assert e[p] > 0 and not any(e[p + 1:])
    assert all(_reduces_to_zero(v, ech) for v in vectors)
    k = rank(vectors)
    assert len(ech) == k
    assert _minors_gcd(list(ech.values()), k) == _minors_gcd(vectors, k)


# ints and small-denominator fractions, normalized like the matrices' values
EXACT = st.builds(exact_div, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
NONZERO = EXACT.filter(bool)


@st.composite
def ops_lists(draw, m, upper):
    """Op lists on 1..m; some ops take an earlier op's target as their
    source, so consecutive ops need not commute, and some scale a basis
    element (s == d, c != -1)."""
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        chain = ops and draw(st.booleans())
        s = ops[-1][1] if chain else draw(st.integers(1, m))
        if draw(st.integers(0, 3)) == 0:
            ops.append((s, s, draw(NONZERO.filter(lambda c: c != -1))))
            continue
        lo = s + 1 if upper else 1
        if lo > m:
            continue
        d = draw(st.integers(lo, m).filter(lambda d: d != s))
        ops.append((s, d, draw(NONZERO)))
    return ops


@st.composite
def conjugation_cases(draw):
    m = draw(st.integers(2, 7))
    values = draw(st.lists(EXACT, min_size=m * m, max_size=m * m))
    dense = [[values[i * m + j] if j > i else 0 for j in range(m)]
             for i in range(m)]
    return m, dense, draw(ops_lists(m, upper=True))


def one_op(m, s, d, c):
    e = identity(m)
    e[s - 1][d - 1] += c
    return e


@settings(max_examples=200, deadline=None)
@given(conjugation_cases())
def test_conjugate_is_similarity_by_ops_product(case):
    m, dense, ops = case
    t = ops_product(m, ops)
    expected = mat_mul(mat_mul(invert_upper(t), dense), t)
    work = sparse(dense)
    conjugate(work, ops)
    assert dense_rows(m, work) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda m: st.tuples(st.just(m), ops_lists(m, upper=False))))
def test_ops_product_is_ordered_product(case):
    m, ops = case
    expected = reduce(mat_mul, [one_op(m, *op) for op in ops], identity(m))
    assert ops_product(m, ops) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(ops_lists(m, upper=False), max_size=4))))
def test_products_multiply_out_each_list_and_the_running_product(case):
    """Per step, I + N is the ordered product of one list's ops (scaling
    ops, int and Fraction coefficients included); running, it is the
    ordered product of every list so far. Each N lists the rows its list
    wrote, and only those change."""
    m, op_lists = case

    def dense(n):
        return [[(i == j) + n[i].get(j, 0) for j in range(m)] for i in range(m)]

    for (n, rows), ops in zip(products(m, op_lists), op_lists):
        assert dense(n) == ops_product(m, ops)
        assert all(not n[i] for i in set(range(m)) - rows)
    expected = identity(m)
    for (n, rows), ops in zip(products(m, op_lists, running=True), op_lists):
        before, expected = expected, mat_mul(expected, ops_product(m, ops))
        assert dense(n) == expected
        assert all(before[i] == expected[i] for i in set(range(m)) - rows)


def dense_rows(m, work):
    """The rows of a SparseMatrix as dense lists."""
    return [[work.rows[i].get(j, 0) for j in range(m)] for i in range(m)]


def inverse_ops(ops):
    """The op list of the inverse of the product of ops."""
    return [(s, d, -exact_div(c, 1 + c) if s == d else -c) for s, d, c in reversed(ops)]


@st.composite
def op_list_sequences(draw):
    """(m, dense, op lists): a matrix and the op lists that conjugate it
    step by step; in half the cases a list is followed by its inverse, a
    step that writes rows but leaves every value as it was."""
    m, dense, _ = draw(conjugation_cases())
    op_lists = []
    for _ in range(draw(st.integers(1, 6))):
        op_lists.append(draw(ops_lists(m, upper=True)))
        if draw(st.booleans()):
            op_lists.append(inverse_ops(op_lists[-1]))
    return m, dense, op_lists


@settings(max_examples=200, deadline=None)
@given(op_list_sequences())
def test_changed_rows_are_the_rows_whose_values_differ(case):
    """SparseMatrix.changes gives, in row order and as dense tuples,
    exactly the rows whose values differ from the matrix before's after
    each op list, and at the first call the nonzero rows, there being
    zero rows before them."""
    m, dense, op_lists = case
    work, before = sparse(dense), [[0] * m] * m
    for ops in [[], *op_lists]:
        conjugate(work, ops)
        now = dense_rows(m, work)
        got = work.changes()
        assert list(got) == sorted(got)
        assert got == {i: tuple(row) for i, (row, old) in enumerate(zip(now, before))
                       if row != old}
        before = now
