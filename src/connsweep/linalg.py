"""Exact linear algebra on small matrices.

Matrices are lists of row lists, or row tuples once frozen. Values are
Python ints wherever possible and fractions.Fraction otherwise, so every
operation is exact. Nothing here knows about chain partitions; callers
pass blocks in. Changes of basis are lists of elementary ops, applied by
conjugate to a SparseMatrix built from its nonzeros, which gives out the
rows each step changed (SparseMatrix.changes), and multiplied out by
products, as T - I held by its nonzeros, so no identity is ever built.
Integer lattices go through echelon alone, once each.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm


def norm(v):
    """Collapse integral fractions to int so later arithmetic stays fast."""
    if type(v) is Fraction and v.denominator == 1:
        return int(v)
    return v


def axpy(a, c, x):
    """norm(a + c * x), exactly; for Fractions with one gcd, not the two
    that Fraction arithmetic takes."""
    if type(a) is int and type(c) is int and type(x) is int:
        return a + c * x
    ad, cd, xd = a.denominator, c.denominator, x.denominator
    d = ad * cd * xd
    n = a.numerator * cd * xd + c.numerator * x.numerator * ad
    g = gcd(n, d)
    return n // g if g == d else Fraction(n // g, d // g)


def as_exact(v):
    """Coerce ints, Fractions and fraction strings to a normalized exact value."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return norm(v)
    if isinstance(v, str):
        return norm(Fraction(v))
    raise TypeError(f"not an exact value: {v!r}")


def exact_div(a, b):
    """a / b, an int when the division is exact over the integers."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return norm(Fraction(a) / Fraction(b))


def identity(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def freeze(a):
    return tuple(tuple(row) for row in a)


def thaw(a):
    return [list(row) for row in a]


def solve_upper(n, b):
    """x with (I + n) @ x == b, for n a SparseMatrix (0-based rows of
    column -> value) and I + n upper-triangular with nonzero diagonal.
    x is zero past b's last nonzero, so the back-substitution starts there,
    and each row of n is read only where x is nonzero."""
    x, rows = [0] * len(b), n.rows
    support = []
    for i in range(max(compress(count(), b), default=-1), -1, -1):
        row = rows[i]
        s = b[i]
        for k in support:
            if k in row:
                s -= row[k] * x[k]
        if s:
            x[i] = exact_div(s, 1 + row.get(i, 0))
            support.append(i)
    return x


class SparseMatrix:
    """A square m x m matrix under elementary ops, kept by its nonzeros so
    that an op costs the entries it touches: rows[i] maps column -> value
    and cols[j] is the set of rows with a nonzero in column j, 0-based; a
    row or column never written reads empty. entries gives the nonzeros as
    ((i, j), value) pairs, 1-based. written holds the rows written since
    the last call of changes."""

    def __init__(self, m, entries=()):
        self.m, self.rows, self.cols = m, defaultdict(dict), defaultdict(set)
        self.written, self._given = set(), {}  # _given: row -> last version given
        for (i, j), v in entries:
            self.rows[i - 1][j - 1] = v
            self.cols[j - 1].add(i - 1)
            self.written.add(i - 1)

    def __getitem__(self, i):
        return self.rows[i]

    def changes(self):
        """{row: dense row tuple}, in row order, for the rows written since
        the last call whose values differ from what they were then (zero
        before the first call). A call with no row written costs nothing."""
        out = {}
        for i in sorted(self.written):
            dense = [0] * self.m
            for j, v in self.rows[i].items():
                dense[j] = v
            dense, old = tuple(dense), self._given.get(i)
            if (dense != old) if old else any(dense):
                out[i] = self._given[i] = dense
        self.written = set()
        return out


def _add(work, entries, c, created):
    """Entry (i, j) of a SparseMatrix += c * x in place for each (i, j, x)
    of entries; a zero is dropped, and (i, j) joins created when it turns
    nonzero."""
    rows, cols = work.rows, work.cols
    for i, j, x in entries:
        row = rows[i]
        old = row.get(j)
        v = axpy(old or 0, c, x)
        if v:
            if old is None:
                cols[j].add(i)
                created.append((i, j))
            row[j] = v
        elif old is not None:
            del row[j]
            cols[j].discard(i)
        work.written.add(i)


def _add_column(work, s, d, c, created):
    """Column d += c * column s, 0-based: the rows with a nonzero in column
    s change, no other."""
    _add(work, [(i, d, work.rows[i][s]) for i in work.cols[s]], c, created)


def conjugate(work, ops):
    """work <- T^{-1} @ work @ T in place, for a SparseMatrix work and T the
    product of ops; returns the positions (0-based) that turned nonzero.

    An op (s, d, c) is 1-based and stands for the elementary matrix
    I + c*E_{s,d}; T multiplies them in list order. Each op adds c times
    column s to column d (the right factor), then subtracts c times row d
    from row s (its inverse on the left). An op with s == d scales basis
    element d by 1 + c (c != -1), so its inverse subtracts c/(1+c) times
    row d from itself. Taking the ops one at a time undoes them in the
    right order even when they do not commute.
    """
    created = []
    for s, d, c in ops:
        s -= 1
        d -= 1
        _add_column(work, s, d, c, created)
        if work.rows[d]:
            inv = exact_div(c, 1 + c) if s == d else c
            _add(work, [(s, k, v) for k, v in work.rows[d].items()], -inv, created)
    return created


def products(m, op_lists, running=False):
    """For each op list, (n, rows): n the SparseMatrix T - I, T the m x m
    product of the ops as conjugate reads them, or with running set
    P^r - I for P^r = T^0 T^1 ... T^r, one n updated in place; rows are
    the rows (0-based) the list's ops wrote. (I + n)(I + c E_{s,d}) adds c
    times column s of n to its column d (conjugate's column update), and c
    at (s, d); n starts from zero rows, so it costs what the ops touch."""
    n = SparseMatrix(m)
    for ops in op_lists:
        if running:
            n.written = set()
        elif ops or n.written:  # one zero n serves a run of empty lists
            n = SparseMatrix(m)
        for s, d, c in ops:
            _add_column(n, s - 1, d - 1, c, [])
            _add(n, [(s - 1, d - 1, 1)], c, [])
        yield n, n.written


def cancel_ops(row, p, cols):
    """One op (p, col, -row[col]/row[p]) per column in cols, 1-based: the
    column operations clearing those entries of row by column p, shared by
    the rational sweep, row cancellation and the revised one-block run."""
    return [(p, col, norm(-exact_div(row[col - 1], row[p - 1]))) for col in cols]


def prefix_ranks(rows, n_cols):
    """Exact ranks of the column prefixes: entry c is the rank of the first
    c columns of rows, for c = 0..n_cols. One Gaussian elimination, column
    by column; the input is left untouched."""
    work = [list(row) for row in rows]
    ranks = [0]
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is not None:
            work[r], work[piv] = work[piv], work[r]
            wr = work[r]
            pv = wr[c]
            for wi in work[r + 1:]:
                f = wi[c]
                if f:
                    factor = exact_div(f, pv)
                    for k in range(c, n_cols):
                        if wr[k]:
                            wi[k] = norm(wi[k] - factor * wr[k])
            r += 1
        ranks.append(r)
    return ranks


def rank(a):
    """Exact rank via Gaussian elimination (input left untouched)."""
    return prefix_ranks(a, len(a[0]) if a else 0)[-1]


def bareiss_det(a):
    """Determinant of a square integer matrix, fraction-free."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def clear_denominators(rows):
    """Scale each row by the lcm of its denominators; returns integer rows."""
    out = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row))
        out.append([int(v * mult) for v in row])
    return out


def echelon(vectors):
    """Echelon basis of the lattice the integer vectors generate, as
    {pivot: vector}: a vector's pivot is its last nonzero coordinate, made
    positive, and no two vectors share one. Two vectors meeting at a pivot
    are replaced by a unimodular xgcd combination of the two, one holding
    their gcd there and one zero, so the lattice is kept; a vector that
    reaches zero is dropped (Hermite-style; Cohen, §2.4)."""
    ech = {}
    for b in vectors:
        b = list(b)
        for p in range(len(b) - 1, -1, -1):
            if not b[p]:
                continue
            e = ech.get(p)
            if e is None:
                ech[p] = b if b[p] > 0 else [-x for x in b]
                break
            g, x, y = xgcd(e[p], b[p])
            s, t = e[p] // g, b[p] // g
            ech[p] = [x * u + y * w for u, w in zip(e, b)]
            b = [s * w - t * u for u, w in zip(e, b)]
    return ech


def integer_kernel_basis(rows, n_cols):
    """Echelon basis {pivot: vector} of {x in Z^n : rows @ x == 0}.

    The vectors (e_j, column j of rows) generate {(x, rows @ x)}; of their
    echelon basis, those pivoting among the first n coordinates have
    rows @ x == 0 and generate the whole integer kernel, not merely a
    finite-index sublattice; zero past their pivots, they stay in echelon
    form cut to n coordinates.
    """
    ech = echelon([e_j + [row[j] for row in rows]
                   for j, e_j in enumerate(identity(n_cols))])
    return {p: e[:n_cols] for p, e in ech.items() if p < n_cols}


def reduce_mod_lattice(v, ech):
    """Canonical coset representative of v modulo the lattice of ech, an
    echelon basis {pivot: vector} as echelon returns it.

    v is reduced pivot by pivot from the last, to the symmetric residue
    range (-h/2, h/2] of each pivot h. Two such representatives of one
    coset differ by a lattice vector whose last nonzero coordinate is a
    pivot's, a multiple of h smaller than h, so zero: the representative
    depends on the lattice alone.
    """
    v = list(v)
    for p in sorted(ech, reverse=True):
        e = ech[p]
        h = e[p]
        q = -((h - 2 * v[p]) // (2 * h))  # v[p] - q*h lies in (-h/2, h/2]
        if q:
            v = [vi - q * ei for vi, ei in zip(v, e)]
    return v
