"""Independent reference computations that tests compare the package against."""

import dataclasses
from itertools import accumulate, compress, count
from math import gcd

from connsweep import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError, KernelProblem,
                       allowable_pattern, validate)
from connsweep.core import pattern_test
from connsweep.linalg import SparseMatrix, clear_denominators, exact_div, norm, xgcd
from connsweep.verify import (_below_diagonal_structure, _check,
                              _delta0_products, _final_complementarity,
                              _final_zero_pattern, _first_nonzero_after,
                              _kernel_minimality, _pattern_compliance,
                              _pivot_rows, _revised_columns, _row_versions,
                              _similarity, _transition_structure, verify_block_runs)


def identity(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def thaw(a):
    return [list(row) for row in a]


def matrices(trace):
    """Every matrix of a trace, rebuilt from its stored rows, as a tuple of
    row tuples; each matrix shares with the one before every row its step
    did not store, and a matrix whose step stored none is the one before."""
    m = trace.matrix.m
    mat, out = (((0,) * m,) * m), []
    for rows in trace.rows:
        if rows:
            mat = list(mat)
            for i, row in rows.items():
                mat[i] = row
            mat = tuple(mat)
        out.append(mat)
    return tuple(out)


def with_matrices(trace, mats):
    """trace with its matrices replaced by mats, whole dense matrices
    (row lists or tuples), stored as the trace stores them: of each matrix
    the rows whose values differ from the matrix before's, all zero before
    the first."""
    m = trace.matrix.m
    prev, rows = [(0,) * m] * m, []
    for mat in mats:
        mat = [tuple(row) for row in mat]
        rows.append({i: row for i, (row, old) in enumerate(zip(mat, prev)) if row != old})
        prev = mat
    return dataclasses.replace(trace, rows=tuple(rows))


def sparse(dense):
    """A SparseMatrix holding the nonzeros of a dense square matrix."""
    return SparseMatrix(len(dense), (((i, j), v) for i, row in enumerate(dense, 1)
                                     for j, v in enumerate(row, 1) if v))


def dense_of(cm):
    """The entries of a ConnectionMatrix as m x m row lists."""
    return [[cm.entries.get((i, j), 0) for j in range(1, cm.m + 1)]
            for i in range(1, cm.m + 1)]


def invert_upper(u):
    """Inverse of an upper-triangular matrix with nonzero diagonal."""
    n = len(u)
    if not all(u[i][i] for i in range(n)):
        raise ValueError("zero diagonal entry in triangular inverse")
    cols = [solve_upper_dense(u, [int(i == c) for i in range(n)]) for c in range(n)]
    return [list(row) for row in zip(*cols)]


def solve_upper_dense(u, b):
    """x with u @ x == b for u upper triangular, back-substituting over
    every row and reading each row of u in full."""
    n = len(u)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = u[i]
        s = b[i]
        for k in range(i + 1, n):
            if row[k] and x[k]:
                s -= row[k] * x[k]
        if s:
            x[i] = exact_div(s, row[i])
    return x


def ops_product(m, ops):
    """The m x m transition of an op list as row lists, multiplied out
    densely: op (s, d, c) adds c times column s to column d of the product
    so far."""
    t = identity(m)
    for s, d, c in ops:
        for row in t:
            row[d - 1] = norm(row[d - 1] + c * row[s - 1])
    return t


def transitions(trace):
    """T^r for each op list of a trace, multiplied out densely."""
    return [ops_product(trace.matrix.m, ops) for ops in trace.ops]


def running_bases(trace):
    """The running bases P^r = T^0 T^1 ... T^r of a trace, multiplied out
    densely."""
    return list(accumulate(transitions(trace), mat_mul))


def offsets(t):
    """T - I as {row: [(column, value), ...]}, 0-based, over the rows of
    the dense T where the two differ, each row's entries in column order."""
    out = {}
    for i, row in enumerate(t):
        entries = [(j, v - (i == j)) for j, v in enumerate(row) if v != (i == j)]
        if entries:
            out[i] = entries
    return out


def is_identity(a):
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v != (1 if i == j else 0):
                return False
    return True


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if va != vb:
                return False
    return True


def mat_mul(a, b):
    """a @ b with zero-skipping; exact."""
    n = len(a)
    inner = len(b)
    p = len(b[0]) if inner else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        out_i = out[i]
        for k in range(inner):
            aik = row_a[k]
            if aik:
                row_b = b[k]
                for j in range(p):
                    bkj = row_b[j]
                    if bkj:
                        out_i[j] += aik * bkj
    for row in out:
        for j, v in enumerate(row):
            row[j] = norm(v)
    return out


def similarity_holds(trace):
    """(ok, first failure) for every link T^r Delta^{r+1} == Delta^r T^r of
    a sweep trace's similarity chain, multiplied out densely and worded as
    verify words it, running traces (z, accumulated) included."""
    mats = [thaw(x) for x in matrices(trace)]
    return _verdict([f"T^{r} Delta^{r + 1} != Delta^{r} T^{r}"
                     for r, t in enumerate(transitions(trace))
                     if not mat_eq(mat_mul(t, mats[r + 1]), mat_mul(mats[r], t))])


def _nonzeros(dense):
    return [(i, j) for i, row in enumerate(dense, start=1)
            for j, v in enumerate(row, start=1) if v]


def _verdict(bad):
    """(ok, detail) worded as verify words it: the first failure and how
    many there are."""
    if not bad:
        return (True, "")
    n = len(bad)
    return (False, f"{bad[0]} ({n} instance{'s' if n > 1 else ''} failed)")


def dense_check_verdicts(trace):
    """{check name: (ok, first failure)} for the pattern, below-diagonal
    and final-matrix checks of a sweep trace, every matrix read in full:
    the pattern is allowable_pattern's set, each diagonal's pivot map is
    rebuilt from the marks, and the final matrix is transposed."""
    m = trace.matrix.m
    mats = matrices(trace)
    marks = trace.registry.marks
    allowed = allowable_pattern(trace.matrix.partition, m)
    out = {}

    def pattern(seq):
        return _verdict([f"matrix {r} has a nonzero at {pos} outside the pattern"
                         for r, dense in enumerate(seq) for pos in _nonzeros(dense)
                         if pos not in allowed])

    def pivots(before=None):
        return {mk.position[1]: mk.position[0] for mk in marks if mk.kind == PRIMARY
                and (before is None or mk.diagonal < before)}

    if trace.algorithm != "revised1":
        out["pattern_compliance"] = pattern(mats)
        if trace.running:
            out["pattern_compliance_product"] = pattern(
                [mat_mul(thaw(mats[0]), p) for p in running_bases(trace)])
        bad = []
        for r, dense in enumerate(mats):
            pivot_row_of_col = pivots(r)
            bad.extend(f"matrix {r}: nonzero at {(i, j)} below diagonal {r} "
                       "is neither a primary pivot nor above one"
                       for i, j in _nonzeros(dense)
                       if j - i < r and pivot_row_of_col.get(j, 0) < i)
            bad.extend(f"matrix {r}: primary pivot at {(i, j)} became zero"
                       for j, i in pivot_row_of_col.items() if not dense[i - 1][j - 1])
            first_of_row = {}
            for mk in marks:
                if mk.kind == PRIMARY and mk.diagonal < r:
                    first = first_of_row.setdefault(mk.position[0], mk)
                    if first is not mk:
                        bad.append(f"matrix {r}: primary pivots at {first.position} "
                                   f"and {mk.position} share row {mk.position[0]}")
        out["below_diagonal_pivot_structure"] = _verdict(bad)
    final = trace.final
    pivot_row_of_col = pivots()
    bad = [f"final matrix: nonzero at {(i, j)} not above a primary pivot"
           for i, j in _nonzeros(final) if pivot_row_of_col.get(j, 0) < i]
    bad.extend(f"final matrix: primary pivot {(i, j)} is zero"
               for j, i in pivot_row_of_col.items() if not final[i - 1][j - 1])
    out["final_zero_pattern"] = _verdict(bad)
    if trace.algorithm != "revised1":
        out["final_complementarity"] = _verdict(
            [f"final matrix: column {j} and row {j} are both nonzero"
             for j, (col, row) in enumerate(zip(zip(*final), final), start=1)
             if any(col) and any(row)])
    return out


def pivot_zeroed_verdicts(trace):
    """{check name: (ok, first failure)} for a row-cancellation trace's
    pivot_row_zeroed and pivot_right_zeroed, reading each pivot's row in
    every matrix after its diagonal."""
    mats = matrices(trace)
    row_bad, right_bad = [], []
    for mk in trace.registry.marks:
        i, j = mk.position
        later = range(mk.diagonal + 1, len(mats))
        s = next((s for s in later if any(mats[s][j - 1])), None)
        if s is not None:
            row_bad.append(f"row {j} not zero in matrix {s} after its pivot")
        s = next((s for s in later if any(mats[s][i - 1][j:])), None)
        if s is not None:
            right_bad.append(f"matrix {s}: entries right of pivot {(i, j)} not zero")
    return {"pivot_row_zeroed": _verdict(row_bad),
            "pivot_right_zeroed": _verdict(right_bad)}


def revised_column_verdicts(trace):
    """{check name: (ok, first failure)} for a revised run's
    pivot_columns_frozen, active_block_zeroed and trailing_zeros_monotone,
    every matrix transposed and every column read in full."""
    m = trace.matrix.m
    marks = list(trace.registry.marks)
    marked = {}  # mark index t -> its pivot column in matrix t + 1
    moved = set()
    zeroed = []
    shrunk = []
    active = set(range(1, m + 1))
    trailing = None
    for s, dense in enumerate(matrices(trace)):
        cols = list(zip(*dense))
        for t, col in marked.items():
            if cols[marks[t].position[1] - 1] != col:
                moved.add(t)
        if 0 < s <= len(marks):
            i_t, j_t = marks[s - 1].position
            marked[s - 1] = cols[j_t - 1]
            active.discard(j_t)
            if any(any(cols[j - 1][i_t - 1:]) for j in active):
                zeroed.append(f"step {s}: active columns not zero from row "
                              f"{i_t} down")
        before = trailing
        trailing = [len(col) - 1 - max(compress(count(), col), default=-1)
                    for col in cols]
        if before is not None:
            shrunk.extend(f"step {s}: trailing zeros of column {j} decreased"
                          for j, (now, then) in enumerate(zip(trailing, before), 1)
                          if now < then)
    return {"pivot_columns_frozen": _verdict(
                [f"pivot column {marks[t].position[1]} changed after being marked"
                 for t in sorted(moved)]),
            "active_block_zeroed": _verdict(zeroed),
            "trailing_zeros_monotone": _verdict(shrunk)}


def reduction_steps(trace):
    """(r, surviving, removed pairs, entries) for each stage of
    row_cancel.reduce_complex, every surviving (i, j) pair of the stage's
    matrix read."""
    m = trace.matrix.m
    pivots = sorted(((mk.position[0], mk.position[1], mk.diagonal)
                     for mk in trace.registry.marks if mk.kind == PRIMARY),
                    key=lambda rec: (rec[2], rec[1]))
    steps, mats = [], matrices(trace)
    for r in range(m + 1):
        removed = set()
        new_pairs = []
        for (i, j, xi) in pivots:
            if xi < r:
                removed.add(i)
                removed.add(j)
                if xi == r - 1:
                    new_pairs.append((i, j, xi))
        surviving = tuple(idx for idx in range(1, m + 1) if idx not in removed)
        source = mats[r]
        entries = {}
        for i in surviving:
            row = source[i - 1]
            for j in surviving:
                v = row[j - 1]
                if v:
                    entries[(i, j)] = v
        steps.append((r, surviving, tuple(new_pairs), entries))
    return steps


def kernel_problems(trace):
    """The kernel problem of each change-of-basis mark (i, j) of a z trace,
    in mark order, rebuilt from the input: the rows of the chain group
    below j's from i down, over the columns of j's group up to j."""
    matrix = trace.matrix
    out = []
    for mk in trace.registry.marks:
        if mk.kind != CHANGE_OF_BASIS:
            continue
        i, j = mk.position
        k = matrix.chain_index(j)
        cols = sorted(col for col in matrix.partition[k] if col <= j)
        rows = sorted(row for row in matrix.partition[k - 1] if row >= i)
        out.append(KernelProblem(
            [[matrix.entries.get((row, col), 0) for col in cols] for row in rows],
            len(cols)))
    return out


def optimal_z_run(trace):
    """Whether trace is a run the integer sweep may make, read densely:
    every link similar, and each change-of-basis mark's column of its
    running basis an integer kernel vector of its problem with the minimal
    leading coefficient (solve_min_leading below)."""
    if trace.algorithm != "z" or not similarity_holds(trace)[0]:
        return False
    bases = running_bases(trace)
    marks = [mk for mk in trace.registry.marks if mk.kind == CHANGE_OF_BASIS]
    for mk, problem in zip(marks, kernel_problems(trace)):
        j = mk.position[1]
        cols = sorted(col for col in trace.matrix.partition[trace.matrix.chain_index(j)]
                      if col <= j)
        x = [bases[mk.diagonal][col - 1][j - 1] for col in cols]
        if (any(type(v) is not int for v in x)
                or any(sum(a * v for a, v in zip(row, x)) for row in problem.a)
                or x[-1] != solve_min_leading(problem)[-1]):
            return False
    return True


def _entry_lines(dense):
    out = []
    for i, row in enumerate(dense, start=1):
        if any(row):
            out.extend(f"entry {i} {j} {row[j - 1]}"
                       for j in compress(count(1), row))
    return out


def trace_lines(trace, full):
    """The records of trace.txt, every row of every matrix and transition
    formatted afresh."""
    lines = []
    if trace.algorithm == "block":
        for run in trace.runs:
            lines.append(f"block {run.k}")
            lines.append("Jk_pivot_columns " +
                         " ".join(str(c) for c in sorted(run.pivot_columns)))
            lines.extend(trace_lines(run.trace, full))
        return lines
    ts = running_bases(trace) if trace.running else transitions(trace)
    mats = matrices(trace)
    if trace.algorithm == "revised1":
        records = [(f"step {t}", [mk], ts[t - 1], t)
                   for t, mk in enumerate(trace.registry.marks, start=1)]
    else:
        records = [(f"r {r}", trace.registry.on_diagonal(r), ts[r], r)
                   for r in range(1, trace.matrix.m)]
    for label, marks, t, idx in records:
        lines.append(label)
        lines.extend(f"mark {mk.kind} {mk.position[0]} {mk.position[1]} {mk.value}"
                     for mk in marks)
        lines.append("transition")
        lines.extend(_entry_lines(t))
        if full:
            lines.append("matrix")
            lines.extend(_entry_lines(mats[idx]))
    return lines


# The integer-lattice routines as they were before linalg.kernel_chain: one
# echelon pass over the unit vectors augmented by the columns of the rows,
# a whole problem at a time.


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


def echelon_kernel_basis(rows, n_cols):
    """Echelon basis {pivot: vector} of {x in Z^n : rows @ x == 0}: of the
    echelon basis of the vectors (e_j, column j of rows), those pivoting
    among the first n coordinates, cut to them."""
    ech = echelon([e_j + [row[j] for row in rows]
                   for j, e_j in enumerate(identity(n_cols))])
    return {p: e[:n_cols] for p, e in ech.items() if p < n_cols}


# The integer-lattice routines as they were before linalg.echelon: a
# two-column xgcd elimination for the kernel, a separate echelon loop for
# the canonical reduction, and a gcd scan with an xgcd combination for the
# least positive leading coefficient. Tests hold the package's kernel chain
# to the same lattices and answers.


def integer_kernel_basis(rows, n_cols):
    """Basis of the lattice {x in Z^n : rows @ x == 0} for integer rows.

    Column elimination with unimodular two-column combinations; the returned
    vectors generate the full integer kernel, not merely a finite-index
    sublattice.
    """
    a_cols = [[row[j] for row in rows] for j in range(n_cols)]
    u_cols = [[1 if i == j else 0 for i in range(n_cols)] for j in range(n_cols)]
    free = list(range(n_cols))
    n_rows = len(rows)
    for i in range(n_rows):
        nz = [j for j in free if a_cols[j][i]]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a0, aj = a_cols[j0][i], a_cols[j][i]
            g, x, y = xgcd(a0, aj)
            s, t = a0 // g, aj // g
            c0a, cja = a_cols[j0], a_cols[j]
            c0u, cju = u_cols[j0], u_cols[j]
            a_cols[j0] = [x * p + y * q for p, q in zip(c0a, cja)]
            a_cols[j] = [-t * p + s * q for p, q in zip(c0a, cja)]
            u_cols[j0] = [x * p + y * q for p, q in zip(c0u, cju)]
            u_cols[j] = [-t * p + s * q for p, q in zip(c0u, cju)]
        free.remove(j0)
    return [u_cols[j] for j in free]


def reduce_mod_lattice(v, basis):
    """Canonical coset representative of v modulo the lattice spanned by basis.

    The lattice basis is echelonized with pivots at the lowest (largest-index)
    nonzero coordinate; v is then reduced pivot by pivot to the symmetric
    residue range, which is a unique representative of the coset.
    """
    v = list(v)
    work = [list(b) for b in basis if any(b)]
    ech = {}
    for b in work:
        while True:
            p = None
            for k in range(len(b) - 1, -1, -1):
                if b[k]:
                    p = k
                    break
            if p is None:
                break
            if p not in ech:
                ech[p] = b if b[p] > 0 else [-x for x in b]
                break
            e = ech[p]
            g, x, y = xgcd(e[p], b[p])
            s, t = e[p] // g, b[p] // g
            new_e = [x * p1 + y * q1 for p1, q1 in zip(e, b)]
            new_b = [s * q1 - t * p1 for p1, q1 in zip(e, b)]
            ech[p] = new_e if new_e[p] > 0 else [-x1 for x1 in new_e]
            b = new_b
    for p in sorted(ech, reverse=True):
        e = ech[p]
        h = e[p]
        rem = v[p] % h
        if 2 * rem > h:
            rem -= h
        q = (v[p] - rem) // h
        if q:
            v = [vi - q * ei for vi, ei in zip(v, e)]
    return v


def solve_min_leading(problem):
    """Optimal integer kernel vector with minimal positive last coordinate.

    The integer kernel lattice is computed exactly; the achievable last
    coordinates form g*Z for g the gcd of the basis last coordinates, and an
    extended-gcd combination realizes g. The remaining freedom (the
    sublattice with last coordinate zero) is fixed by reducing to the
    canonical symmetric-residue representative, so results are deterministic.
    """
    c = problem.c
    rows = clear_denominators([list(r) for r in problem.a])
    basis = integer_kernel_basis(rows, c)
    lasts = [vec[c - 1] for vec in basis]
    g = 0
    for v in lasts:
        g = gcd(g, v)
    if g == 0:
        raise AlgorithmError("no integer kernel vector with positive last coordinate")
    combo = None
    cur = 0
    for vec, last in zip(basis, lasts):
        if not last:
            continue
        if combo is None:
            combo, cur = list(vec), last
        else:
            _, x, y = xgcd(cur, last)
            combo = [x * p + y * q for p, q in zip(combo, vec)]
            cur = x * cur + y * last
    if combo[c - 1] < 0:
        combo = [-v for v in combo]
    sub = [[vec[k] - (vec[c - 1] // combo[c - 1]) * combo[k] for k in range(c)]
           for vec in basis]
    x = reduce_mod_lattice(combo, sub)
    return tuple(x)


# The per-algorithm suites verify_trace folded into one list of checks, kept
# as they were as its equivalence oracle; they call verify.py's helpers.


def input_valid(out, trace):
    """verify's input_valid, read densely: the input is valid and matrix 0
    equals it entry by entry."""
    m, first = trace.matrix.m, matrices(trace)[0]
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)] + [
        f"matrix 0 differs from the input at {(i, j)}"
        for i in range(1, m + 1) for j in range(1, m + 1)
        if first[i - 1][j - 1] != trace.matrix.entries.get((i, j), 0)])


def verify_sweep(trace):
    """Checks for z / accumulated / incremental sweep traces."""
    out = []
    input_valid(out, trace)
    m = trace.matrix.m
    allowed = pattern_test(trace.matrix.partition, m)
    versions = _row_versions(m, trace.rows)
    _pattern_compliance(out, "pattern_compliance", versions, allowed)
    changes = [offsets(t) for t in transitions(trace)]
    if trace.running:
        _pattern_compliance(out, "pattern_compliance_product",
                            _row_versions(m, _delta0_products(trace, changes)), allowed)
    marks = trace.registry.marks
    _below_diagonal_structure(out, versions, marks)
    # Mark (i, j) may change only (p, j) of T^r, (i, p) a pivot, or column j for z.
    primary_col_of_row = {i: j for j, i in _pivot_rows(marks).items()}
    _transition_structure(
        out, trace, changes,
        [(mk.diagonal, (None if trace.algorithm == "z" else
                        primary_col_of_row.get(mk.position[0], 0), mk.position[1]))
         for mk in marks if mk.kind == CHANGE_OF_BASIS],
        unit_diagonal=trace.algorithm != "z")
    _similarity(out, trace, changes)
    nonzeros = [vs[-1][2] for vs in versions]
    _final_zero_pattern(out, trace.final, nonzeros, marks)
    _final_complementarity(out, nonzeros)
    if trace.algorithm == "z":
        _kernel_minimality(out, trace)
    return out


def verify_row_cancellation(trace):
    """Structural checks for a row-cancellation trace, item by item."""
    out = []
    input_valid(out, trace)
    allowed = pattern_test(trace.matrix.partition, trace.matrix.m)
    versions = _row_versions(trace.matrix.m, trace.rows)
    _pattern_compliance(out, "pattern_compliance", versions, allowed)
    marks = trace.registry.marks
    _below_diagonal_structure(out, versions, marks)

    both = sorted({mk.position[1] for mk in marks} & {mk.position[0] for mk in marks})
    _check(out, "pivot_row_column_exclusion",
           [f"indices {both} are pivot rows and pivot columns at once"] if both else [])

    row_bad, right_bad = [], []
    for mk in marks:
        i, j = mk.position
        s = _first_nonzero_after(versions[j - 1], mk.diagonal)
        if s is not None:
            row_bad.append(f"row {j} not zero in matrix {s} after its pivot")
        s = _first_nonzero_after(versions[i - 1], mk.diagonal, j)
        if s is not None:
            right_bad.append(f"matrix {s}: entries right of pivot {(i, j)} not zero")
    _check(out, "pivot_row_zeroed", row_bad)
    _check(out, "pivot_right_zeroed", right_bad)

    rows = [mk.position[0] for mk in marks]
    _check(out, "row_pivot_uniqueness", [f"two primary pivots in row {i}"
                                         for n, i in enumerate(rows) if i in rows[:n]])

    changes = [offsets(t) for t in transitions(trace)]
    _transition_structure(out, trace, changes,
                          [(mk.diagonal, (mk.position[1], None)) for mk in marks])
    _similarity(out, trace, changes)
    nonzeros = [vs[-1][2] for vs in versions]
    _final_zero_pattern(out, trace.final, nonzeros, marks)
    _final_complementarity(out, nonzeros)
    return out


def verify_revised(trace):
    """Checks for the revised one-block run: pivot order, frozen pivot
    columns, monotone trailing zeros, transition structure (step t changes
    only the row of mark t's pivot column), similarity, final zero pattern."""
    out = []
    input_valid(out, trace)
    marks = list(trace.registry.marks)
    _check(out, "upper_triangular_pivots",
           [f"pivot {mk.position} not above the diagonal" for mk in marks
            if mk.position[1] <= mk.position[0]])
    rows = [mk.position[0] for mk in marks]
    _check(out, "pivot_rows_descend", [f"pivot rows {rows} not strictly decreasing"]
           if rows != sorted(set(rows), reverse=True) else [])
    _revised_columns(out, trace)

    changes = [offsets(t) for t in transitions(trace)]
    _transition_structure(out, trace, changes,
                          [(t, (mk.position[1], None)) for t, mk in enumerate(marks)])
    _similarity(out, trace, changes)
    _final_zero_pattern(out, trace.final,
                        [tuple(compress(count(), row)) for row in trace.final], marks)
    return out


def verify_trace(trace):
    """Every check for the trace of any run: a SweepTrace, or a BlockTrace.

    A block trace is checked against a run of its runner on the whole
    matrix, the independent reference for verify_block_runs, and then run
    by run, each run's check names prefixed with block{k}_.
    """
    algorithm = getattr(trace, "algorithm", None)
    if algorithm in ("z", "accumulated", "incremental"):
        return verify_sweep(trace)
    if algorithm == "rowcancel":
        return verify_row_cancellation(trace)
    if algorithm == "revised1":
        return verify_revised(trace)
    if algorithm == "block":
        out = verify_block_runs(trace.runs, trace.matrix,
                                trace.runner(trace.matrix))
        for run in trace.runs:
            out.extend((f"block{run.k}_{name}", ok, detail)
                       for name, ok, detail in verify_trace(run.trace))
        return out
    raise ValueError(f"no verifier for algorithm {algorithm!r}")
