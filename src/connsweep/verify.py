"""Invariant suites for finished traces.

Each checker returns (name, passed, detail) triples; the CLI renders them
into verify.txt and tests assert on them. Checks recompute everything from
the stored matrices and transitions, never trusting the algorithm's own
intermediate state, and share no code with the sweeps: similarity is
verified in product form (T Delta^{r+1} == Delta^r T, or P Delta^r ==
Delta^0 P for the running bases P), never by inverting or replaying a
change of basis.

The product form is evaluated sparsely and exactly. With T = I + N, where
N is read off the rows of T that differ from the identity's (rows shared
with the T before are not read again), a link holds when Delta^{r+1} +
N Delta^{r+1} == Delta^r + Delta^r N. The sides can differ only in N's
rows, in the rows of Delta^r that meet its row support and in the rows
Delta^{r+1} does not share with Delta^r, so a link compares just those.
The other checks read each matrix's fresh rows (_fresh_rows) once, and
the below-diagonal check reads an unchanged row only at an entry that just
fell below, so a check costs the entries the steps changed plus O(m) per
matrix, not O(m^2).

Every stored transition obeys one rule (_transition_structure): upper
triangular within chain groups, a unit diagonal (nonzero for the integer
running bases), and no change outside what the marks of its step allow,
read from T - I, or from P^r - P^{r-1} for a running basis.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count, repeat
from operator import is_not, itemgetter, ne

from .core import CHANGE_OF_BASIS, PRIMARY, pattern_test, validate
from .linalg import freeze, identity
from .oracles import ilp_box_fits, ilp_brute_force
from .sweep_z import KernelProblem


def _new_rows(t, prev):
    """Indices of the rows of t that are not prev's own objects (the rest equal)."""
    return compress(count(), map(is_not, t, prev))


def _row_changes(t, base, rows=None):
    """t - base as {row: [(column, difference), ...]}, 0-based, over the
    given rows (by default those that are not base's own objects) where the
    two differ, each row's entries in column order."""
    return {i: [(j, t[i][j] - base[i][j])
                for j in compress(count(), map(ne, t[i], base[i]))]
            for i in (_new_rows(t, base) if rows is None else rows)
            if t[i] != base[i]}


def _offsets(transitions):
    """T - I as row changes for each transition T; a row that is the
    previous T's own object keeps the change found for it there."""
    units = freeze(identity(len(transitions[0]))) if transitions else ()
    prev, n = units, {}
    out = []
    for t in transitions:
        if t is not prev:
            n = dict(sorted({**{i: c for i, c in n.items() if t[i] is prev[i]},
                             **_row_changes(t, units, _new_rows(t, prev))}.items()))
        out.append(n)
        prev = t
    return out


def _left_row(n, b, i):
    """Row i of (I + N) b as a list, N given by its row changes."""
    row = list(b[i])
    for k, c in n.get(i, ()):
        bk = b[k]
        for j in compress(count(), bk):
            row[j] += c * bk[j]
    return row


def _right_rows(base, a, d):
    """The rows of base + a D that can differ from base's, as {row: list},
    D given by its row changes: row i gains a[i][k] * D[k] for each nonzero
    a[i][k], so only a's columns in D's row support are read and only the
    columns in D's column support change."""
    hits = {}
    for k in d:
        for i in compress(count(), map(itemgetter(k), a)):
            hits.setdefault(i, []).append(k)
    rows = {}
    for i, ks in hits.items():
        row = rows[i] = list(base[i])
        for k in ks:
            aik = a[i][k]
            for j, c in d[k]:
                row[j] += aik * c
    return rows


def _basis_steps(bases):
    """P^r - P^{r-1} as row changes for each running basis P^r (P^{-1} = I):
    what each step changed."""
    units = freeze(identity(len(bases[0])))
    return [_row_changes(p, prev) for prev, p in zip((units, *bases), bases)]


def _delta0_products(trace, steps):
    """Delta^0 P for each stored running basis P, each from the one before:
    Delta^0 P^r = Delta^0 P^{r-1} + Delta^0 (P^r - P^{r-1}), the last term
    from steps (_basis_steps)."""
    delta0 = trace.matrices[0]
    product = list(delta0)
    products = []
    for step in steps:
        product = list(product)
        for i, row in _right_rows(product, delta0, step).items():
            product[i] = tuple(row)
        products.append(product)
    return products


def _trailing_zeros(col):
    """The number of zeros below the last nonzero of a column."""
    return len(col) - 1 - max(compress(count(), col), default=-1)


def _check(out, name, failures):
    if failures:
        out.append((name, False, failures[0]))
    else:
        out.append((name, True, ""))


def _fresh_rows(matrices):
    """For each matrix r, {i: nonzero columns} (0-based, ascending) over
    the rows that differ from row i of matrix r - 1, and over every row of
    matrix 0: the rows a step changed. A check whose verdict on an entry
    cannot get better from one matrix to the next reads only these, since a
    violation in a row left as it was is reported at the matrix before,
    which comes first. Also returns the last matrix's nonzero columns."""
    out = []
    prev = (None,) * len(matrices[0]) if matrices else ()
    last = [()] * len(prev)
    cols_of = {}  # id(row) -> its nonzero columns; the rows outlive this call
    for dense in matrices:
        rows = {}
        if dense is not prev:
            for i in _new_rows(dense, prev):
                row = dense[i]
                if row != prev[i]:
                    cols = cols_of.get(id(row))
                    if cols is None:
                        cols = cols_of[id(row)] = tuple(compress(count(), row))
                    rows[i] = last[i] = cols
        out.append(rows)
        prev = dense
    return out, last


def _pattern_compliance(out, name, fresh, allowed):
    """fresh: as _fresh_rows gives it; allowed: a pattern_test."""
    _check(out, name, [f"matrix {r} has a nonzero at {(i + 1, j + 1)} outside "
                       "the pattern" for r, rows in enumerate(fresh)
                       for i, cols in rows.items() for j in cols
                       if not allowed(i + 1, j + 1)])


def _above_pivot(pivot_row_of_col, i, j):
    """A nonzero at (i, j) may stay iff its column's pivot row is i or below."""
    return pivot_row_of_col.get(j, 0) >= i


def _pivot_rows(marks):
    """Column -> row of each primary pivot."""
    return {mk.position[1]: mk.position[0] for mk in marks if mk.kind == PRIMARY}


def _below_diagonal_structure(out, matrices, fresh, marks):
    """Strictly below diagonal r, nonzeros must be primary pivots or sit
    above one, and pivot entries must stay nonzero once their diagonal is
    strictly passed.

    Pivots only join, and a pivot that joins at r sits on diagonal r - 1,
    above every entry already below it. So a row left as it was holds no
    new violation but at its entry on diagonal r - 1, which just fell
    below, and a pivot entry can only turn zero where its row changed. The
    pivot map grows once. A fresh row is read up to the diagonal, and its
    next entry is filed under the matrix where it falls below; there, if
    the row is still the one read, that entry is read and the next one
    filed. A pivot is read where it joins and where its row is fresh."""
    joins = {}
    for n, mk in enumerate(marks):
        if mk.kind == PRIMARY:
            joins.setdefault(max(mk.diagonal + 1, 0), []).append((n, mk.position))
    pivot_row_of_col, pivots_of_row = {}, {}
    due, read_at = {}, {}  # due: matrix -> (row, matrix read at, column's place)
    bad = []
    for r, (dense, rows) in enumerate(zip(matrices, fresh)):
        joined, late = joins.get(r, ()), due.pop(r, ())
        if not (rows or joined or late):
            continue
        for n, (i, j) in joined:
            pivot_row_of_col[j] = i
            pivots_of_row.setdefault(i - 1, []).append((n, (i, j)))
        read_at.update(dict.fromkeys(rows, r))
        entries = []
        for i, s, p in [*((i, r, 0) for i in rows), *late]:
            if read_at[i] == s:
                cols = fresh[s][i]
                q = bisect_left(cols, i + r, p)
                entries.extend(zip(repeat(i), cols[p:q]))
                if q < len(cols):
                    due.setdefault(cols[q] - i + 1, []).append((i, s, q))
        bad.extend(f"matrix {r}: nonzero at {(i + 1, j + 1)} below diagonal {r} "
                   "is neither a primary pivot nor above one"
                   for i, j in sorted(entries)
                   if not _above_pivot(pivot_row_of_col, i + 1, j + 1))
        pivots = {*joined, *(p for i in rows for p in pivots_of_row.get(i, ()))}
        bad.extend(f"matrix {r}: primary pivot at {(i, j)} became zero"
                   for _, (i, j) in sorted(pivots) if not dense[i - 1][j - 1])
    _check(out, "below_diagonal_pivot_structure", bad)


def _transition_structure(out, trace, changes, allowed, unit_diagonal=True):
    """Every transition T is upper triangular within chain groups with a
    unit diagonal (or, unit_diagonal false, a nonzero one), and each step
    changes only what its marks allow: allowed holds (r, (i, j)) pairs,
    None standing for any row or column. changes[r] is T - I (_offsets),
    or P^r - P^{r-1} for a running basis (_basis_steps)."""
    supports = [set() for _ in changes]
    for r, position in allowed:
        supports[r].add(position)
    bad = []
    group_of = trace.matrix.chain_index_map
    for r, (t, n, support) in enumerate(zip(trace.transitions, changes, supports)):
        for i, entries in n.items():
            for j, _ in entries:
                pos = (i + 1, j + 1)
                if i == j and (unit_diagonal or not t[i][i]):
                    bad.append(f"transition {r}: diagonal entry {t[i][i]} at {i + 1}, "
                               f"expected {1 if unit_diagonal else 'nonzero'}")
                elif i > j:
                    bad.append(f"transition {r}: entry below the diagonal at {pos}")
                elif group_of.get(i + 1) != group_of.get(j + 1):
                    bad.append(f"transition {r}: off-diagonal entry at {pos} "
                               "crosses chain groups")
                elif not (pos in support or (i + 1, None) in support
                          or (None, j + 1) in support):
                    bad.append(f"transition {r}: entry at {pos} outside what the "
                               "marks of its step allow")
    _check(out, "transition_structure", bad)


def _similarity(out, trace, offsets, products=None):
    """The product form of every link, given T - I for each stored T
    (_offsets); for z and accumulated traces, products holds Delta^0 P for
    each stored P (_delta0_products)."""
    bad = []
    mats = trace.matrices
    if products is not None:
        for r in range(1, len(mats)):
            n, left = offsets[r - 1], list(mats[r])  # (I + N) Delta^r
            for i in n:
                left[i] = tuple(_left_row(n, mats[r], i))
            if left != products[r - 1]:
                bad.append(f"P^{r - 1} Delta^{r} != Delta^0 P^{r - 1}")
    else:
        for r in range(len(mats) - 1):
            n, a, b = offsets[r], mats[r], mats[r + 1]
            if not n and b is a:
                continue
            right = _right_rows(a, a, n)
            if any(_left_row(n, b, i) != (right[i] if i in right else list(a[i]))
                   for i in {*n, *right, *(() if b is a else _new_rows(b, a))}):
                bad.append(f"T^{r} Delta^{r + 1} != Delta^{r} T^{r}")
    _check(out, "similarity", bad)


def _final_zero_pattern(out, final, nonzeros, marks):
    """Every nonzero of the final matrix (nonzeros: the columns of each
    row's) is a primary pivot or above one."""
    bad = []
    pivot_row_of_col = _pivot_rows(marks)
    for i, cols in enumerate(nonzeros, start=1):
        bad.extend(f"final matrix: nonzero at {(i, j + 1)} not above a primary pivot"
                   for j in cols if not _above_pivot(pivot_row_of_col, i, j + 1))
    for j, i in pivot_row_of_col.items():
        if not final[i - 1][j - 1]:
            bad.append(f"final matrix: primary pivot {(i, j)} is zero")
    _check(out, "final_zero_pattern", bad)


def _final_complementarity(out, nonzeros):
    """No index is both a nonzero row and a nonzero column of the final
    matrix, given the columns of each row's nonzeros."""
    both = {i for i, cols in enumerate(nonzeros) if cols} & set().union(*nonzeros)
    _check(out, "final_complementarity",
           [f"final matrix: column {j + 1} and row {j + 1} are both nonzero"
            for j in sorted(both)])


def _kernel_minimality(out, trace, bound=8):
    """Each change-of-basis mark (i, j) of a z trace stores its combination
    as column j of its diagonal's running basis, over j's chain group up to
    j; its kernel problem is rebuilt from the input on those columns and the
    rows of the group below from i down. Box enumeration bounds the true
    minimum from above (an optimal witness may stick out of the box), so
    equality is only demanded when the stored combination fits inside it.
    A problem whose box is past ILP_MAX_BOX is skipped, and counted."""
    bad = []
    checked = skipped = 0
    matrix = trace.matrix
    for mk in trace.registry.marks:
        if mk.kind != CHANGE_OF_BASIS:
            continue
        i, j = mk.position
        k = matrix.chain_index(j)
        cols = sorted(col for col in matrix.partition[k] if col <= j)
        if not ilp_box_fits(len(cols), bound):
            skipped += 1
            continue
        a = [[matrix.entry(row, col) for col in cols]
             for row in sorted(matrix.partition[k - 1]) if row >= i]
        witness = ilp_brute_force(KernelProblem(a, len(cols)), bound)
        if witness is None:
            continue
        got = [trace.transitions[mk.diagonal][col - 1][j - 1] for col in cols]
        checked += 1
        if not 0 < got[-1] <= witness.min_leading or witness.min_leading % got[-1]:
            bad.append(f"kernel problem: leading {got[-1]} inconsistent with "
                       f"box minimum {witness.min_leading}")
        elif max(abs(v) for v in got) <= bound and got[-1] != witness.min_leading:
            bad.append(f"kernel problem: leading {got[-1]} but the box "
                       f"enumeration reaches {witness.min_leading}")
    out.append(("kernel_leading_minimality", not bad, bad[0] if bad else
                f"{checked} instances cross-checked, {skipped} skipped "
                f"(box past ILP_MAX_BOX)"))


def verify_sweep(trace):
    """Checks for z / accumulated / incremental sweep traces."""
    out = []
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)])
    allowed = pattern_test(trace.matrix.partition, trace.matrix.m)
    fresh, nonzeros = _fresh_rows(trace.matrices)
    _pattern_compliance(out, "pattern_compliance", fresh, allowed)
    offsets = _offsets(trace.transitions)
    changes, products = offsets, None
    running = trace.algorithm in ("z", "accumulated")
    if running:
        changes = _basis_steps(trace.transitions)
        products = _delta0_products(trace, changes)
        _pattern_compliance(out, "pattern_compliance_product",
                            _fresh_rows(products)[0], allowed)
    marks = trace.registry.marks
    _below_diagonal_structure(out, trace.matrices, fresh, marks)
    # Mark (i, j) may change column j of P^r, but of T^r only (p, j), (i, p) a pivot.
    primary_col_of_row = {i: j for j, i in _pivot_rows(marks).items()}
    _transition_structure(
        out, trace, changes,
        [(mk.diagonal, (None if running else primary_col_of_row[mk.position[0]],
                        mk.position[1]))
         for mk in marks if mk.kind == CHANGE_OF_BASIS],
        unit_diagonal=trace.algorithm != "z")
    _similarity(out, trace, offsets, products)
    _final_zero_pattern(out, trace.final, nonzeros, marks)
    _final_complementarity(out, nonzeros)
    if trace.algorithm == "z":
        _kernel_minimality(out, trace)
    return out


def _first_nonzero_after(mats, changed_rows, r, i, lo=0):
    """The first matrix s > r whose row i has a nonzero past column lo, or
    None. Only matrix r + 1 is read; after it the row can turn nonzero only
    in a matrix whose step changed it, its (s, nonzero columns) in
    changed_rows[i]."""
    if r + 1 >= len(mats):
        return None
    if any(mats[r + 1][i - 1][lo:]):
        return r + 1
    return next((s for s, cols in changed_rows.get(i, ())
                 if s > r + 1 and cols and cols[-1] >= lo), None)


def verify_row_cancellation(trace):
    """Structural checks for a row-cancellation trace, item by item."""
    out = []
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)])
    allowed = pattern_test(trace.matrix.partition, trace.matrix.m)
    fresh, nonzeros = _fresh_rows(trace.matrices)
    _pattern_compliance(out, "pattern_compliance", fresh, allowed)
    marks = trace.registry.marks
    mats = trace.matrices
    _below_diagonal_structure(out, mats, fresh, marks)

    bad = []
    pivot_cols = {mk.position[1] for mk in marks}
    pivot_rows = {mk.position[0] for mk in marks}
    if pivot_cols & pivot_rows:
        bad.append(f"indices {sorted(pivot_cols & pivot_rows)} are pivot rows "
                   "and pivot columns at once")
    _check(out, "pivot_row_column_exclusion", bad)

    changed_rows = {}
    for r, rows in enumerate(fresh):
        for i, cols in rows.items():
            changed_rows.setdefault(i + 1, []).append((r, cols))
    row_bad, right_bad = [], []
    for mk in marks:
        i, j = mk.position
        s = _first_nonzero_after(mats, changed_rows, mk.diagonal, j)
        if s is not None:
            row_bad.append(f"row {j} not zero in matrix {s} after its pivot")
        s = _first_nonzero_after(mats, changed_rows, mk.diagonal, i, j)
        if s is not None:
            right_bad.append(f"matrix {s}: entries right of pivot {(i, j)} not zero")
    _check(out, "pivot_row_zeroed", row_bad)
    _check(out, "pivot_right_zeroed", right_bad)

    bad = []
    rows_seen = set()
    for mk in marks:
        if mk.position[0] in rows_seen:
            bad.append(f"two primary pivots in row {mk.position[0]}")
        rows_seen.add(mk.position[0])
    _check(out, "row_pivot_uniqueness", bad)

    offsets = _offsets(trace.transitions)
    _transition_structure(out, trace, offsets,
                          [(mk.diagonal, (mk.position[1], None)) for mk in marks])
    _similarity(out, trace, offsets)
    _final_zero_pattern(out, trace.final, nonzeros, marks)
    _final_complementarity(out, nonzeros)
    return out


def verify_revised(trace):
    """Checks for the revised one-block run: pivot order, frozen pivot
    columns, monotone trailing zeros, transition structure (step t changes
    only the row of mark t's pivot column), similarity, final zero pattern."""
    out = []
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)])
    m = trace.matrix.m
    mats = trace.matrices
    marks = list(trace.registry.marks)

    bad = []
    for mk in marks:
        if mk.position[1] <= mk.position[0]:
            bad.append(f"pivot {mk.position} not above the diagonal")
    _check(out, "upper_triangular_pivots", bad)

    bad = []
    rows = [mk.position[0] for mk in marks]
    if rows != sorted(rows, reverse=True) or len(set(rows)) != len(rows):
        bad.append(f"pivot rows {rows} not strictly decreasing")
    _check(out, "pivot_rows_descend", bad)

    # One transpose per matrix serves the three column checks below.
    marked = {}  # mark index t -> its pivot column in matrix t + 1
    moved = set()
    zeroed = []
    shrunk = []
    active = set(range(1, m + 1))
    trailing = None
    for s, dense in enumerate(mats):
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
        before, trailing = trailing, [_trailing_zeros(col) for col in cols]
        if before is not None:
            shrunk.extend(f"step {s}: trailing zeros of column {j} decreased"
                          for j, (now, then) in enumerate(zip(trailing, before), 1)
                          if now < then)
    _check(out, "pivot_columns_frozen",
           [f"pivot column {marks[t].position[1]} changed after being marked"
            for t in sorted(moved)])
    _check(out, "active_block_zeroed", zeroed)
    _check(out, "trailing_zeros_monotone", shrunk)

    offsets = _offsets(trace.transitions)
    _transition_structure(out, trace, offsets,
                          [(t, (mk.position[1], None)) for t, mk in enumerate(marks)])
    _similarity(out, trace, offsets)
    _final_zero_pattern(out, trace.final,
                        [tuple(compress(count(), row)) for row in trace.final], marks)
    return out


def verify_block_runs(runs, matrix, full_trace):
    """Blockwise finals and marks must match the full run."""
    out = []
    bad = []
    final = full_trace.final
    for run in runs:
        rows = sorted(matrix.partition[run.k - 1])
        cols = sorted(matrix.partition[run.k])
        block_final = run.trace.final
        for i in rows:
            for j in cols:
                if final[i - 1][j - 1] != block_final[i - 1][j - 1]:
                    bad.append(f"block {run.k}: final entry {(i, j)} differs")
    _check(out, "uncoupling_blocks", bad)
    bad = []
    union = set()
    for run in runs:
        union |= {(mk.position, mk.kind, mk.value) for mk in run.trace.registry.marks}
    whole = {(mk.position, mk.kind, mk.value) for mk in full_trace.registry.marks}
    if union != whole:
        bad.append(f"marks differ: only blockwise {sorted(union - whole)}, "
                   f"only full {sorted(whole - union)}")
    _check(out, "uncoupling_marks", bad)
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
