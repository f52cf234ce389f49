"""Invariant suites for finished traces.

Each checker returns (name, passed, detail) triples; the CLI renders them
into verify.txt and tests assert on them. Checks recompute everything from
the stored matrices and transitions, never trusting the algorithm's own
intermediate state, and share no code with the sweeps: similarity is
verified in product form (T Delta^{r+1} == Delta^r T, or P Delta^r ==
Delta^0 P for the running bases P), never by inverting or replaying a
change of basis.

The product form is evaluated sparsely and exactly. With T = I + N, where
N is read off the rows of T that differ from the identity's (one tuple
comparison per row), a link holds when Delta^{r+1} + N Delta^{r+1} ==
Delta^r + Delta^r N. Only the rows in N's row support change on the left
and only the columns in its column support on the right, so a link costs
one row-by-row comparison of two matrices plus work proportional to the
nonzeros N meets, not an m x m product.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import eq, ne

from .core import CHANGE_OF_BASIS, PRIMARY, allowable_pattern, validate
from .linalg import freeze, identity
from .oracles import ilp_brute_force
from .sweep_z import solve_min_leading


def _nonzeros(dense):
    for i, row in enumerate(dense, start=1):
        if any(row):
            for j in compress(count(1), row):
                yield (i, j), row[j - 1]


def _row_changes(t, base):
    """t - base as {row: [(column, difference), ...]}, 0-based, over the
    rows where the two differ, each row's entries in column order."""
    return {i: [(j, t[i][j] - base[i][j])
                for j in compress(count(), map(ne, t[i], base[i]))]
            for i in compress(count(), map(ne, t, base))}


def _offsets(transitions):
    """T - I as row changes for each transition T; a transition stored as
    one object several times, as the identity is, is compared once."""
    units = freeze(identity(len(transitions[0]))) if transitions else ()
    seen = {}
    out = []
    for t in transitions:
        n = seen.get(id(t))
        if n is None:
            n = seen[id(t)] = _row_changes(t, units)
        out.append(n)
    return out


def _left_update(n, b):
    """(I + N) b as a list of rows, N given by its row changes; the rows
    outside N's row support are b's own."""
    rows = list(b)
    for i, entries in n.items():
        row = list(b[i])
        for k, c in entries:
            bk = b[k]
            for j in compress(count(), bk):
                row[j] += c * bk[j]
        rows[i] = tuple(row)
    return rows


def _right_update(base, a_cols, d):
    """The rows of base + a D, one at a time, for a given by its columns
    and D by its row changes: row i gains a[i][k] * D[k] for each nonzero
    a[i][k], so only the columns in D's column support change."""
    hits = {}
    for k in d:
        for i in compress(count(), a_cols[k]):
            hits.setdefault(i, []).append(k)
    for i, row in enumerate(base):
        ks = hits.get(i)
        if ks:
            row = list(row)
            for k in ks:
                aik = a_cols[k][i]
                for j, c in d[k]:
                    row[j] += aik * c
            row = tuple(row)
        yield row


def _delta0_products(trace):
    """Delta^0 P for each stored running basis P, each from the one before:
    Delta^0 P^r = Delta^0 P^{r-1} + Delta^0 (P^r - P^{r-1})."""
    delta0 = trace.matrices[0]
    cols = list(zip(*delta0))
    prev = freeze(identity(len(delta0)))
    product = list(delta0)
    products = []
    for p in trace.transitions:
        product = list(_right_update(product, cols, _row_changes(p, prev)))
        products.append(product)
        prev = p
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
    """(r, i, row) for the rows of matrix r that differ from row i of
    matrix r - 1, and for every row of matrix 0: the rows a step changed.
    A check whose verdict on an entry cannot get better from one matrix to
    the next reads only these, since a violation in a row left as it was
    is reported at the matrix before, which comes first."""
    prev = None
    for r, dense in enumerate(matrices):
        if dense is not prev:
            for i, row in enumerate(dense, start=1):
                if prev is None or row != prev[i - 1]:
                    yield r, i, row
        prev = dense


def _pattern_compliance(out, name, matrices, pattern):
    bad = []
    for r, i, row in _fresh_rows(matrices):
        for j in compress(count(1), row):
            if (i, j) not in pattern:
                bad.append(f"matrix {r} has a nonzero at {(i, j)} outside the pattern")
    _check(out, name, bad)


def _below_diagonal_structure(out, name, matrices, marks):
    """Strictly below diagonal r, nonzeros must be primary pivots or sit
    above one, and pivot entries must stay nonzero once their diagonal is
    strictly passed.

    Pivots only join, and a pivot that joins at r sits on diagonal r - 1,
    above every entry already below it. So a row left as it was holds no
    new violation but at its entry on diagonal r - 1, which just fell
    below; changed rows are read in full."""
    bad = []
    changed = {}
    for r, i, row in _fresh_rows(matrices):
        changed.setdefault(r, set()).add(i)
    for r, dense in enumerate(matrices):
        pivots_before = {mk.position for mk in marks
                         if mk.kind == PRIMARY and mk.diagonal < r}
        pivot_row_of_col = {j: i for (i, j) in pivots_before}
        fresh = changed.get(r, ())
        for i, row in enumerate(dense, start=1):
            if i in fresh:
                cols = compress(count(1), row)
            elif 0 < i + r - 1 <= len(row) and row[i + r - 2]:
                cols = (i + r - 1,)
            else:
                continue
            for j in cols:
                if j - i >= r:
                    continue
                if (i, j) in pivots_before:
                    continue
                below = pivot_row_of_col.get(j)
                if below is None or below <= i:
                    bad.append(f"matrix {r}: nonzero at {(i, j)} below diagonal {r} "
                               "is neither a primary pivot nor above one")
        for (i, j) in pivots_before:
            if not dense[i - 1][j - 1]:
                bad.append(f"matrix {r}: primary pivot at {(i, j)} became zero")
    _check(out, name, bad)


def _transition_structure(out, trace):
    bad = []
    group_of = trace.matrix.chain_index_map
    unit_diagonal = trace.algorithm != "z"
    changes = _offsets(trace.transitions)
    for r, (t, n) in enumerate(zip(trace.transitions, changes)):
        for i in n:
            d = t[i][i]
            if unit_diagonal and d != 1:
                bad.append(f"transition {r}: diagonal entry {d} at {i + 1}, expected 1")
            if not unit_diagonal and not d:
                bad.append(f"transition {r}: zero diagonal at {i + 1}")
        for i, entries in n.items():
            for j, _ in entries:
                if i == j:
                    continue
                if i > j:
                    bad.append(f"transition {r}: entry below the diagonal at "
                               f"{(i + 1, j + 1)}")
                elif group_of.get(i + 1) != group_of.get(j + 1):
                    bad.append(f"transition {r}: off-diagonal entry at "
                               f"{(i + 1, j + 1)} crosses chain groups")
    if trace.algorithm == "incremental":
        cb_cols = {mk.position[1] for mk in trace.registry.marks
                   if mk.kind == CHANGE_OF_BASIS}
        for r, n in enumerate(changes):
            extra = Counter(j + 1 for i, entries in n.items()
                            for j, _ in entries if j != i)
            for j in sorted(extra):
                if j not in cb_cols:
                    bad.append(f"transition {r}: column {j} changed without a "
                               "change-of-basis mark")
                if extra[j] > 1:
                    bad.append(f"transition {r}: change-of-basis column {j} has "
                               f"{extra[j] + 1} nonzeros, expected two")
    _check(out, "transition_structure", bad)


def _similarity(out, trace, products=None):
    """The product form of every link; for z and accumulated traces,
    products holds Delta^0 P for each stored P (_delta0_products)."""
    bad = []
    mats = trace.matrices
    offsets = _offsets(trace.transitions)
    if trace.algorithm in ("z", "accumulated"):
        for r in range(1, len(mats)):
            n = offsets[r - 1]
            if _left_update(n, mats[r]) != products[r - 1]:
                bad.append(f"P^{r - 1} Delta^{r} != Delta^0 P^{r - 1}")
    else:
        for r in range(len(mats) - 1):
            n = offsets[r]
            if n:
                holds = all(map(eq, _left_update(n, mats[r + 1]),
                                _right_update(mats[r], list(zip(*mats[r])), n)))
            else:
                holds = mats[r + 1] == mats[r]
            if not holds:
                bad.append(f"T^{r} Delta^{r + 1} != Delta^{r} T^{r}")
    _check(out, "similarity", bad)


def _final_zero_pattern(out, final, marks):
    """Every nonzero of the final matrix is a primary pivot or above one."""
    bad = []
    pivot_row_of_col = {mk.position[1]: mk.position[0] for mk in marks
                        if mk.kind == PRIMARY}
    for (i, j), _ in _nonzeros(final):
        below = pivot_row_of_col.get(j)
        if (below == i) or (below is not None and below > i):
            continue
        bad.append(f"final matrix: nonzero at {(i, j)} not above a primary pivot")
    for mk in marks:
        if mk.kind == PRIMARY and not final[mk.position[0] - 1][mk.position[1] - 1]:
            bad.append(f"final matrix: primary pivot {mk.position} is zero")
    _check(out, "final_zero_pattern", bad)


def _final_complementarity(out, final):
    bad = []
    for j, (col, row) in enumerate(zip(zip(*final), final), start=1):
        if any(col) and any(row):
            bad.append(f"final matrix: column {j} and row {j} are both nonzero")
    _check(out, "final_complementarity", bad)


def _kernel_minimality(out, trace, bound=8):
    """Box enumeration bounds the true minimum from above (a witness of the
    optimum may stick out of the box), so equality is only demanded when the
    solver's own witness fits inside it."""
    bad = []
    checked = 0
    for problem in trace.kernel_problems:
        if problem.c > 6:
            continue
        witness = ilp_brute_force(problem, bound)
        if witness is None:
            continue
        got = solve_min_leading(problem)
        checked += 1
        if got[-1] > witness.min_leading or witness.min_leading % got[-1]:
            bad.append(f"kernel problem: leading {got[-1]} inconsistent with "
                       f"box minimum {witness.min_leading}")
        elif max(abs(v) for v in got) <= bound and got[-1] != witness.min_leading:
            bad.append(f"kernel problem: leading {got[-1]} but the box "
                       f"enumeration reaches {witness.min_leading}")
    out.append(("kernel_leading_minimality",
                not bad, bad[0] if bad else f"{checked} instances cross-checked"))


def verify_sweep(trace):
    """Checks for z / accumulated / incremental sweep traces."""
    out = []
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)])
    pattern = allowable_pattern(trace.matrix.partition, trace.matrix.m)
    _pattern_compliance(out, "pattern_compliance", trace.matrices, pattern)
    products = None
    if trace.algorithm in ("z", "accumulated"):
        products = _delta0_products(trace)
        _pattern_compliance(out, "pattern_compliance_product", products, pattern)
    marks = trace.registry.marks
    _below_diagonal_structure(out, "below_diagonal_pivot_structure",
                              trace.matrices, marks)
    _transition_structure(out, trace)
    _similarity(out, trace, products)
    _final_zero_pattern(out, trace.final, marks)
    _final_complementarity(out, trace.final)
    if trace.algorithm == "z":
        _kernel_minimality(out, trace)
    return out


def verify_row_cancellation(trace):
    """Structural checks for a row-cancellation trace, item by item."""
    out = []
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)])
    pattern = allowable_pattern(trace.matrix.partition, trace.matrix.m)
    _pattern_compliance(out, "pattern_compliance", trace.matrices, pattern)
    marks = trace.registry.marks
    _below_diagonal_structure(out, "below_diagonal_pivot_structure",
                              trace.matrices, marks)
    mats = trace.matrices

    bad = []
    pivot_cols = {mk.position[1] for mk in marks}
    pivot_rows = {mk.position[0] for mk in marks}
    if pivot_cols & pivot_rows:
        bad.append(f"indices {sorted(pivot_cols & pivot_rows)} are pivot rows "
                   "and pivot columns at once")
    _check(out, "pivot_row_column_exclusion", bad)

    bad = []
    for mk in marks:
        i, j = mk.position
        for s in range(mk.diagonal + 1, len(mats)):
            if any(mats[s][j - 1]):
                bad.append(f"row {j} not zero in matrix {s} after its pivot")
                break
    _check(out, "pivot_row_zeroed", bad)

    bad = []
    for mk in marks:
        i, j = mk.position
        for s in range(mk.diagonal + 1, len(mats)):
            if any(mats[s][i - 1][j:]):
                bad.append(f"matrix {s}: entries right of pivot {(i, j)} not zero")
                break
    _check(out, "pivot_right_zeroed", bad)

    bad = []
    rows_seen = set()
    for mk in marks:
        if mk.position[0] in rows_seen:
            bad.append(f"two primary pivots in row {mk.position[0]}")
        rows_seen.add(mk.position[0])
    _check(out, "row_pivot_uniqueness", bad)

    bad = []
    for r, (t, n) in enumerate(zip(trace.transitions, _offsets(trace.transitions))):
        diag_pivot_cols = {mk.position[1] for mk in marks if mk.diagonal == r}
        for i, entries in n.items():
            for j, _ in entries:
                if i == j:
                    if t[i][i]:
                        bad.append(f"transition {r}: diagonal not unit at {i + 1}")
                elif i > j:
                    bad.append(f"transition {r}: entry below diagonal at "
                               f"{(i + 1, j + 1)}")
                elif i + 1 not in diag_pivot_cols:
                    bad.append(f"transition {r}: row {i + 1} changed without a "
                               "pivot in that column on this diagonal")
    _check(out, "transition_structure", bad)

    _similarity(out, trace)
    _final_zero_pattern(out, trace.final, marks)
    _final_complementarity(out, trace.final)
    return out


def verify_revised(trace):
    """Checks for the revised one-block run: pivot order, frozen pivot
    columns, monotone trailing zeros, similarity, final zero pattern."""
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

    _similarity(out, trace)
    _final_zero_pattern(out, trace.final, marks)
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
