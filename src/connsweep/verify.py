"""Invariant suites for finished traces.

Each checker returns (name, passed, detail) triples; the CLI renders them
into verify.txt and tests assert on them. Checks recompute everything from
the stored matrices, never trusting the algorithm's own intermediate state:
similarity is verified in product form (P Delta^r == Delta^0 P), which does
not share the inversion code path with the sweeps.
"""

from __future__ import annotations

from .core import CHANGE_OF_BASIS, PRIMARY, allowable_pattern, validate
from .linalg import mat_eq, mat_mul, thaw
from .oracles import ilp_brute_force
from .sweep_z import solve_min_leading


def _nonzeros(dense):
    for i, row in enumerate(dense, start=1):
        for j, v in enumerate(row, start=1):
            if v:
                yield (i, j), v


def _check(out, name, failures):
    if failures:
        out.append((name, False, failures[0]))
    else:
        out.append((name, True, ""))


def _pattern_compliance(out, name, matrices, pattern):
    bad = []
    for r, dense in enumerate(matrices):
        for (i, j), _ in _nonzeros(dense):
            if (i, j) not in pattern:
                bad.append(f"matrix {r} has a nonzero at {(i, j)} outside the pattern")
    _check(out, name, bad)


def _below_diagonal_structure(out, name, matrices, marks):
    """Strictly below diagonal r, nonzeros must be primary pivots or sit
    above one, and pivot entries must stay nonzero once their diagonal is
    strictly passed."""
    bad = []
    for r, dense in enumerate(matrices):
        pivots_before = {mk.position for mk in marks
                         if mk.kind == PRIMARY and mk.diagonal < r}
        pivot_cols = {j for (_, j) in pivots_before}
        pivot_row_of_col = {j: i for (i, j) in pivots_before}
        for (i, j), _ in _nonzeros(dense):
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
    m = trace.matrix.m
    partition = trace.matrix.partition
    group_of = trace.matrix.chain_index_map
    unit_diagonal = trace.algorithm != "z"
    for r, t in enumerate(trace.transitions):
        for i in range(1, m + 1):
            d = t[i - 1][i - 1]
            if unit_diagonal and d != 1:
                bad.append(f"transition {r}: diagonal entry {d} at {i}, expected 1")
            if not unit_diagonal and not d:
                bad.append(f"transition {r}: zero diagonal at {i}")
        for (i, j), _ in _nonzeros(t):
            if i == j:
                continue
            if i > j:
                bad.append(f"transition {r}: entry below the diagonal at {(i, j)}")
            elif group_of.get(i) != group_of.get(j):
                bad.append(f"transition {r}: off-diagonal entry at {(i, j)} "
                           "crosses chain groups")
    if trace.algorithm == "incremental":
        cb_cols = {mk.position[1] for mk in trace.registry.marks
                   if mk.kind == CHANGE_OF_BASIS}
        for r, t in enumerate(trace.transitions):
            for j in range(1, m + 1):
                extra = sum(1 for i in range(1, m + 1) if i != j and t[i - 1][j - 1])
                if extra and j not in cb_cols:
                    bad.append(f"transition {r}: column {j} changed without a "
                               "change-of-basis mark")
                if extra > 1:
                    bad.append(f"transition {r}: change-of-basis column {j} has "
                               f"{extra + 1} nonzeros, expected two")
    _check(out, "transition_structure", bad)


def _similarity(out, trace):
    bad = []
    mats = [thaw(x) for x in trace.matrices]
    ts = [thaw(x) for x in trace.transitions]
    if trace.algorithm in ("z", "accumulated"):
        delta0 = mats[0]
        for r in range(1, len(mats)):
            p = ts[r - 1]
            if not mat_eq(mat_mul(p, mats[r]), mat_mul(delta0, p)):
                bad.append(f"P^{r - 1} Delta^{r} != Delta^0 P^{r - 1}")
    else:
        for r in range(len(mats) - 1):
            t = ts[r]
            if not mat_eq(mat_mul(t, mats[r + 1]), mat_mul(mats[r], t)):
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
    m = len(final)
    for j in range(1, m + 1):
        col_nonzero = any(final[i][j - 1] for i in range(m))
        row_nonzero = any(final[j - 1][c] for c in range(m))
        if col_nonzero and row_nonzero:
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
    if trace.algorithm in ("z", "accumulated"):
        delta0 = thaw(trace.matrices[0])
        products = [mat_mul(delta0, thaw(p)) for p in trace.transitions]
        _pattern_compliance(out, "pattern_compliance_product", products, pattern)
    marks = trace.registry.marks
    _below_diagonal_structure(out, "below_diagonal_pivot_structure",
                              trace.matrices, marks)
    _transition_structure(out, trace)
    _similarity(out, trace)
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
    for r, t in enumerate(trace.transitions):
        diag_pivot_cols = {mk.position[1] for mk in marks if mk.diagonal == r}
        for (i, j), _ in _nonzeros(t):
            if i == j:
                if t[i - 1][j - 1] != 1:
                    bad.append(f"transition {r}: diagonal not unit at {i}")
            elif i > j:
                bad.append(f"transition {r}: entry below diagonal at {(i, j)}")
            elif i not in diag_pivot_cols:
                bad.append(f"transition {r}: row {i} changed without a pivot "
                           "in that column on this diagonal")
    _check(out, "transition_structure", bad)

    _similarity(out, trace)
    _final_zero_pattern(out, trace.final, marks)
    _final_complementarity(out, trace.final)
    return out


def verify_revised(trace):
    """Checks for the revised one-block run: pivot order, frozen pivot
    columns, monotone trailing zeros, final zero pattern."""
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

    bad = []
    for t, mk in enumerate(marks):
        j = mk.position[1]
        col_then = [mats[t + 1][i][j - 1] for i in range(m)]
        for s in range(t + 1, len(mats)):
            col_now = [mats[s][i][j - 1] for i in range(m)]
            if col_now != col_then:
                bad.append(f"pivot column {j} changed after being marked")
                break
    _check(out, "pivot_columns_frozen", bad)

    bad = []
    for t, mk in enumerate(marks):
        i_t = mk.position[0]
        active = set(range(1, m + 1)) - {mk2.position[1] for mk2 in marks[:t + 1]}
        for i in range(i_t, m + 1):
            for j in active:
                if mats[t + 1][i - 1][j - 1]:
                    bad.append(f"step {t + 1}: active columns not zero from row "
                               f"{i_t} down")
                    break
    _check(out, "active_block_zeroed", bad)

    bad = []
    def trailing_zeros(dense, j):
        n = 0
        for i in range(m, 0, -1):
            if dense[i - 1][j - 1]:
                break
            n += 1
        return n
    for s in range(1, len(mats)):
        for j in range(1, m + 1):
            if trailing_zeros(mats[s], j) < trailing_zeros(mats[s - 1], j):
                bad.append(f"step {s}: trailing zeros of column {j} decreased")
    _check(out, "trailing_zeros_monotone", bad)

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
