"""The invariant suite for finished traces, verify_trace.

Every run gets input_valid, transition_structure, similarity and
final_zero_pattern, and every diagonal run also pattern_compliance,
below_diagonal_pivot_structure and final_complementarity. What an
algorithm adds sits in its place in that one list: the running bases of
z and accumulated pattern_compliance_product, and z
kernel_leading_minimality; rowcancel its row checks
(pivot_row_column_exclusion, pivot_row_zeroed, pivot_right_zeroed,
row_pivot_uniqueness); revised1 its pivot order (upper_triangular_pivots,
pivot_rows_descend) and column checks (pivot_columns_frozen,
active_block_zeroed, trailing_zeros_monotone). A block trace is checked
against a run on the whole matrix (verify_block_runs), then block by block.

Together the checks certify the pivot set. transition_structure and
similarity make the final matrix T^{-1} Delta T for T upper triangular
within chain groups, so every lower-left corner (rows >= i, columns <= j)
keeps the input's rank. final_zero_pattern puts every nonzero of the final
matrix on a primary pivot or above one, and no two primary pivots share a
row (below_diagonal_pivot_structure; pivot_rows_descend for revised1) or
a column (MarkRegistry), so a corner's rank is the number of its pivots:
the pivots are the input's rank jumps, by the pairing lemma (Edelsbrunner
and Harer, Computational Topology, VII.1; Cohen-Steiner, Edelsbrunner and
Morozov, Vines and vineyards, 2006).

Each check gives a (name, passed, detail) triple; the CLI renders them
into verify.txt. A failing check's detail is its first failure and how
many instances failed (_failed), counted as the check reads them: an entry
read once while it lasts over many matrices counts once. Checks recompute
everything from the stored rows and op lists and share no code with the
sweeps; input_valid also holds the first stored matrix to the input.
Every T^r obeys one rule (_transition_structure): upper triangular within
chain groups, a unit diagonal (nonzero for z), and no change outside what
the marks of its step allow. Similarity is checked link by link, T^r
Delta^{r+1} == Delta^r T^r, never by inverting or replaying a change of
basis; for the running bases P^r = P^{r-1} T^r of z and accumulated that
is the same as P^r Delta^{r+1} == Delta^0 P^r.

A trace stores of each matrix the rows whose values differ from the matrix
before's (SweepTrace.rows), and every check reads them as each row's
versions (_row_versions): the matrices a version spans and its nonzero
columns. The pattern check reads each version once; the below-diagonal
check reads each entry of a version once, where it first lies below the
diagonal, and each pivot in the versions of its row live after it joins;
the final checks read each row's last version, and the revised run's
column checks each row where it changes and where it first meets the pivot
rows. Each T^r - I comes from the step's ops through linalg.products. So a
check costs the rows and entries the steps changed plus O(m) per matrix.

The product form is evaluated sparsely and exactly. With T = I + N, a link
holds when Delta^{r+1} + N Delta^{r+1} == Delta^r + Delta^r N. The sides
can differ only in N's rows, in the rows of Delta^r that meet its row
support and in the rows Delta^{r+1} changed, so a link compares just those,
and builds no Fraction: row i holds when Delta^r[i] + z equals
Delta^{r+1}[i], z = (Delta^r N - N Delta^{r+1})[i] summed as unreduced
(numerator, denominator) pairs and compared cross-multiplied, a few integer
products per entry the step touched (elsewhere, by value where the entry
objects differ). Delta^r is one list of rows, moved on link by link by
each step's stored rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count, repeat
from math import gcd
from operator import is_not, itemgetter, le

from .core import CHANGE_OF_BASIS, PRIMARY, pattern_test, validate
from .linalg import products
from .oracles import ilp_box_fits, ilp_brute_force


def _changes(trace):
    """T^r - I for each op list of trace, as {row: [(column, value), ...]},
    0-based, rows and each row's entries in ascending order."""
    return [{i: sorted(n[i].items()) for i in sorted(rows) if n[i]}
            for n, rows in products(trace.matrix.m, trace.ops)]


def _ratios(entries):
    """(j, numerator, denominator) for each (j, v) of entries."""
    return [(j, v.numerator, v.denominator) for j, v in entries]


def _add_terms(sums, c, entries):
    """sums[j] += c n/d for each (j, n, d) of entries, taking no gcd."""
    cn, cd = c.numerator, c.denominator
    for j, n, d in entries:
        n, d = cn * n, cd * d
        sn, sd = sums.get(j, (0, d))
        sums[j] = (sn + n, d) if sd == d else (sn * d + n * sd, sd * d)


def _link_holds(a, n, changed):
    """a + a N == b + N b for a = Delta^r, N by its row changes and b =
    Delta^{r+1}, a with the rows changed replaced: row i as a[i] + z == b[i]
    for z = (a N - N b)[i] summed by _add_terms (see the module docstring)."""
    zs = {i: {} for i in {*n, *changed}}  # row i -> its z
    for k, entries in n.items():
        ratios = _ratios(entries)
        for i in compress(count(), map(itemgetter(k), a)):
            _add_terms(zs.setdefault(i, {}), a[i][k], ratios)
    for i, entries in n.items():
        for k, c in entries:
            bk = changed.get(k, a[k])
            _add_terms(zs[i], -c, _ratios(zip(compress(count(), bk), filter(None, bk))))
    for i, z in zs.items():
        ai, bi = a[i], changed.get(i, a[i])
        for j, (zn, zd) in z.items():
            u, v = ai[j], bi[j]
            an, ad, bn, bd = u.numerator, u.denominator, v.numerator, v.denominator
            if (an * zd + zn * ad) * bd != bn * ad * zd:
                return False
        if bi is not ai and not all(bi[j] == ai[j] for j in set(
                compress(count(), map(is_not, bi, ai))).difference(z)):
            return False
    return True


def _matrix_rows(m, rows):
    """An m x m matrix as one list of row tuples, from its stored rows."""
    a = [(0,) * m] * m
    for i, row in rows.items():
        a[i] = row
    return a


def _delta0_products(trace, changes):
    """The stored rows of Delta^0 P^r for the running bases P^r, as
    SweepTrace.rows holds a trace's matrices, each product from the one
    before: Delta^0 P^r = Delta^0 P^{r-1} + Delta^0 P^{r-1} (T^r - I),
    P^{-1} = I, changes[r] = T^r - I."""
    product, out = _matrix_rows(trace.matrix.m, trace.rows[0]), []
    for n in changes:
        rows = {}  # row i gains product[i][k] * (T^r - I)[k], product[i][k] != 0
        for k, entries in n.items():
            for i in compress(count(), map(itemgetter(k), product)):
                row = rows.setdefault(i, list(product[i]))
                for j, c in entries:
                    row[j] += product[i][k] * c
        changed = {}
        for i, row in rows.items():
            if (row := tuple(row)) != product[i]:
                changed[i] = product[i] = row
        out.append(changed)
    out[0] = {**trace.rows[0], **out[0]}  # Delta^0 P^0 is stored whole
    return out


def _failed(failures):
    """A failing check's detail: its first failure and how many it found."""
    n = len(failures)
    return f"{failures[0]} ({n} instance{'s' if n > 1 else ''} failed)"


def _check(out, name, failures):
    out.append((name, not failures, _failed(failures) if failures else ""))


def _input_valid(out, trace, versions):
    """The input is valid, and matrix 0 holds its nonzeros, no other;
    versions as _row_versions gives them."""
    first, entries = trace.rows[0], trace.matrix.entries
    stored = {(i + 1, j + 1): first[i][j] for i, vs in enumerate(versions) for j in vs[0][2]}
    _check(out, "input_valid", [str(v) for v in validate(trace.matrix)] + [
        f"matrix 0 differs from the input at {pos}"
        for pos in sorted(stored.keys() | entries.keys())
        if stored.get(pos) != entries.get(pos)])


def _row_versions(m, rows):
    """Each row's versions in a sequence of m x m matrices stored as
    SweepTrace.rows stores them: a (start, end, nonzero columns, 0-based)
    triple per run of matrices start..end - 1 holding the row, in order. A
    row rows[0] lacks is zero in matrix 0, and the rows never stored share
    one list."""
    end, stored = len(rows), {}  # stored: row -> [(start, nonzero columns), ...]
    for s, changed in enumerate(rows):
        for i, row in changed.items():
            stored.setdefault(i, [(0, ())] if s else []).append(
                (s, tuple(compress(count(), row))))
    versions = [[(0, end, ())]] * m
    for i, vs in stored.items():
        ends = [s for s, _ in vs[1:]] + [end]
        versions[i] = [(s, e, cols) for (s, cols), e in zip(vs, ends)]
    return versions


def _pattern_compliance(out, name, versions, allowed):
    """versions: as _row_versions gives them; allowed: a pattern_test."""
    bad = sorted((s, i, j) for i, vs in enumerate(versions) for s, _, cols in vs
                 for j in cols if not allowed(i + 1, j + 1))
    _check(out, name, [f"matrix {r} has a nonzero at {(i + 1, j + 1)} outside "
                       "the pattern" for r, i, j in bad])


def _pivot_rows(marks):
    """Column -> row of each primary pivot."""
    return {mk.position[1]: mk.position[0] for mk in marks if mk.kind == PRIMARY}


def _below_diagonal_structure(out, versions, marks):
    """Strictly below diagonal r, nonzeros must be primary pivots or sit
    above one, pivot entries must stay nonzero once their diagonal is
    strictly passed, and no two primary pivots may share a row.

    A pivot joins at the matrix after its diagonal and stays, so an entry
    that may stay once may stay for good: each entry of a row version is
    read once, at the first matrix of the version where it lies below the
    diagonal, against its column's pivot row and the matrix where that
    pivot joins. A pivot is read in each version of its row that is live
    once it has joined, and against the first pivot of its row, at the
    matrix where the later of the two joins."""
    joined = {mk.position[1]: (mk.position[0], mk.diagonal + 1)
              for mk in marks if mk.kind == PRIMARY}
    bad = []
    for i, vs in enumerate(versions):
        for s, e, cols in vs:
            for j in cols[:bisect_left(cols, e + i - 1)]:  # below the diagonal before e
                p, t = joined.get(j + 1, (0, 0))
                if p <= i or t > s and t > j - i + 1:
                    r = max(s, j - i + 1)
                    bad.append((r, 0, (i, j), f"matrix {r}: nonzero at "
                                f"{(i + 1, j + 1)} below diagonal {r} is "
                                "neither a primary pivot nor above one"))
    first_of_row = {}
    for n, mk in enumerate(marks):
        if mk.kind == PRIMARY:
            (i, j), t = mk.position, mk.diagonal + 1
            bad.extend((max(s, t), 1, n, f"matrix {max(s, t)}: primary pivot at "
                        f"{(i, j)} became zero")
                       for s, e, cols in versions[i - 1]
                       if e > t and j - 1 not in cols)
            first = first_of_row.setdefault(i, mk)
            if first is not mk:
                t = max(t, first.diagonal + 1)
                bad.append((t, 2, n, f"matrix {t}: primary pivots at "
                            f"{first.position} and {(i, j)} share row {i}"))
    _check(out, "below_diagonal_pivot_structure", [msg for *_, msg in sorted(bad)])


def _transition_structure(out, trace, changes, allowed, unit_diagonal=True):
    """Every T^r is upper triangular within chain groups with a unit
    diagonal (or, unit_diagonal false, a nonzero one), and each step
    changes only what its marks allow: allowed holds (r, (i, j)) pairs,
    None standing for any row or column. changes[r] is T^r - I (_changes)."""
    allowed, bad = set(allowed), []
    group_of = trace.matrix.chain_index_map
    for r, n in enumerate(changes):
        for i, entries in n.items():
            for j, c in entries:
                pos = (i + 1, j + 1)
                if i == j and (unit_diagonal or c == -1):
                    bad.append(f"transition {r}: diagonal entry {1 + c} at {i + 1}, "
                               f"expected {1 if unit_diagonal else 'nonzero'}")
                elif i > j:
                    bad.append(f"transition {r}: entry below the diagonal at {pos}")
                elif group_of.get(i + 1) != group_of.get(j + 1):
                    bad.append(f"transition {r}: off-diagonal entry at {pos} "
                               "crosses chain groups")
                elif not ((r, pos) in allowed or (r, (i + 1, None)) in allowed
                          or (r, (None, j + 1)) in allowed):
                    bad.append(f"transition {r}: entry at {pos} outside what the "
                               "marks of its step allow")
    _check(out, "transition_structure", bad)


def _similarity(out, trace, changes):
    """T^r Delta^{r+1} == Delta^r T^r for every link r, given changes[r] =
    T^r - I (_changes); Delta^r is one list of rows, moved on link by link."""
    a, bad = _matrix_rows(trace.matrix.m, trace.rows[0]), []
    for r, (n, changed) in enumerate(zip(changes, trace.rows[1:])):
        if (n or changed) and not _link_holds(a, n, changed):
            bad.append(f"T^{r} Delta^{r + 1} != Delta^{r} T^{r}")
        for i, row in changed.items():
            a[i] = row
    _check(out, "similarity", bad)


def _final_zero_pattern(out, final, nonzeros, marks):
    """Every nonzero of the final matrix (nonzeros: the columns of each
    row's) is a primary pivot or above one."""
    pivot_row_of_col = _pivot_rows(marks)
    bad = [f"final matrix: nonzero at {(i, j + 1)} not above a primary pivot"
           for i, cols in enumerate(nonzeros, start=1) for j in cols
           if pivot_row_of_col.get(j + 1, 0) < i]
    bad.extend(f"final matrix: primary pivot {(i, j)} is zero"
               for j, i in pivot_row_of_col.items() if not final[i - 1][j - 1])
    _check(out, "final_zero_pattern", bad)


def _final_complementarity(out, nonzeros):
    """No index is both a nonzero row and a nonzero column of the final
    matrix, given the columns of each row's nonzeros."""
    both = {i for i, cols in enumerate(nonzeros) if cols} & set().union(*nonzeros)
    _check(out, "final_complementarity",
           [f"final matrix: column {j + 1} and row {j + 1} are both nonzero"
            for j in sorted(both)])


KERNEL_BOX_BOUND = 8  # |x_i| bound of _kernel_minimality's box enumeration


def _kernel_minimality(out, trace):
    """Each change-of-basis mark (i, j) of a z trace stores its combination
    as column j of its diagonal's running basis (linalg.products), over
    the columns of its kernel problem (ConnectionMatrix.kernel_problem).
    Box enumeration bounds the true minimum from above (an optimal witness
    may stick out of the box), so equality is only demanded when the
    stored combination fits inside it; a box past ILP_MAX_BOX is skipped,
    and counted. Either way the combination must be integral with entries
    that share no factor, which would lower its leading one (that it is a
    kernel vector follows from similarity and the below-diagonal check)."""
    stored = {}  # mark -> column j of P^r, {row: value}, 0-based
    for r, (n, _) in enumerate(products(trace.matrix.m, trace.ops, running=True)):
        for mk in trace.registry.on_diagonal(r):
            j = mk.position[1] - 1
            stored[mk] = {i: n[i][j] for i in n.cols[j]}
            stored[mk][j] = stored[mk].get(j, 0) + 1
    bad = []
    checked = skipped = 0
    for mk in trace.registry.marks:
        if mk.kind != CHANGE_OF_BASIS:
            continue
        column = stored[mk]
        cols, problem = trace.matrix.kernel_problem(*mk.position)
        if not ilp_box_fits(problem.c, KERNEL_BOX_BOUND):
            skipped += 1
        elif (witness := ilp_brute_force(problem, KERNEL_BOX_BOUND)) is not None:
            got = [column.get(col - 1, 0) for col in cols]
            checked += 1
            if not 0 < got[-1] <= witness.min_leading or witness.min_leading % got[-1]:
                bad.append(f"kernel problem: leading {got[-1]} inconsistent with "
                           f"box minimum {witness.min_leading}")
                continue
            if max(map(abs, got)) <= KERNEL_BOX_BOUND and got[-1] != witness.min_leading:
                bad.append(f"kernel problem: leading {got[-1]} but the box "
                           f"enumeration reaches {witness.min_leading}")
                continue
        if not all(type(v) is int for v in column.values()) or gcd(*column.values()) != 1:
            entries = ", ".join(f"{v} at {i + 1}" for i, v in sorted(column.items()))
            bad.append(f"kernel problem: column {mk.position[1]} of its basis "
                       f"({entries}) is not a primitive integer vector")
    out.append(("kernel_leading_minimality", not bad, _failed(bad) if bad else
                f"{checked} instances cross-checked, {skipped} skipped "
                f"(box past ILP_MAX_BOX)"))


def _first_nonzero_after(versions, r, lo=0):
    """The first matrix s > r where a row, given its versions, has a
    nonzero in column lo (0-based) or past it, or None."""
    return next((max(s, r + 1) for s, e, cols in versions
                 if e > r + 1 and cols and cols[-1] >= lo), None)


def _row_cancellation(out, versions, marks):
    """A row-cancellation run's row checks: no index is a pivot row and a
    pivot column, after its diagonal a pivot (i, j) leaves row j zero and
    row i zero right of j, and no row holds two pivots."""
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


def _revised_columns(out, trace):
    """A revised run's column checks from the rows step s changed to make
    matrix s, held as one list of rows. Where a row changes, only the
    entries whose objects differ are read, against the columns marked by
    step s - 1 and against each column's lowest nonzero row, found anew in
    matrix s when that row's entry turns zero. Pivot rows descend, so a row
    is read against the active columns where it first lies at or below a
    pivot row and wherever it changes after that."""
    m, marks = trace.matrix.m, trace.registry.marks
    steps = len(marks)
    step_of = [steps + 1] * m  # column -> the step that marked it
    for s, mk in enumerate(marks, 1):
        step_of[mk.position[1] - 1] = min(step_of[mk.position[1] - 1], s)
    low, top, mat = [-1] * m, m, [(0,) * m] * m  # low: column -> its lowest nonzero row
    moved, zeroed, shrunk = {}, [], set()  # moved: frozen column -> last step changing it
    for s, rows in enumerate(trace.rows):
        frozen = {j for j, marked in enumerate(step_of) if marked < s}
        before = {i: mat[i] for i in rows}
        for i, row in rows.items():
            mat[i] = row
        for i, row in rows.items():
            prev = before[i]
            diff = list(compress(count(), map(is_not, row, prev)))
            if not frozen.isdisjoint(diff):
                moved.update((j, s) for j in frozen.intersection(diff) if row[j] != prev[j])
            for j in compress(diff, map(le, map(low.__getitem__, diff), repeat(i))):
                if row[j] and low[j] < i:
                    shrunk.add((s, j))
                    low[j] = i
                elif low[j] == i and not row[j]:
                    low[j] = next((k for k in range(i - 1, -1, -1) if mat[k][j]), -1)
        if 0 < s <= steps:
            pivot_row = marks[s - 1].position[0]
            old_top, top = top, min(top, pivot_row - 1)
            to_read = {*range(top, old_top), *(i for i in rows if i >= top)}
            if any(step_of[j] > s for i in to_read for j in compress(count(), mat[i])):
                zeroed.append(f"step {s}: active columns not zero from row "
                              f"{pivot_row} down")
    _check(out, "pivot_columns_frozen",
           [f"pivot column {mk.position[1]} changed after being marked"
            for t, mk in enumerate(marks) if moved.get(mk.position[1] - 1, 0) > t + 1])
    _check(out, "active_block_zeroed", zeroed)
    _check(out, "trailing_zeros_monotone", [f"step {s}: trailing zeros of column {j + 1} "
                                            "decreased" for s, j in sorted(shrunk) if s])


def verify_block_runs(runs, matrix, full_trace):
    """Blockwise finals and marks must match the full run."""
    out = []
    final = full_trace.final
    _check(out, "uncoupling_blocks",
           [f"block {run.k}: final entry {(i, j)} differs" for run in runs
            for rows, cols, _ in [matrix.block(run.k)] for i in rows for j in cols
            if final[i - 1][j - 1] != run.trace.final[i - 1][j - 1]])
    union = {(mk.position, mk.kind, mk.value)
             for run in runs for mk in run.trace.registry.marks}
    whole = {(mk.position, mk.kind, mk.value) for mk in full_trace.registry.marks}
    _check(out, "uncoupling_marks",
           [f"marks differ: only blockwise {sorted(union - whole)}, "
            f"only full {sorted(whole - union)}"] if union != whole else [])
    return out


def verify_trace(trace):
    """Every check for the trace of any run (see the module docstring). A
    BlockTrace is checked against its runner's run on the whole matrix,
    then run by run, each run's check names prefixed with block{k}_."""
    algorithm = getattr(trace, "algorithm", None)
    if algorithm == "block":
        out = verify_block_runs(trace.runs, trace.matrix,
                                trace.runner(trace.matrix))
        for run in trace.runs:
            out.extend((f"block{run.k}_{name}", ok, detail)
                       for name, ok, detail in verify_trace(run.trace))
        return out
    if algorithm not in ("z", "accumulated", "incremental", "rowcancel", "revised1"):
        raise ValueError(f"no verifier for algorithm {algorithm!r}")
    out = []
    m, marks = trace.matrix.m, trace.registry.marks
    # A revised run is read row by row only in its first and last matrices.
    versions = _row_versions(m, trace.rows if algorithm != "revised1" else (
        trace.rows[0], {i: row for rows in trace.rows[1:] for i, row in rows.items()}))
    _input_valid(out, trace, versions)
    changes = _changes(trace)
    if algorithm == "revised1":
        _check(out, "upper_triangular_pivots",
               [f"pivot {mk.position} not above the diagonal" for mk in marks
                if mk.position[1] <= mk.position[0]])
        rows = [mk.position[0] for mk in marks]
        _check(out, "pivot_rows_descend", [f"pivot rows {rows} not strictly decreasing"]
               if rows != sorted(set(rows), reverse=True) else [])
        _revised_columns(out, trace)
    else:
        allowed = pattern_test(trace.matrix.partition, m)
        _pattern_compliance(out, "pattern_compliance", versions, allowed)
        if trace.running:
            _pattern_compliance(out, "pattern_compliance_product", _row_versions(
                m, _delta0_products(trace, changes)), allowed)
        _below_diagonal_structure(out, versions, marks)
        if algorithm == "rowcancel":
            _row_cancellation(out, versions, marks)
    nonzeros = [vs[-1][2] for vs in versions]
    # A row-cancelling step t (the diagonal, or the revised run's mark
    # index) may change row j of T for its pivot (i, j); change-of-basis
    # mark (i, j) only (p, j), (i, p) a pivot, or for z, whose leading
    # coefficients need not be 1, column j.
    if algorithm in ("rowcancel", "revised1"):
        steps = [(t if algorithm == "revised1" else mk.diagonal, (mk.position[1], None))
                 for t, mk in enumerate(marks)]
    else:
        col_of_row = {i: j for j, i in _pivot_rows(marks).items()}
        steps = [(mk.diagonal, (None if algorithm == "z" else
                                col_of_row.get(mk.position[0], 0), mk.position[1]))
                 for mk in marks if mk.kind == CHANGE_OF_BASIS]
    _transition_structure(out, trace, changes, steps, unit_diagonal=algorithm != "z")
    _similarity(out, trace, changes)
    _final_zero_pattern(out, trace.final, nonzeros, marks)
    if algorithm != "revised1":
        _final_complementarity(out, nonzeros)
    if algorithm == "z":
        _kernel_minimality(out, trace)
    return out
