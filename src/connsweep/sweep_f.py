"""Sweeping over the rationals: incremental and accumulated variants.

The incremental sweep goes over the diagonals of the matrix left to right,
marks primary and change-of-basis pivots, and zeroes out each
change-of-basis pivot with a column combination whose leading coefficient
is 1. That per-diagonal change of basis T^r is a list of elementary ops;
the working matrix is conjugated by them in place, and the trace stores
their product. The accumulated variant is the same run seen through the
running basis P^r = T^0 T^1 ... T^r instead of the per-diagonal T^r.
"""

from __future__ import annotations

from .core import (PRIMARY, AlgorithmError, Mark, MarkRegistry,
                   SweepTrace, accumulated_basis, require_valid,
                   scan_diagonal)
from .linalg import (conjugate, exact_div, freeze, identity, norm,
                     ops_product, thaw)


def transition_ops(delta_r, cb_positions, primary_positions):
    """Per-diagonal change of basis as ops: one (primary column, pivot
    column, -delta[i][j]/delta[i][p]) op for each change-of-basis pivot.

    Each change-of-basis pivot at (i, j) must have a primary pivot (i, p) in
    its row. No column is both a primary and a change-of-basis column, so
    the ops commute and their product is the identity plus one entry each.
    """
    primary_in_row = dict(primary_positions)
    ops = []
    for (i, j) in cb_positions:
        p = primary_in_row.get(i)
        if p is None or p == j:
            raise AlgorithmError(
                f"change-of-basis pivot at ({i}, {j}) has no primary pivot in its row")
        ops.append((p, j, norm(-exact_div(delta_r[i - 1][j - 1],
                                          delta_r[i - 1][p - 1]))))
    return ops


def invert_transition(t):
    """Exact inverse of a per-diagonal transition: flip the off-diagonal signs.

    Valid because no column can hold both a primary and a change-of-basis
    pivot, so the off-diagonal part squares to zero.
    """
    rows = thaw(t)
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 1:
            raise AlgorithmError("transition must have unit diagonal")
        for j in range(n):
            if i != j and rows[i][j]:
                rows[i][j] = -rows[i][j]
    return rows


def sweep_incremental(matrix):
    """Incremental sweeping; returns the trace of matrices and transitions."""
    require_valid(matrix)
    m = matrix.m
    dense = matrix.to_dense()
    unchanged = freeze(identity(m))
    matrices = [freeze(dense)]
    transitions = [unchanged]  # T^0
    marks = []
    primaries = []
    primary_cols = set()
    primary_rows = set()
    ops = []
    for r in range(1, m):
        matrices.append(freeze(conjugate(dense, ops)) if ops else matrices[-1])
        cb = []
        for i, j, kind in scan_diagonal(dense, m, r, primary_cols, primary_rows):
            marks.append(Mark((i, j), kind, r, dense[i - 1][j - 1]))
            if kind == PRIMARY:
                primaries.append((i, j))
                primary_cols.add(j)
                primary_rows.add(i)
            else:
                cb.append((i, j))
        ops = transition_ops(dense, cb, primaries)
        transitions.append(freeze(ops_product(m, ops)) if ops else unchanged)
    matrices.append(freeze(conjugate(dense, ops)) if ops else matrices[-1])
    return SweepTrace("incremental", matrix, tuple(matrices),
                      tuple(transitions), MarkRegistry(tuple(marks)))


def sweep_accumulated(matrix):
    """Accumulated sweeping: the incremental run, with the running change of
    basis P^r in place of each per-diagonal transition T^r.

    P^r replaces the column of each change-of-basis pivot at (i, j), with
    primary pivot (i, p), by P^{r-1} y for y = 1 at the pivot column and
    -delta[i][j]/delta[i][p] at the primary column; that is P^{r-1} T^r.
    """
    trace = sweep_incremental(matrix)
    return SweepTrace("accumulated", matrix, trace.matrices,
                      tuple(freeze(p) for p in accumulated_basis(trace)),
                      trace.registry)
