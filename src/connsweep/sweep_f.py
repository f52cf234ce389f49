"""Sweeping over the rationals: incremental and accumulated variants.

The incremental sweep goes over the diagonals of the matrix left to right,
marks primary and change-of-basis pivots, and zeroes out each
change-of-basis pivot with a column combination whose leading coefficient
is 1. That per-diagonal change of basis T^r is the op list transition_ops
gives core.sweep_diagonals, which conjugates the working matrix by it in
place; the trace stores the op lists. The accumulated variant is the same
run under another label, seen through the running basis
P^r = T^0 T^1 ... T^r instead of the per-diagonal T^r; linalg.products
multiplies out either from the same op lists.
"""

from __future__ import annotations

from .core import PRIMARY, AlgorithmError, SweepTrace, require_valid, sweep_diagonals
from .linalg import cancel_ops


def transition_ops(delta_r, cb_positions, primary_of_row):
    """Per-diagonal change of basis as ops: one (primary column, pivot
    column, -delta[i][j]/delta[i][p]) op for each change-of-basis pivot.

    Each change-of-basis pivot at (i, j) must have a primary pivot (i, p) in
    its row, p = primary_of_row[i]. No column is both a primary and a
    change-of-basis column, so the ops commute and their product is the
    identity plus one entry each.
    """
    ops = []
    for (i, j) in cb_positions:
        p = primary_of_row.get(i)
        if p is None or p == j:
            raise AlgorithmError(
                f"change-of-basis pivot at ({i}, {j}) has no primary pivot in its row")
        ops += cancel_ops(delta_r[i - 1], p, [j])
    return ops


def _sweep(matrix, algorithm):
    """sweep_diagonals under the incremental rule, labelled algorithm."""
    require_valid(matrix)
    return SweepTrace(algorithm, matrix, *sweep_diagonals(
        matrix, lambda work, found, primary_of_row: transition_ops(
            work, [(i, j) for i, j, kind in found if kind != PRIMARY],
            primary_of_row)))


def sweep_incremental(matrix):
    """Incremental sweeping; returns the trace of matrices and op lists."""
    return _sweep(matrix, "incremental")


def sweep_accumulated(matrix):
    """Accumulated sweeping: the incremental run, read through the running
    change of basis P^r = P^{r-1} T^r in place of each per-diagonal T^r.

    P^r replaces the column of each change-of-basis pivot at (i, j), with
    primary pivot (i, p), by P^{r-1} y for y = 1 at the pivot column and
    -delta[i][j]/delta[i][p] at the primary column.
    """
    return _sweep(matrix, "accumulated")
