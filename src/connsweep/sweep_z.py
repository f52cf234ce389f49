"""Sweeping over the integers.

Same diagonal sweep and markup as the rational variants, but each
change-of-basis pivot is resolved by an integer minimization: replace the
pivot's basis column with the integer combination of columns of the same
chain index that zeroes the pivot and everything below it with the least
positive leading coefficient: ConnectionMatrix.kernel_problem cuts the
problem, and one linalg.echelon pass solves it. The combination is
integral; the matrices may not be.

The trace keeps the op lists, read as the running basis P^r, whose
column j is the combination found for a pivot in column j. The working
matrix moves by T^r = (P^{r-1})^{-1} P^r through core.sweep_diagonals and
linalg.conjugate: for each pivot, y = (P^{r-1})^{-1} x by one triangular
solve gives the ops (s, j, y_s/y_j) for s != j and, when the leading
coefficient leaves y_j != 1, the scaling op (j, j, y_j - 1). Column j of
T^r is y and y is zero below row j, so taking the pivots in decreasing
column order multiplies their factors out to T^r; no solve reads a column
an earlier one replaces. P^{r-1} - I is one live SparseMatrix, which
linalg.products moves on by each diagonal's ops.
"""

from __future__ import annotations

from .core import PRIMARY, AlgorithmError, SweepTrace, require_valid, sweep_diagonals
from .linalg import (clear_denominators, exact_div, integer_kernel_basis, products,
                     reduce_mod_lattice, solve_upper)


def solve_min_leading(problem):
    """Optimal integer kernel vector with minimal positive last coordinate.

    integer_kernel_basis gives the integer kernel lattice exactly, in one
    linalg.echelon pass and in its echelon form. The achievable last
    coordinates form hZ for h the pivot at c-1, so the vector pivoting
    there has the minimal positive leading coefficient. The remaining
    freedom, the other echelon vectors (those with last coordinate zero),
    is fixed by reducing to the canonical symmetric-residue representative,
    so results are deterministic.
    """
    c = problem.c
    ech = integer_kernel_basis(clear_denominators(problem.a), c)
    lead = ech.pop(c - 1, None)
    if lead is None:
        raise AlgorithmError("no integer kernel vector with positive last coordinate")
    return tuple(reduce_mod_lattice(lead, ech))


def sweep_over_z(matrix):
    """Integer sweeping; the trace's op lists are read as running bases P^r."""
    require_valid(matrix)
    m = matrix.m
    op_lists = [()]  # grows by one list per diagonal, as steps reads it
    steps = products(m, op_lists, running=True)
    basis, _ = next(steps)  # P^{r-1} - I, updated in place by next(steps)

    def integer_min_ops(work, found, primary_of_row):
        ops = []
        for i, j, kind in reversed(found):
            if kind == PRIMARY:
                continue
            cols_j, problem = matrix.kernel_problem(i, j)
            x = [0] * m
            for col, xv in zip(cols_j, solve_min_leading(problem)):
                x[col - 1] = xv
            y = solve_upper(basis, x)
            ops += [(s, j, exact_div(ys, y[j - 1]))
                    for s, ys in enumerate(y, start=1) if ys and s != j]
            if y[j - 1] != 1:
                ops.append((j, j, y[j - 1] - 1))
        op_lists.append(ops)
        next(steps)
        return ops

    return SweepTrace("z", matrix, *sweep_diagonals(matrix, integer_min_ops))
