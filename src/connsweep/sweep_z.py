"""Sweeping over the integers.

Same diagonal sweep and markup as the rational variants, but each
change-of-basis pivot is resolved by an integer minimization: replace the
pivot's basis column with the integer combination of columns of the same
chain index that zeroes the pivot and everything below it with the least
positive leading coefficient. One linalg.kernel_chain per chain group k,
built at its first change-of-basis mark from block k with denominators
cleared, holds the kernel of its rows from i down for every i, and
least_leading reads mark (i, j) off it. The combination is integral;
the matrices may not be.

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

from bisect import bisect_left

from .core import PRIMARY, AlgorithmError, SweepTrace, require_valid, sweep_diagonals
from .linalg import (clear_denominators, exact_div, kernel_chain, products,
                     reduce_mod_lattice, solve_upper)


def least_leading(basis, j):
    """Of the vectors zero past j in the lattice of basis, an echelon basis
    {pivot: vector} as linalg.kernel_chain gives it, the one with the least
    positive coordinate j: the vectors pivoting at or below j span them, so
    it is the one pivoting at j, reduced modulo those pivoting below j to
    the canonical representative, which depends on the lattice alone."""
    lead = basis.get(j)
    if lead is None:
        raise AlgorithmError("no integer kernel vector with positive last coordinate")
    return tuple(reduce_mod_lattice(lead, {q: v for q, v in basis.items() if q < j}))


def solve_min_leading(problem):
    """Optimal integer kernel vector of a KernelProblem with minimal
    positive last coordinate: least_leading on the kernel of all its rows."""
    c = problem.c
    return least_leading(kernel_chain(clear_denominators(problem.a), c)[0], c - 1)


def sweep_over_z(matrix):
    """Integer sweeping; the trace's op lists are read as running bases P^r."""
    require_valid(matrix)
    m = matrix.m
    op_lists = [()]  # grows by one list per diagonal, as steps reads it
    steps = products(m, op_lists, running=True)
    basis, _ = next(steps)  # P^{r-1} - I, updated in place by next(steps)
    chains = {}  # chain group k -> kernel_chain of block k

    def integer_min_ops(work, found, primary_of_row):
        ops = []
        for i, j, kind in reversed(found):
            if kind == PRIMARY:
                continue
            k = matrix.chain_index(j)
            rows, cols, dense = matrix.block(k)
            if k not in chains:
                chains[k] = kernel_chain(clear_denominators(dense), len(cols))
            x = [0] * m
            lattice = chains[k][bisect_left(rows, i)]
            for col, xv in zip(cols, least_leading(lattice, bisect_left(cols, j))):
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
