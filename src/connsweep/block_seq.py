"""Block-sequential sweeping and the revised one-block algorithm.

The block-sequential scheme runs the chosen one-block algorithm block by
block: the input for block k keeps only the entries of J_{k-1} x J_k, with
the rows of the previous block's pivot columns zeroed first. block_runs
returns the runs as one BlockTrace, which reads like a single run: its
final matrix and marks are the blocks' ones put together. The revised
one-block algorithm picks pivots bottom-up instead of diagonal by diagonal
and cancels each pivot's whole row at once; it is column-echelon reduction
minus the column swaps. On one-block input the rows of the pivot columns
are zero, so conjugating by its elementary ops changes columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count

from .core import (PRIMARY, ConnectionMatrix, Mark, MarkRegistry,
                   PreconditionError, SweepTrace, require_valid)
from .linalg import cancel_ops, conjugate
from .sweep_f import sweep_incremental


@dataclass(frozen=True)
class BlockRun:
    """One step of the block-sequential scheme.

    trace is the run on the one-block matrix actually swept (trace.matrix);
    pivot_columns are the columns of its final matrix holding primary pivots
    (they feed the row zeroing of the next block).
    """

    k: int
    trace: object
    pivot_columns: frozenset


@dataclass(frozen=True)
class BlockTrace:
    """Record of a block-sequential run: runner applied block by block.

    runs holds one BlockRun per block k = 1..b. final merges the blocks'
    final matrices, each on its own J_{k-1} x J_k; registry holds every
    block's marks. runner is kept so that a verifier can run it on the whole
    matrix as an independent reference.
    """

    matrix: ConnectionMatrix
    runner: object
    runs: tuple
    algorithm = "block"

    @cached_property
    def final(self):
        m = self.matrix.m
        final = [(0,) * m] * m
        for run in self.runs:
            cols = self.matrix.partition[run.k]
            for i in self.matrix.partition[run.k - 1]:
                row = final[i - 1] = run.trace.final[i - 1]
                if not cols.issuperset(compress(count(1), row)):
                    final[i - 1] = tuple(v if j in cols else 0
                                         for j, v in enumerate(row, start=1))
        return tuple(final)

    @cached_property
    def registry(self):
        return MarkRegistry(tuple(mk for run in self.runs
                                  for mk in run.trace.registry.marks))


def block_runs(matrix, runner):
    """runner applied to each block k = 1..b in turn, as one BlockTrace."""
    require_valid(matrix)
    runs = []
    prev_pivot_cols = frozenset()
    for k in range(1, matrix.b + 1):
        rows = matrix.partition[k - 1]
        cols = matrix.partition[k]
        entries = {(i, j): v for (i, j), v in matrix.entries.items()
                   if i in rows and j in cols and i not in prev_pivot_cols}
        trace = runner(matrix.with_entries(entries))
        pivot_cols = frozenset(pos[1] for pos in trace.registry.primary_positions())
        runs.append(BlockRun(k, trace, pivot_cols))
        prev_pivot_cols = pivot_cols
    return BlockTrace(matrix, runner, tuple(runs))


def block_sequential_sweep(matrix):
    """Incremental sweeping applied blockwise, in block order."""
    return block_runs(matrix, sweep_incremental)


def _single_nonzero_block(matrix):
    blocks = set()
    for (i, j) in matrix.entries:
        blocks.add(matrix.chain_index(j))
    if len(blocks) > 1:
        raise PreconditionError(
            "more than one nonzero block: chain groups "
            f"{sorted(blocks)} all hold entries")


def revised_one_block(matrix):
    """Bottom-up one-block sweeping: repeatedly take the lowest nonzero row
    over the still-active columns, mark its leftmost nonzero as a primary
    pivot, and cancel the rest of that row out of the active columns.

    Requires the nonzero entries to sit in a single block; a zero matrix
    yields an empty run.
    """
    require_valid(matrix)
    _single_nonzero_block(matrix)
    m = matrix.m
    work = matrix.sparse()
    active = set(range(m))  # 0-based
    rows = [work.changes()]
    op_lists = []
    marks = []
    # Pivot rows strictly descend: rows at or below a pivot row stay zero
    # over the active columns, so each scan starts just above the last one.
    below = m
    while True:
        i_t = next((i for i in range(below - 1, -1, -1)
                    if not active.isdisjoint(work[i])), None)
        if i_t is None:
            break
        below = i_t
        row = work[i_t]
        j_t, *rest = sorted(active.intersection(row))
        marks.append(Mark((i_t + 1, j_t + 1), PRIMARY, j_t - i_t, row[j_t]))
        ops = tuple(cancel_ops(row, j_t + 1, [j + 1 for j in rest]))
        op_lists.append(ops)
        conjugate(work, ops)
        rows.append(work.changes())
        active.remove(j_t)
    return SweepTrace("revised1", matrix, tuple(rows), tuple(op_lists),
                      MarkRegistry(tuple(marks)))
