"""Row cancellation: pivots commandeer their whole row at once.

The diagonal sweep and the primary-pivot criterion are the same as in the
incremental sweeping, but there are no change-of-basis pivots: as soon as a
primary pivot is marked, every entry to its right is zeroed by column
operations from the pivot column (linalg.cancel_ops, as in the incremental
sweep), so no later entry of its row is nonzero. rc_transition_ops lists
them; the same diagonal loop (core.sweep_diagonals) and conjugation kernel
apply them, and the kernel's row operations only ever touch rows that end
up zero. The run is recorded as a SweepTrace labelled "rowcancel", shaped
like every other diagonal sweep's: the changed rows of m+1 matrices and m
op lists. The last diagonal holds only (1, m), with nothing right of it,
so its op list is empty.

Also here: the per-step reduced matrices obtained by deleting each
cancelled row/column pair, and the cancellation schedule read off a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from .block_seq import block_runs
from .core import (PRIMARY, AlgorithmError, ConnectionMatrix,
                   PreconditionError, SweepTrace, require_valid, sweep_diagonals)
from .linalg import cancel_ops
from .tu import SurfaceRejection, is_surface_connection_matrix


def rc_transition_ops(work, pivots):
    """Ops zeroing everything right of the given pivots in the SparseMatrix
    work, grouped pivot by pivot in increasing column order.

    A pivot at (i, j) contributes one op (j, col, -delta[i][col]/delta[i][j])
    for each nonzero right of it in row i, so the product of the ops is a
    unit upper-triangular matrix whose off-diagonal support is confined to
    the rows indexed by the pivot columns. No pivots, or nothing to their
    right (as on the last diagonal), give no ops.
    """
    ops = []
    for (i, j) in sorted(pivots, key=lambda pos: pos[1]):
        row = work[i - 1]
        if j - 1 not in row:
            raise AlgorithmError(f"zero entry at pivot position ({i}, {j})")
        ops += cancel_ops(row, j, sorted(k + 1 for k in row if k >= j))
    return ops


def row_cancellation(matrix):
    """Row Cancellation run; returns the trace of matrices and op lists."""
    require_valid(matrix)
    return SweepTrace("rowcancel", matrix, *sweep_diagonals(
        matrix, lambda work, found, _: rc_transition_ops(
            work, [(i, j) for i, j, _ in found])))


def cancellation_schedule(trace):
    """One entry per primary pivot, sorted by (page, column).

    A pivot at (j-r, j) found on diagonal r models the cancellation of the
    filtration pair (j-r-1, j-1) at page r.
    """
    out = [(mk.diagonal, mk.position)
           for mk in trace.registry.marks if mk.kind == PRIMARY]
    out.sort(key=lambda rec: (rec[0], rec[1][1]))
    return out


@dataclass(frozen=True)
class ReductionStep:
    """Reduced matrix at one stage, on the surviving original labels."""

    r: int
    surviving: tuple
    removed_pairs: tuple  # (row, col, diagonal) newly removed at this stage
    entries: dict

    def as_connection_matrix(self, partition):
        """Order-preserving relabel of the surviving indices to 1..m'."""
        relabel = {old: new for new, old in enumerate(self.surviving, start=1)}
        parts = [[relabel[i] for i in part if i in relabel] for part in partition]
        entries = {(relabel[i], relabel[j]): v for (i, j), v in self.entries.items()}
        return ConnectionMatrix(len(self.surviving), parts, entries)


@dataclass(frozen=True)
class ReductionTrace:
    matrix: ConnectionMatrix
    steps: tuple


def reduction_stages(trace):
    """Per-stage reduced matrices, one stage at a time: each cancelled
    pair's row and column indices are deleted outright, keeping the
    original labels on the survivors.

    A pivot found on diagonal xi takes effect in the next matrix, so stage r
    reads matrix r of the trace and deletes the pairs of every pivot with
    diagonal < r; the closing stage m reads the final matrix and deletes
    them all. Removals are cumulative. A row's nonzero columns are read
    again only where the trace stores a change, and a stage reads just
    those columns of its surviving rows.
    """
    pivots = sorted(((mk.position[0], mk.position[1], mk.diagonal)
                     for mk in trace.registry.marks if mk.kind == PRIMARY),
                    key=lambda rec: (rec[2], rec[1]))
    source, cols = {}, {}  # each row's stored version and its nonzero columns
    removed = set()
    for r, rows in enumerate(trace.rows):
        new_pairs = tuple(rec for rec in pivots if rec[2] == r - 1)
        removed.update(idx for i, j, _ in new_pairs for idx in (i, j))
        for i, row in rows.items():
            source[i + 1], cols[i + 1] = row, list(compress(count(1), row))
        surviving = tuple(i for i in range(1, trace.matrix.m + 1) if i not in removed)
        entries = {(i, j): source[i][j - 1]
                   for i in surviving for j in cols.get(i, ()) if j not in removed}
        yield ReductionStep(r, surviving, new_pairs, entries)


def reduce_complex(trace):
    """Every stage of reduction_stages, held at once."""
    return ReductionTrace(trace.matrix, tuple(reduction_stages(trace)))


def smale_cancellation_sweep(matrix):
    """Row cancellation restricted to surface connection matrices.

    Partitions with fewer than three subsets are padded with empty groups
    first (a one-block matrix is a surface candidate with no sources).
    """
    if len(matrix.partition) < 3:
        padded = list(matrix.partition) + [set()] * (3 - len(matrix.partition))
        matrix = ConnectionMatrix(matrix.m, padded, matrix.entries)
    result = is_surface_connection_matrix(matrix)
    if isinstance(result, SurfaceRejection):
        raise PreconditionError(
            f"not a surface connection matrix: property ({result.prop}) fails: "
            f"{result.message}")
    return row_cancellation(matrix)


def block_sequential_row_cancellation(matrix):
    """Blockwise row cancellation; see block_seq for the shared scheme."""
    return block_runs(matrix, row_cancellation)
