"""Connection-matrix data model: exact entries, chain partition, marks, traces.

All indices visible here are 1-based; dense row lists used internally are
0-based and converted at the boundary. Every type is an immutable value and
every operation is pure, so everything is safe to share across tasks. The
input is read densely only through ConnectionMatrix.block, one kept view of
each chain block J_{k-1} x J_k, and kernel_problem, verify's integer cut. A
SweepTrace keeps the op lists of its run, never their dense products, and
of each matrix only the rows its step changed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .linalg import SparseMatrix, as_exact, conjugate, freeze

Position = tuple[int, int]

PRIMARY = "primary"
CHANGE_OF_BASIS = "change_of_basis"


class ConnSweepError(Exception):
    """Base class for errors raised by this package."""


class CmxError(ConnSweepError):
    """Malformed CMX text; carries the offending line/column when known."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class InvalidMatrixError(ConnSweepError):
    def __init__(self, violations):
        violations = list(violations)
        super().__init__(
            "invalid connection matrix: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


class PreconditionError(ConnSweepError):
    """An operation was called outside its contract."""


class AlgorithmError(ConnSweepError):
    """An internal invariant broke mid-run; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Violation:
    invariant: str  # "partition" | "index" | "triangularity" | "pattern"
    position: Position | None
    message: str

    def __str__(self):
        if self.position is not None:
            return f"{self.invariant} at {self.position}: {self.message}"
        return f"{self.invariant}: {self.message}"


def _freeze_partition(partition):
    return tuple(frozenset(int(i) for i in part) for part in partition)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Strictly-upper-triangular exact matrix with a chain-index partition.

    partition holds the index sets J_0..J_b; nonzero entries are only
    expected in the positions of allowable_pattern(partition, m). Violations
    are representable (validate reports them); algorithms reject them.
    """

    m: int
    partition: tuple[frozenset[int], ...]
    entries: dict[Position, Fraction | int]

    def __post_init__(self):
        object.__setattr__(self, "partition", _freeze_partition(self.partition))
        clean = {}
        for (i, j), v in self.entries.items():
            v = as_exact(v)
            if v:
                clean[(int(i), int(j))] = v
        object.__setattr__(self, "entries", clean)

    @property
    def b(self):
        return len(self.partition) - 1

    @cached_property
    def chain_index_map(self):
        out = {}
        for k, part in enumerate(self.partition):
            for idx in part:
                out[idx] = k
        return out

    def chain_index(self, idx):
        return self.chain_index_map.get(idx)

    def sparse(self):
        """The matrix as a linalg.SparseMatrix. Entries must be in range."""
        return SparseMatrix(self.m, self.entries.items())

    @cached_property
    def _blocks(self):
        by_row = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        blocks = []
        for below, part in zip(self.partition, self.partition[1:]):
            rows, cols = tuple(sorted(below)), tuple(sorted(part))
            blocks.append((rows, cols, tuple(
                tuple(map(by_row.get(i, {}).get, cols, repeat(0))) for i in rows)))
        return blocks

    def block(self, k):
        """Rows J_{k-1}, columns J_k (sorted) and the dense block as row tuples:
        the input's one dense view, built once and kept; other entries are left out."""
        return self._blocks[k - 1]

    def kernel_problem(self, i, j):
        """(columns, KernelProblem) of a change-of-basis mark (i, j): block
        k's rows from i down and its columns up to j, k the chain index of j.
        verify's box check cuts its problems here; the z sweep reads them all
        off one linalg.kernel_chain per block."""
        rows, cols, dense = self.block(self.chain_index(j))
        c = bisect_right(cols, j)
        return cols[:c], KernelProblem(
            tuple(row[:c] for row in dense[bisect_left(rows, i):]), c)

    def with_entries(self, entries):
        return ConnectionMatrix(self.m, self.partition, dict(entries))


def allowable_pattern(partition, m):
    """Strictly-upper positions eligible for nonzero entries.

    These are the positions (i, j) with i in J_{k-1}, j in J_k for some k,
    and i < j; scattering the partition prunes the out-of-order positions.
    """
    partition = _freeze_partition(partition)
    positions = set()
    for k in range(1, len(partition)):
        for i in partition[k - 1]:
            for j in partition[k]:
                if i < j and j <= m and i >= 1:
                    positions.add((i, j))
    return frozenset(positions)


def pattern_test(partition, m):
    """(i, j) -> whether (i, j) is in allowable_pattern(partition, m), for
    a ConnectionMatrix's partition, in memory linear in m: each index keeps
    a bit mask of every group that lists it."""
    groups = {}
    for k, part in enumerate(partition):
        for idx in part:
            groups[idx] = groups.get(idx, 0) | 1 << k
    return lambda i, j: (1 <= i < j <= m
                         and groups.get(i, 0) << 1 & groups.get(j, 0) != 0)


def max_chain_index(m):
    """Largest b (chain groups J_0..J_b) accepted for m generators. Groups
    may be empty, but more than m + 1 of them carry nothing; three always
    fit, since every surface matrix has three."""
    return max(m, 2)


def validate(matrix):
    """All invariant violations of a ConnectionMatrix, as data (empty == valid)."""
    out = []
    seen = {}
    everything = set()
    for k, part in enumerate(matrix.partition):
        for idx in part:
            if not 1 <= idx <= matrix.m:
                out.append(Violation("partition", None,
                                     f"index {idx} in J_{k} outside 1..{matrix.m}"))
            if idx in seen:
                out.append(Violation("partition", None,
                                     f"index {idx} in both J_{seen[idx]} and J_{k}"))
            seen[idx] = k
            everything.add(idx)
    missing = set(range(1, matrix.m + 1)) - everything
    if missing:
        out.append(Violation("partition", None,
                             f"indices not covered: {sorted(missing)}"))
    allowed = pattern_test(matrix.partition, matrix.m)
    for (i, j), v in sorted(matrix.entries.items()):
        if not (1 <= i <= matrix.m and 1 <= j <= matrix.m):
            out.append(Violation("index", (i, j), "entry index outside 1..m"))
            continue
        if i >= j:
            out.append(Violation("triangularity", (i, j),
                                 "entry on or below the diagonal"))
            continue
        if not allowed(i, j):
            ki = matrix.chain_index(i)
            kj = matrix.chain_index(j)
            out.append(Violation("pattern", (i, j),
                                 f"position in J_{ki} x J_{kj} is not allowable"))
    return out


def require_valid(matrix):
    violations = validate(matrix)
    if violations:
        raise InvalidMatrixError(violations)


@dataclass(frozen=True)
class Mark:
    position: Position
    kind: str  # PRIMARY | CHANGE_OF_BASIS
    diagonal: int
    value: Fraction | int


@dataclass(frozen=True)
class MarkRegistry:
    """Every mark assigned during a run, with the diagonal it was assigned on.

    Change-of-basis marks are temporary per diagonal during the run; they are
    retained here for trace purposes. At most one primary pivot may sit in
    any column.
    """

    marks: tuple[Mark, ...]

    def __post_init__(self):
        cols = set()
        by_pos = {}
        for mk in self.marks:
            if mk.kind == PRIMARY:
                j = mk.position[1]
                if j in cols:
                    raise AlgorithmError(f"two primary pivots in column {j}")
                cols.add(j)
            prior = by_pos.get(mk.position)
            if prior is not None and prior != mk.kind:
                raise AlgorithmError(f"position {mk.position} carries both mark kinds")
            by_pos[mk.position] = mk.kind

    def primary_positions(self):
        return frozenset(mk.position for mk in self.marks if mk.kind == PRIMARY)

    @cached_property
    def _by_diagonal(self):
        by_diagonal = {}
        for mk in sorted(self.marks, key=lambda mk: mk.position[1]):
            by_diagonal.setdefault(mk.diagonal, []).append(mk)
        return by_diagonal

    def on_diagonal(self, r):
        """The marks assigned on diagonal r, in column order."""
        return list(self._by_diagonal.get(r, ()))


@dataclass(frozen=True)
class SweepTrace:
    """Record of one sweeping run: changed rows, op lists and marks.

    ops holds one tuple of (s, d, c) ops per step, as the run applied them
    (see linalg.conjugate), and rows one more entry than ops, one per
    matrix: rows[0] holds the input's nonzero rows and rows[s + 1] the rows
    whose values op list s changed, each as {row: dense row tuple},
    0-based (SparseMatrix.changes). A diagonal sweep of an m x m matrix
    has the m+1 and m of sweep_diagonals, the revised one-block run one of
    each per step. linalg.products reads the change of basis from ops, per
    step (T^r) or as P^r = T^0 T^1 ... T^r.
    """

    algorithm: str
    matrix: ConnectionMatrix
    rows: tuple
    ops: tuple
    registry: MarkRegistry

    def __post_init__(self):
        if len(self.rows) != len(self.ops) + 1:
            raise AlgorithmError("trace shape: need len(rows) == len(ops) + 1")

    @cached_property
    def final(self):
        """The last matrix as a tuple of dense row tuples; the rows no step
        stored share one zero row."""
        m = self.matrix.m
        final = [(0,) * m] * m
        for rows in self.rows:
            for i, row in rows.items():
                final[i] = row
        return tuple(final)

    @property
    def running(self):
        """Whether the run's change of basis is read as the running product
        P^r (z, accumulated) rather than per step (T^r)."""
        return self.algorithm in ("z", "accumulated")


@dataclass(frozen=True)
class KernelProblem:
    """Minimize the last coordinate over integer kernel vectors.

    a holds rows of the input (ConnectionMatrix.kernel_problem's cut); the
    last of the c columns is the one being replaced. Sought is an integral
    x with a @ x == 0 and minimal x[c-1] >= 1.
    """

    a: tuple
    c: int

    def __post_init__(self):
        object.__setattr__(self, "a", freeze(self.a))
        if self.a and len(self.a[0]) != self.c:
            raise AlgorithmError("kernel problem width disagrees with c")


def scan_diagonal(work, rows, r, primary_cols, primary_of_row):
    """Markup rule for diagonal r, swept left to right, over the given rows
    (0-based) of the SparseMatrix work, which hold every nonzero on it.

    A nonzero entry at (j-r, j) is skipped when its column already holds a
    primary pivot; otherwise it becomes a change-of-basis pivot when its row
    holds a primary pivot, and a primary pivot else. Returns (i, j, kind)
    triples, 1-based, in increasing j.
    """
    found = []
    for i in sorted(rows):
        if i + r not in work[i] or i + r + 1 in primary_cols:
            continue
        kind = CHANGE_OF_BASIS if i + 1 in primary_of_row else PRIMARY
        found.append((i + 1, i + r + 1, kind))
    return found


def sweep_diagonals(matrix, change_of_basis):
    """The diagonal sweep shared by the rational and integer sweeps and row
    cancellation; they differ only in change_of_basis.

    On each diagonal r = 1..m-1 the working matrix, a linalg.SparseMatrix,
    is marked by scan_diagonal; change_of_basis(work, found, primary_of_row)
    then returns the diagonal's ops, given the (i, j, kind) triples just
    found and the row -> column map of every primary pivot so far, and
    linalg.conjugate applies them. Row cancellation's rule clears a pivot's
    row when it is marked, so it never meets a change-of-basis pivot.
    Returns the m+1 entries of SweepTrace.rows (the input's nonzero rows,
    none for diagonal 0, then the rows each diagonal changed), the m op
    lists as tuples (none on diagonal 0) and the MarkRegistry. The scan
    reads only the rows filed under its diagonal: every row that had an
    entry there in the input or gained one in a step (and may have lost it
    since). The matrix must be valid; callers check that.
    """
    m = matrix.m
    work = matrix.sparse()
    rows = [work.changes(), work.changes()]  # the input's rows, none for op list 0
    op_lists = [()]
    marks = []
    primary_of_row = {}
    primary_cols = set()
    pending = {}  # diagonal -> rows that may hold a nonzero on it
    for i, j in matrix.entries:
        pending.setdefault(j - i, set()).add(i - 1)
    for r in range(1, m):
        found = scan_diagonal(work, pending.pop(r, ()), r, primary_cols, primary_of_row)
        for i, j, kind in found:
            marks.append(Mark((i, j), kind, r, work[i - 1][j - 1]))
            if kind == PRIMARY:
                primary_of_row[i] = j
                primary_cols.add(j)
        ops = tuple(change_of_basis(work, found, primary_of_row))
        op_lists.append(ops)
        for i, j in conjugate(work, ops):
            if j - i > r:
                pending.setdefault(j - i, set()).add(i)
        rows.append(work.changes())
    return tuple(rows), tuple(op_lists), MarkRegistry(tuple(marks))


def marks_on_diagonal(trace, r):
    """Marks assigned on diagonal r, in increasing column order."""
    m = trace.matrix.m
    if not 1 <= r <= m - 1:
        raise PreconditionError(f"diagonal {r} outside 1..{m - 1}")
    return [(mk.position, mk.kind) for mk in trace.registry.on_diagonal(r)]

