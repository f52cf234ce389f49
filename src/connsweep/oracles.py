"""Independent brute-force oracles and the random-instance generator.

The pivot oracle reads pivot positions off rank jumps, which no elimination
order can change, so it checks the sweeping algorithms without sharing any
code path with them. The random generator produces genuine boundary
operators (the square of the matrix is zero): it lays down a canonical
pairing inside each block and conjugates by random elementary changes of
basis within the chain groups, which is what the sweeps undo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import ConnectionMatrix, PreconditionError, max_chain_index, require_valid
from .linalg import clear_denominators, conjugate, prefix_ranks


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for one random connection matrix."""

    seed: int
    m: int
    b: int
    style: str = "grouped"  # "grouped" | "scattered"
    density: float = 0.5
    values: tuple = (-1, 0, 1)
    sizes: tuple | None = None

    def __post_init__(self):
        # parse_cmx's bounds, so that every spec serializes to a valid file
        if self.m < 1 or not 0 <= self.b <= max_chain_index(self.m):
            raise ValueError(f"need m >= 1 and 0 <= b <= max(m, 2), got "
                             f"m {self.m}, b {self.b}")


def _split_sizes(m, b, sizes):
    if sizes is not None:
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != b + 1 or sum(sizes) != m or min(sizes) < 0:
            raise ValueError(f"sizes {sizes} do not split {m} into {b + 1} parts")
        return sizes
    base, extra = divmod(m, b + 1)
    return tuple(base + (1 if k < extra else 0) for k in range(b + 1))


def random_connection_matrix(spec):
    """Pattern-compliant random boundary matrix, a pure function of the spec."""
    rng = random.Random(spec.seed)
    sizes = _split_sizes(spec.m, spec.b, spec.sizes)
    if spec.style == "grouped":
        order = list(range(1, spec.m + 1))
    elif spec.style == "scattered":
        order = rng.sample(range(1, spec.m + 1), spec.m)
    else:
        raise ValueError(f"unknown partition style {spec.style!r}")
    partition = []
    at = 0
    for size in sizes:
        partition.append(set(order[at:at + size]))
        at += size

    nonzero_values = [v for v in spec.values if v]
    cm = ConnectionMatrix(spec.m, partition, {})
    if not nonzero_values or spec.density <= 0:
        return cm

    if spec.b == 1:
        # One block is a boundary operator for free; sample entries directly.
        entries = {}
        for i in sorted(partition[0]):
            for j in sorted(partition[1]):
                if i < j and rng.random() < spec.density:
                    entries[(i, j)] = rng.choice(nonzero_values)
        return cm.with_entries(entries)

    # Canonical pairing: each index sits in at most one pair overall, so the
    # pairing matrix squares to zero.
    pairing = {}
    used = set()
    for k in range(1, spec.b + 1):
        for c in sorted(partition[k]):
            if c in used or rng.random() >= spec.density:
                continue
            candidates = [q for q in sorted(partition[k - 1])
                          if q < c and q not in used]
            if not candidates:
                continue
            q = rng.choice(candidates)
            pairing[(q, c)] = rng.choice(nonzero_values)
            used.add(q)
            used.add(c)

    # Conjugate by elementary changes of basis within the chain groups; undo
    # any step that pushes an entry outside the allowed value set.
    work = cm.with_entries(pairing).sparse()
    allowed = set(spec.values)
    groups = [sorted(p) for p in partition if len(p) >= 2]
    n_ops = int(round(spec.density * spec.m)) + spec.b
    for _ in range(n_ops):
        if not groups:
            break
        group = groups[rng.randrange(len(groups))]
        a, c = sorted(rng.sample(group, 2))
        lam = rng.choice(nonzero_values)
        touched = ([(i, c - 1) for i in work.cols[a - 1]]
                   + [(a - 1, j) for j in work.rows[c - 1]])
        conjugate(work, [(a, c, lam)])
        if any(work.rows[i].get(j, 0) not in allowed for i, j in touched):
            conjugate(work, [(a, c, -lam)])
    return cm.with_entries({(i + 1, j + 1): v for i in sorted(work.rows)
                            for j, v in work.rows[i].items()})


def pivot_rank_oracle(matrix):
    """Primary-pivot positions from rank jumps, block by block.

    Block k (ConnectionMatrix.block, left as it is) is read with the rows
    of the previous block's pivot columns taken as zero rows (mirroring the
    block-sequential discipline). Local position (i, j) is a pivot iff the
    rank of the rows-i-down, columns-up-to-j corner exceeds each of its two
    neighbors by exactly one, which is the elimination-order-free
    description of the column-echelon pairing.
    """
    require_valid(matrix)
    pivots = set()
    prev_pivot_cols = set()
    for k in range(1, matrix.b + 1):
        rows, cols, block = matrix.block(k)
        nr, nc = len(rows), len(cols)
        block = [(0,) * nc if i in prev_pivot_cols else row
                 for i, row in zip(rows, block)]
        # table[i][j] = rank of block rows i.. (0-based), columns < j
        table = [prefix_ranks(block[i:], nc) for i in range(nr + 1)]
        block_pivots = set()
        for li in range(nr):
            for lj in range(1, nc + 1):
                jump = (table[li][lj] - table[li + 1][lj]
                        - table[li][lj - 1] + table[li + 1][lj - 1])
                if jump == 1:
                    block_pivots.add((rows[li], cols[lj - 1]))
        pivots |= block_pivots
        prev_pivot_cols = {j for (_, j) in block_pivots}
    return frozenset(pivots)


@dataclass(frozen=True)
class IlpWitness:
    min_leading: int
    witness: tuple


ILP_MAX_BOX = 21 ** 5  # points in the box of c = 6, bound = 10: seconds to enumerate


def ilp_box_fits(c, bound):
    """Whether the box |x_i| <= bound of a c-column problem, (2 bound + 1)^(c - 1)
    points for the first c - 1 coordinates, is small enough to enumerate."""
    return (2 * bound + 1) ** (c - 1) <= ILP_MAX_BOX


def ilp_brute_force(problem, bound):
    """Enumerate integer kernel vectors within the box |x_i| <= bound.

    Returns the minimal positive last coordinate with one witness, or None
    when no solution exists inside the box. Coordinates are tried in order
    of absolute value (positive first), so the witness is deterministic and
    small. Desk scale only: a box past ILP_MAX_BOX points is refused up front.
    """
    c = problem.c
    if bound < 0:
        raise PreconditionError(f"the bound must be nonnegative, got {bound}")
    if not ilp_box_fits(c, bound):
        raise PreconditionError(f"the box |x_i| <= {bound} over {c} columns has more "
                                f"than {ILP_MAX_BOX} points to enumerate")
    rows = clear_denominators([list(r) for r in problem.a])
    n_rows = len(rows)
    # suffix[j][i] = max |contribution| of coordinates j.. to row i
    suffix = [[0] * n_rows for _ in range(c)]
    tail = [0] * n_rows
    for j in range(c - 2, -1, -1):
        tail = [tail[i] + bound * abs(rows[i][j]) for i in range(n_rows)]
        suffix[j] = tail[:]
    order = [0] + [v for k in range(1, bound + 1) for v in (k, -k)]

    def dfs(j, partial, xs):
        if j == c - 1:
            return xs[:] if all(not p for p in partial) else None
        slack = suffix[j]
        for i in range(n_rows):
            if abs(partial[i]) > slack[i]:
                return None
        for v in order:
            if v:
                nxt = [partial[i] + v * rows[i][j] for i in range(n_rows)]
            else:
                nxt = partial
            xs.append(v)
            got = dfs(j + 1, nxt, xs)
            if got is not None:
                return got
            xs.pop()
        return None

    for xc in range(1, bound + 1):
        start = [xc * rows[i][c - 1] for i in range(n_rows)]
        got = dfs(0, start, [])
        if got is not None:
            return IlpWitness(xc, tuple(got + [xc]))
    return None
