"""Total unimodularity, surface connection matrices, and Betti ranks.

The exhaustive TU test checks every square submatrix determinant exactly.
For a connection matrix every cross-block square submatrix is, up to a
permutation, block diagonal with one factor per chain block, so its
determinant is a product of block minors (or zero); the scan therefore runs
block by block, taking each minor with linalg.bareiss_det.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import (ConnectionMatrix, PreconditionError, require_valid)
from .linalg import bareiss_det, rank

DEFAULT_SIZE_GUARD = 16


class SizeGuardError(PreconditionError):
    """Matrix too large for the exhaustive scan; use the sampled falsifier."""


def _dense_is_tu(rows):
    """Exhaustive TU check of a matrix with entries in {0, 1, -1}: every
    square submatrix of size 2 and up with no zero row, each determinant
    taken by linalg.bareiss_det."""
    row_support = [frozenset(j for j, v in enumerate(row) if v) for row in rows]
    nonzero_rows = [i for i in range(len(rows)) if row_support[i]]
    nonzero_cols = sorted({j for s in row_support for j in s})
    top = min(len(nonzero_rows), len(nonzero_cols))
    for k in range(2, top + 1):
        for rs in combinations(nonzero_rows, k):
            cols_avail = sorted(frozenset.union(*(row_support[i] for i in rs)))
            if len(cols_avail) < k:
                continue
            for cs in combinations(cols_avail, k):
                if any(not (row_support[i] & set(cs)) for i in rs):
                    continue
                minor = [[rows[i][j] for j in cs] for i in rs]
                if bareiss_det(minor) not in (-1, 0, 1):
                    return False
    return True


def is_totally_unimodular(matrix, *, size_guard=DEFAULT_SIZE_GUARD):
    """True iff every square submatrix has determinant 0, 1 or -1.

    Any entry outside {0, 1, -1} already fails (it is a 1x1 submatrix).
    Guarded at size_guard; larger matrices must use sample_non_tu_witness.
    """
    require_valid(matrix)
    if matrix.m > size_guard:
        raise SizeGuardError(
            f"order {matrix.m} exceeds the exhaustive-scan guard {size_guard}")
    for v in matrix.entries.values():
        if v not in (-1, 0, 1):
            return False
    return all(_dense_is_tu(matrix.block(k)[2]) for k in range(1, matrix.b + 1))


@dataclass(frozen=True)
class TuCounterexample:
    rows: tuple
    cols: tuple
    det: int


def sample_non_tu_witness(matrix, *, samples=500, seed=0):
    """One-sided randomized falsifier for matrices beyond the size guard.

    Returns a TuCounterexample when some sampled square submatrix has a
    determinant outside {0, 1, -1}; returns None ("unfalsified") otherwise.
    """
    if samples < 1:
        raise PreconditionError(f"need at least one sample, got {samples}")
    require_valid(matrix)
    for (i, j), v in sorted(matrix.entries.items()):
        if v not in (-1, 0, 1):
            return TuCounterexample((i,), (j,), int(v))
    rng = random.Random(seed)
    m = matrix.m
    for _ in range(samples):
        k = rng.randint(2, max(2, min(m, 10)))
        rows = sorted(rng.sample(range(1, m + 1), k))
        cols = sorted(rng.sample(range(1, m + 1), k))
        sub = [[matrix.entries.get((i, j), 0) for j in cols] for i in rows]
        d = bareiss_det(sub)
        if d not in (-1, 0, 1):
            return TuCounterexample(tuple(rows), tuple(cols), d)
    return None


@dataclass(frozen=True)
class SurfaceProfile:
    """Sizes of the three groups plus the sign flips normalizing the matrix.

    Flipping the listed rows and columns produces the canonical form: every
    two-nonzero well column reads +1 above -1, every two-nonzero source row
    reads +1 left of -1.
    """

    wells: int
    saddles: int
    sources: int
    row_flips: frozenset
    col_flips: frozenset


@dataclass(frozen=True)
class SurfaceRejection:
    prop: str  # "i" | "iii" | "iv"
    message: str


def _pair_coloring(pairs, reject_prop):
    """Two-color the indices so every pair gets opposite signs after flips.

    pairs maps a carrier to ((idx_a, val_a), (idx_b, val_b)); the constraint
    is sign(eps_a * val_a) != sign(eps_b * val_b). Plain graph 2-coloring,
    decided completely by propagation; the smallest index of each component
    is never flipped. Returns the flip set or a SurfaceRejection.
    """
    adj = {}
    for carrier, ((ia, va), (ib, vb)) in pairs.items():
        want_opposite = (va > 0) == (vb > 0)
        adj.setdefault(ia, []).append((ib, want_opposite, carrier))
        adj.setdefault(ib, []).append((ia, want_opposite, carrier))
    color = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            for v, opposite, carrier in adj[u]:
                want = -color[u] if opposite else color[u]
                if v not in color:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return SurfaceRejection(
                        reject_prop,
                        f"signs cannot be normalized (conflict at {carrier})")
    return frozenset(i for i, c in color.items() if c == -1)


def is_surface_connection_matrix(matrix):
    """Accept iff sign flips of rows/columns reach the surface form:
    entries in {0, 1, -1}; wells/saddles/sources groups; each well column
    with zero or two nonzeros of opposite sign; each source row likewise.

    Returns a SurfaceProfile (with the canonicalizing flips) or a
    SurfaceRejection naming the first violated property.
    """
    require_valid(matrix)
    if len(matrix.partition) != 3:
        raise PreconditionError(
            f"surface check needs exactly 3 partition subsets, got {len(matrix.partition)}")
    for (i, j), v in sorted(matrix.entries.items()):
        if v not in (-1, 0, 1):
            return SurfaceRejection("i", f"entry at ({i}, {j}) is {v}, not 0 or ±1")
    wells, saddles, well_block = matrix.block(1)
    _, sources, source_block = matrix.block(2)

    col_pairs = {}
    for s, col in zip(saddles, zip(*well_block)):
        nz = [(w, v) for w, v in zip(wells, col) if v]
        if len(nz) not in (0, 2):
            return SurfaceRejection(
                "iii", f"column {s} has {len(nz)} nonzero entries, needs 0 or 2")
        if nz:
            col_pairs[s] = (nz[0], nz[1])
    row_pairs = {}
    for s, row in zip(saddles, source_block):
        nz = [(o, v) for o, v in zip(sources, row) if v]
        if len(nz) not in (0, 2):
            return SurfaceRejection(
                "iv", f"row {s} has {len(nz)} nonzero entries, needs 0 or 2")
        if nz:
            row_pairs[s] = (nz[0], nz[1])

    well_flips = _pair_coloring(col_pairs, "iii")
    if isinstance(well_flips, SurfaceRejection):
        return well_flips
    source_flips = _pair_coloring(row_pairs, "iv")
    if isinstance(source_flips, SurfaceRejection):
        return source_flips

    # Per-saddle flips put +1 first in each column (top) and row (left).
    saddle_col_flips = set()
    for s, ((wa, va), _) in col_pairs.items():
        top = -va if wa in well_flips else va
        if top < 0:
            saddle_col_flips.add(s)
    saddle_row_flips = set()
    for s, ((oa, va), _) in row_pairs.items():
        left = -va if oa in source_flips else va
        if left < 0:
            saddle_row_flips.add(s)

    return SurfaceProfile(len(wells), len(saddles), len(sources),
                          frozenset(well_flips | saddle_row_flips),
                          frozenset(source_flips | saddle_col_flips))


def generate_surface_matrix(seed, sizes, density=1.0, flips=0):
    """Deterministic surface connection matrix with the given group sizes.

    Built from local pieces that keep the boundary-of-boundary identity:
    well splits (a saddle column joining two wells), source splits (a saddle
    row joining two sources), and coupled saddle pairs carrying two sources
    over equal well columns. density in [0, 1] scales how many pieces are
    placed; flips applies that many random sign flips afterwards. Degenerate
    sizes yield zero matrices, but at least one generator is required.
    """
    n0, n1, n2 = sizes
    if min(n0, n1, n2) < 0:
        raise PreconditionError("sizes must be nonnegative")
    m = n0 + n1 + n2
    if m == 0:
        raise PreconditionError("sizes must give at least one generator")
    wells = list(range(1, n0 + 1))
    saddles = list(range(n0 + 1, n0 + n1 + 1))
    sources = list(range(n0 + n1 + 1, m + 1))
    partition = [set(wells), set(saddles), set(sources)]
    rng = random.Random(seed)
    entries = {}

    col_desc = {}  # saddle -> (w_low, w_high, sign at w_low) or None
    present = wells[:1]
    unused = wells[1:]
    for s in saddles:
        if unused and rng.random() < density:
            w_new = unused.pop(0)
            w_old = rng.choice(present)
            present.append(w_new)
            eps = rng.choice((1, -1))
            lo, hi = min(w_old, w_new), max(w_old, w_new)
            entries[(lo, s)] = eps
            entries[(hi, s)] = -eps
            col_desc[s] = (lo, hi, eps)
        else:
            col_desc[s] = None

    rows_free = list(saddles)
    placed = sources[:1]
    for o_new in sources[1:]:
        placed.append(o_new)
        if len(placed) < 2 or not rows_free or rng.random() >= density:
            continue
        o_old = rng.choice(placed[:-1])
        carriers = []
        for s in rows_free:
            if col_desc[s] is None:
                carriers.append((s,))
        for sa, sb in combinations(rows_free, 2):
            da, db = col_desc[sa], col_desc[sb]
            if da is not None and db is not None and da[:2] == db[:2]:
                carriers.append((sa, sb))
        if not carriers:
            continue
        pick = carriers[rng.randrange(len(carriers))]
        eps = rng.choice((1, -1))
        if len(pick) == 1:
            s = pick[0]
            entries[(s, o_old)] = eps
            entries[(s, o_new)] = -eps
            rows_free.remove(s)
        else:
            sa, sb = pick
            sigma = 1 if col_desc[sa][2] == col_desc[sb][2] else -1
            entries[(sa, o_old)] = eps
            entries[(sa, o_new)] = -eps
            entries[(sb, o_old)] = -sigma * eps
            entries[(sb, o_new)] = sigma * eps
            rows_free.remove(sa)
            rows_free.remove(sb)

    for _ in range(flips):
        axis = rng.choice(("row", "col"))
        idx = rng.randrange(1, m + 1)
        for (i, j) in list(entries):
            if (axis == "row" and i == idx) or (axis == "col" and j == idx):
                entries[(i, j)] = -entries[(i, j)]

    return ConnectionMatrix(m, partition, entries)


def betti_over_q(matrix):
    """Rational Betti numbers of the chain groups by block ranks:
    H_k = |J_k| - rank d_k - rank d_{k+1}, missing blocks counting zero.
    """
    require_valid(matrix)
    ranks = [0] + [rank(matrix.block(k)[2]) for k in range(1, matrix.b + 1)] + [0]
    return tuple(len(matrix.partition[k]) - ranks[k] - ranks[k + 1]
                 for k in range(matrix.b + 1))
