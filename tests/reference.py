"""Independent reference computations that tests compare the package against."""

from connsweep.linalg import norm, solve_upper, thaw


def invert_upper(u):
    """Inverse of an upper-triangular matrix with nonzero diagonal."""
    n = len(u)
    if not all(u[i][i] for i in range(n)):
        raise ValueError("zero diagonal entry in triangular inverse")
    cols = [solve_upper(u, [int(i == c) for i in range(n)]) for c in range(n)]
    return [list(row) for row in zip(*cols)]


def is_identity(a):
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v != (1 if i == j else 0):
                return False
    return True


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if va != vb:
                return False
    return True


def mat_mul(a, b):
    """a @ b with zero-skipping; exact."""
    n = len(a)
    inner = len(b)
    p = len(b[0]) if inner else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        out_i = out[i]
        for k in range(inner):
            aik = row_a[k]
            if aik:
                row_b = b[k]
                for j in range(p):
                    bkj = row_b[j]
                    if bkj:
                        out_i[j] += aik * bkj
    for row in out:
        for j, v in enumerate(row):
            row[j] = norm(v)
    return out


def similarity_holds(trace):
    """Every link of a sweep trace's similarity chain, multiplied out
    densely: T^r Delta^{r+1} == Delta^r T^r, or P^{r-1} Delta^r ==
    Delta^0 P^{r-1} when the transitions are running bases (z,
    accumulated)."""
    mats = [thaw(x) for x in trace.matrices]
    ts = [thaw(x) for x in trace.transitions]
    if trace.algorithm in ("z", "accumulated"):
        return all(mat_eq(mat_mul(ts[r - 1], mats[r]), mat_mul(mats[0], ts[r - 1]))
                   for r in range(1, len(mats)))
    return all(mat_eq(mat_mul(ts[r], mats[r + 1]), mat_mul(mats[r], ts[r]))
               for r in range(len(mats) - 1))
