"""Independent reference computations that tests compare the package against."""

from connsweep.linalg import solve_upper


def invert_upper(u):
    """Inverse of an upper-triangular matrix with nonzero diagonal."""
    n = len(u)
    if not all(u[i][i] for i in range(n)):
        raise ValueError("zero diagonal entry in triangular inverse")
    cols = [solve_upper(u, [int(i == c) for i in range(n)]) for c in range(n)]
    return [list(row) for row in zip(*cols)]
