import random
import warnings

import pytest

from connsweep import RandomSpec, random_connection_matrix

pytest_plugins = ["pytester"]

# hypothesis imports this module, and through it libcst, only when a test
# fails; libcst's import raises a mypy_extensions DeprecationWarning, which
# under -W error turns a failure report into an INTERNALERROR. Importing it
# here, with that warning ignored for this import only, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass


def random_corpus(count, seed, m_range=(2, 16), b_range=(1, 4),
                  values=tuple(range(-3, 4)), styles=("grouped", "scattered"),
                  density=(0.2, 0.9), size_cap=None):
    """Deterministic list of random boundary matrices for property tests."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m = rng.randint(*m_range)
        b = rng.randint(b_range[0], min(b_range[1], max(1, m - 1)))
        sizes = None
        if size_cap is not None:
            while True:
                sizes = tuple(rng.randint(1, size_cap) for _ in range(b + 1))
                if m_range[0] <= sum(sizes) <= m_range[1]:
                    m = sum(sizes)
                    break
        spec = RandomSpec(seed=seed * 100003 + k, m=m, b=b,
                          style=rng.choice(styles),
                          density=rng.uniform(*density),
                          values=values, sizes=sizes)
        out.append(random_connection_matrix(spec))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return random_corpus(60, seed=5)


@pytest.fixture(scope="session")
def one_block_corpus():
    return random_corpus(60, seed=9, b_range=(1, 1), m_range=(2, 14))
