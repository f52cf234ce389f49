import pytest

from connsweep import (KernelProblem, RandomSpec, allowable_pattern,
                       ilp_brute_force, pivot_rank_oracle,
                       random_connection_matrix, row_cancellation,
                       sweep_incremental, sweep_over_z, validate)
from connsweep.fixtures import FIX_CB, FIX_FIG3L, FIX_SPHERE, FIX_ZERO
from reference import dense_of, mat_mul


def test_rank_oracle_fixtures():
    assert pivot_rank_oracle(FIX_SPHERE) == {(2, 3)}
    assert pivot_rank_oracle(FIX_ZERO) == frozenset()
    assert pivot_rank_oracle(FIX_CB) == {(2, 3)}


def test_rank_oracle_matches_algorithms(small_corpus):
    for cm in small_corpus:
        oracle = pivot_rank_oracle(cm)
        assert sweep_incremental(cm).registry.primary_positions() == oracle
        assert row_cancellation(cm).registry.primary_positions() == oracle
        assert sweep_over_z(cm).registry.primary_positions() == oracle


@pytest.mark.parametrize("a, expected_min, expected_witness", [
    (((-2, -3),), 2, (-3, 2)),
    (((1, -1),), 1, (1, 1)),
    (((0, 0),), 1, (0, 1)),
])
def test_ilp_examples(a, expected_min, expected_witness):
    got = ilp_brute_force(KernelProblem(a, len(a[0])), 10)
    assert got.min_leading == expected_min
    assert got.witness == expected_witness


def test_ilp_none_within_bound():
    # x1 = -7 x2 forces |x1| > 5 for any positive x2
    assert ilp_brute_force(KernelProblem(((1, 7),), 2), 5) is None


def test_generator_density_zero_is_zero_matrix():
    spec = RandomSpec(seed=1, m=10, b=3, density=0.0)
    assert random_connection_matrix(spec).entries == {}


def test_generator_respects_fig3_pattern():
    spec = RandomSpec(seed=2, m=12, b=3, density=0.9, sizes=(3, 5, 2, 2))
    cm = random_connection_matrix(spec)
    pattern = allowable_pattern(FIX_FIG3L.partition, 12)
    assert set(cm.entries) <= pattern
    assert cm.partition == FIX_FIG3L.partition


def test_generator_deterministic():
    spec = RandomSpec(seed=3, m=14, b=2, style="scattered", density=0.7)
    assert random_connection_matrix(spec) == random_connection_matrix(spec)


def test_generator_outputs_validate_and_square_to_zero(small_corpus):
    for cm in small_corpus:
        assert validate(cm) == []
        dense = dense_of(cm)
        assert not any(v for row in mat_mul(dense, dense) for v in row)
        for v in cm.entries.values():
            assert -3 <= v <= 3 and v


def test_generator_value_set_respected():
    spec = RandomSpec(seed=4, m=12, b=2, density=0.8, values=(-1, 0, 1))
    cm = random_connection_matrix(spec)
    assert all(v in (-1, 1) for v in cm.entries.values())


def test_scattered_partition_covers_everything():
    spec = RandomSpec(seed=5, m=15, b=3, style="scattered", density=0.6)
    cm = random_connection_matrix(spec)
    assert validate(cm) == []
    union = set().union(*cm.partition)
    assert union == set(range(1, 16))
