"""Metamorphic pivot tests: the primary pivots are read off the rank profile
of the filtered complex, so no sweep may move them under a change of basis
that keeps the filtration, or under nonzero row and column scaling. The
inputs have one to three blocks; revised1 runs only on the one-block ones,
since it requires a single nonzero block."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep import (RandomSpec, block_sequential_sweep, random_connection_matrix,
                       revised_one_block, row_cancellation, sweep_incremental,
                       sweep_over_z)
from connsweep.linalg import conjugate

RUNNERS = {"incremental": sweep_incremental, "rowcancel": row_cancellation,
           "z": sweep_over_z, "block": block_sequential_sweep,
           "revised1": revised_one_block}

SCALES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def matrices(draw):
    b = draw(st.integers(1, 3))
    return random_connection_matrix(RandomSpec(
        seed=draw(st.integers(0, 10**6)), m=draw(st.integers(b + 2, 14)), b=b,
        style=draw(st.sampled_from(("grouped", "scattered"))),
        density=draw(st.floats(0.3, 0.9)), values=tuple(range(-3, 4))))


def pivots(matrix):
    return {name: run(matrix).registry.primary_positions()
            for name, run in RUNNERS.items()
            if name != "revised1" or matrix.b == 1}


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_pivots_survive_a_change_of_basis_within_a_chain_group(matrix, data):
    """Conjugate by I + c E_{a,b}, a < b in one chain group, through
    linalg.conjugate as random_connection_matrix applies it."""
    work = matrix.sparse()
    for _ in range(data.draw(st.integers(1, 3))):
        group = data.draw(st.sampled_from([sorted(p) for p in matrix.partition
                                           if len(p) >= 2]))
        a, b = sorted(data.draw(st.lists(st.sampled_from(group), min_size=2,
                                         max_size=2, unique=True)))
        conjugate(work, [(a, b, data.draw(st.sampled_from(SCALES)))])
    moved = matrix.with_entries({(i + 1, j + 1): v for i in range(matrix.m)
                                 for j, v in work.rows[i].items()})
    assert pivots(moved) == pivots(matrix)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_pivots_survive_row_and_column_scaling(matrix, data):
    scale = st.lists(st.sampled_from(SCALES), min_size=matrix.m, max_size=matrix.m)
    rows, cols = data.draw(scale), data.draw(scale)
    scaled = matrix.with_entries({(i, j): rows[i - 1] * v * cols[j - 1]
                                  for (i, j), v in matrix.entries.items()})
    assert pivots(scaled) == pivots(matrix)
