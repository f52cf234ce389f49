"""Rational-valued inputs: all algorithms accept them, pivot positions stay
oracle-determined, and only the integer sweep may rescale pivot values (its
basis columns carry integer leading coefficients larger than one)."""

from fractions import Fraction

from connsweep import (PRIMARY, pivot_rank_oracle, row_cancellation,
                       sweep_incremental, sweep_over_z)
from connsweep.cmx import parse_cmx, serialize_cmx
from reference import kernel_problems

RATIONAL_TEXT = """\
CMX 1
m 4
b 1
index 1 0
index 2 0
index 3 1
index 4 1
entry 1 3 1/2
entry 2 3 -1/2
entry 1 4 1/3
entry 2 4 -2/3
"""


def primary_marks(trace):
    return {mk.position: mk.value for mk in trace.registry.marks
            if mk.kind == PRIMARY}


def test_positions_agree_values_may_rescale():
    cm = parse_cmx(RATIONAL_TEXT)
    tz = sweep_over_z(cm)
    ti = sweep_incremental(cm)
    tr = row_cancellation(cm)
    oracle = pivot_rank_oracle(cm)
    for trace in (tz, ti, tr):
        assert trace.registry.primary_positions() == oracle == {(2, 3), (1, 4)}
    assert primary_marks(ti) == primary_marks(tr)
    assert primary_marks(ti) == {(2, 3): Fraction(-1, 2), (1, 4): Fraction(-1, 3)}
    # the integer sweep replaced column 4 with leading coefficient 3,
    # scaling the later pivot by that factor
    assert primary_marks(tz) == {(2, 3): Fraction(-1, 2), (1, 4): -1}
    [problem] = kernel_problems(tz)
    from connsweep import solve_min_leading
    assert solve_min_leading(problem) == (-4, 3)


def test_fractional_final_round_trips_through_cmx():
    cm = parse_cmx(RATIONAL_TEXT)
    trace = sweep_incremental(cm)
    final = cm.with_entries(
        {(i + 1, j + 1): v for i, row in enumerate(trace.final)
         for j, v in enumerate(row) if v})
    assert parse_cmx(serialize_cmx(final)) == final
    assert "entry 1 4 -1/3" in serialize_cmx(final)
