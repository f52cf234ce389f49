"""The verification suites must actually catch broken traces, not just
bless good ones; doctor finished traces and watch the right check fail."""

import dataclasses

from connsweep import row_cancellation, sweep_incremental, sweep_over_z
from connsweep.fixtures import FIX_CB, FIX_SPHERE
from connsweep.linalg import thaw, freeze
from connsweep.verify import (verify_row_cancellation, verify_sweep,
                              verify_trace)


def failing(checks):
    return {name for name, ok, _ in checks if not ok}


def doctor_final(trace, i, j, value):
    mats = list(trace.matrices)
    last = thaw(mats[-1])
    last[i - 1][j - 1] = value
    mats[-1] = freeze(last)
    return dataclasses.replace(trace, matrices=tuple(mats))


def test_all_green_on_good_traces():
    for trace in (sweep_over_z(FIX_CB), sweep_incremental(FIX_CB),
                  row_cancellation(FIX_CB)):
        assert failing(verify_trace(trace)) == set()


def test_pattern_violation_detected():
    bad = doctor_final(sweep_incremental(FIX_SPHERE), 1, 4, 1)
    names = failing(verify_sweep(bad))
    assert "pattern_compliance" in names


def test_similarity_violation_detected():
    bad = doctor_final(sweep_incremental(FIX_CB), 1, 3, 7)
    assert "similarity" in failing(verify_sweep(bad))


def test_complementarity_violation_detected():
    trace = row_cancellation(FIX_SPHERE)
    bad = doctor_final(trace, 3, 4, 1)
    names = failing(verify_row_cancellation(bad))
    assert "final_complementarity" in names
    assert "pivot_row_zeroed" in names  # the final matrix is checked too


def test_dead_pivot_detected():
    trace = row_cancellation(FIX_CB)
    bad = doctor_final(trace, 2, 3, 0)
    names = failing(verify_row_cancellation(bad))
    assert "below_diagonal_pivot_structure" in names
