"""Stored rows: a step stores only the rows it changed.

Of each matrix a trace stores the rows whose values differ from the
matrix before's, so every unchanged row is shared with it; a trace and its
verification hold no dense identity, and trace.txt, formatted once per
stored row, reads byte for byte as if every row were formatted afresh.
"""

import tracemalloc
from itertools import chain

import pytest

from connsweep import (ConnectionMatrix, RandomSpec, block_sequential_row_cancellation,
                       block_sequential_sweep, generate_surface_matrix,
                       random_connection_matrix, revised_one_block,
                       row_cancellation, smale_cancellation_sweep,
                       sweep_accumulated, sweep_incremental, sweep_over_z)
from connsweep.cli import _trace_records
from connsweep.verify import verify_trace
from conftest import random_corpus
from reference import dense_of, invert_upper, mat_mul, trace_lines, transitions

DIAGONAL_RUNNERS = (sweep_over_z, sweep_accumulated, sweep_incremental,
                    row_cancellation)
BLOCK_RUNNERS = (block_sequential_sweep, block_sequential_row_cancellation)


def _sweep_traces(trace):
    """The SweepTraces of a run: itself, or each block's."""
    if trace.algorithm == "block":
        return [run.trace for run in trace.runs]
    return [trace]


def _assert_stores_changed_rows(trace):
    """rows[0] holds the input's nonzero rows, and each rows[s + 1] the
    rows whose values differ between matrices s and s + 1, the matrices
    replayed densely from the input by each op list's T^{-1} Delta T."""
    for tr in _sweep_traces(trace):
        m, ts = tr.matrix.m, transitions(tr)
        before, now = [(0,) * m] * m, dense_of(tr.matrix)
        for s, rows in enumerate(tr.rows):
            now = [tuple(row) for row in now]
            assert rows == {i: row for i, (row, old) in enumerate(zip(now, before))
                            if row != old}, s
            if s < len(ts):
                before, now = now, mat_mul(mat_mul(invert_upper(ts[s]), now), ts[s])


@pytest.mark.parametrize("runner", DIAGONAL_RUNNERS + BLOCK_RUNNERS,
                         ids=lambda f: f.__name__)
def test_unchanged_rows_are_shared(runner, small_corpus):
    for cm in small_corpus:
        _assert_stores_changed_rows(runner(cm))


def test_revised_and_smale_share_unchanged_rows(one_block_corpus):
    for cm in one_block_corpus:
        _assert_stores_changed_rows(revised_one_block(cm))
    for seed in range(5):
        _assert_stores_changed_rows(smale_cancellation_sweep(
            generate_surface_matrix(seed, (3, 5, 3))))


def test_incremental_trace_retains_little():
    cm = random_connection_matrix(RandomSpec(
        seed=7, m=256, b=3, style="grouped", density=0.6,
        values=tuple(range(-3, 4))))
    tracemalloc.start()
    try:
        trace = sweep_incremental(cm)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == 257
    # a dense tuple copy per diagonal with ops retains about 30 MiB here
    assert retained < 4 * 2 ** 20


@pytest.mark.parametrize("runner", (sweep_over_z, sweep_accumulated, sweep_incremental,
                                    row_cancellation, revised_one_block,
                                    block_sequential_sweep), ids=lambda f: f.__name__)
def test_one_entry_run_and_check_need_no_dense_identity(runner):
    """m = 1000 with a single entry: sweeping and verifying cost what the
    entries and ops touch, not an m x m identity (about 16 MiB of row
    tuples here)."""
    cm = ConnectionMatrix(1000, [set(range(1, 1000)), {1000}], {(1, 1000): 1})
    tracemalloc.start()
    try:
        assert all(ok for _, ok, _ in verify_trace(runner(cm)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_one_entry_sweep_stores_one_row():
    """m = 1000 with a single entry that no step moves: the trace stores
    that one row, once."""
    cm = ConnectionMatrix(1000, [set(range(1, 1000)), {1000}], {(1, 1000): 1})
    trace = sweep_incremental(cm)
    assert sum(map(len, trace.rows)) == 1
    assert list(trace.rows[0]) == [0]


ALL_RUNNERS = DIAGONAL_RUNNERS + BLOCK_RUNNERS + (revised_one_block,)


@pytest.mark.parametrize("full", (False, True))
def test_trace_records_match_naive_formatting(full):
    # back to back in one process, so that row objects freed with one trace
    # may hand their ids to the next one's rows
    corpus = random_corpus(12, seed=31, m_range=(4, 14))
    one_block = random_corpus(12, seed=32, b_range=(1, 1), m_range=(4, 14))
    for runner in ALL_RUNNERS:
        for cm in one_block if runner is revised_one_block else corpus:
            trace = runner(cm)
            assert list(chain.from_iterable(_trace_records(trace, full))) == \
                trace_lines(trace, full)
            del trace
