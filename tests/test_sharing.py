"""Row sharing in stored traces: a step stores only the rows it changed.

Each matrix shares with the one before every row its step left
unchanged, a trace and its verification hold no dense identity, and
trace.txt, formatted once per distinct row, reads byte for byte as if
every row were formatted afresh.
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
from reference import trace_lines

DIAGONAL_RUNNERS = (sweep_over_z, sweep_accumulated, sweep_incremental,
                    row_cancellation)
BLOCK_RUNNERS = (block_sequential_sweep, block_sequential_row_cancellation)


def _sweep_traces(trace):
    """The SweepTraces of a run: itself, or each block's."""
    if trace.algorithm == "block":
        return [run.trace for run in trace.runs]
    return [trace]


def _assert_shares_equal_rows(seq, first_prev):
    """Every row equal to the row before it (in the previous matrix of
    seq, or in first_prev for seq[0]) is that same object."""
    prev = first_prev
    for r, mat in enumerate(seq):
        for i, (row, before) in enumerate(zip(mat, prev)):
            if row == before:
                assert row is before, (r, i)
        prev = mat


def _assert_trace_shares(trace):
    for tr in _sweep_traces(trace):
        _assert_shares_equal_rows(tr.matrices[1:], tr.matrices[0])


@pytest.mark.parametrize("runner", DIAGONAL_RUNNERS + BLOCK_RUNNERS,
                         ids=lambda f: f.__name__)
def test_unchanged_rows_are_shared(runner, small_corpus):
    for cm in small_corpus:
        _assert_trace_shares(runner(cm))


def test_revised_and_smale_share_unchanged_rows(one_block_corpus):
    for cm in one_block_corpus:
        _assert_trace_shares(revised_one_block(cm))
    for seed in range(5):
        _assert_trace_shares(smale_cancellation_sweep(
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
    assert len(trace.matrices) == 257
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
