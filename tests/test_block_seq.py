import pytest

from connsweep import (PRIMARY, ConnectionMatrix, PreconditionError,
                       block_sequential_sweep, revised_one_block,
                       sweep_incremental)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_TUCB, FIX_ZERO
from connsweep.verify import verify_block_runs, verify_trace


def test_block_sweep_sphere():
    runs = block_sequential_sweep(FIX_SPHERE).runs
    assert [run.k for run in runs] == [1, 2]
    assert runs[0].pivot_columns == {3}
    assert runs[1].pivot_columns == frozenset()
    assert runs[1].trace.matrix.entries == {}


def test_block_sweep_zero():
    assert all(run.pivot_columns == frozenset()
               for run in block_sequential_sweep(FIX_ZERO).runs)


def test_block_sweep_tucb():
    runs = block_sequential_sweep(FIX_TUCB).runs
    assert runs[0].pivot_columns == {3}


def test_block_input_zeroes_previous_pivot_rows():
    cm = ConnectionMatrix(3, [{1}, {2}, {3}], {(1, 2): 1, (2, 3): 1})
    runs = block_sequential_sweep(cm).runs
    assert runs[0].pivot_columns == {2}
    # row 2 is zeroed before block 2 runs, so its entry disappears
    assert runs[1].trace.matrix.entries == {}
    assert runs[1].pivot_columns == frozenset()


def test_uncoupling_on_random(small_corpus):
    for cm in small_corpus[:30]:
        runs = block_sequential_sweep(cm).runs
        full = sweep_incremental(cm)
        for name, ok, detail in verify_block_runs(runs, cm, full):
            assert ok, (name, detail)


def test_revised_tucb():
    trace = revised_one_block(FIX_TUCB)
    marks = [(mk.position, mk.value) for mk in trace.registry.marks]
    assert marks == [((2, 3), -1)]
    assert len(trace.ops) == 1
    col4 = [trace.final[i][3] for i in range(4)]
    assert col4 == [0, 0, 0, 0]


def test_revised_zero():
    trace = revised_one_block(FIX_ZERO)
    assert trace.registry.marks == ()
    assert trace.rows == ({},)


def test_revised_cb():
    trace = revised_one_block(FIX_CB)
    marks = [(mk.position, mk.value) for mk in trace.registry.marks]
    assert marks == [((2, 3), -2)]
    nonzero = {(i + 1, j + 1): v for i, row in enumerate(trace.final)
               for j, v in enumerate(row) if v}
    assert nonzero == {(1, 3): 2, (2, 3): -2}


def test_revised_accepts_one_effective_block():
    # three subsets but nonzeros confined to one block
    trace = revised_one_block(FIX_SPHERE)
    assert [(mk.position, mk.value) for mk in trace.registry.marks] == [((2, 3), -1)]


def test_revised_rejects_two_blocks():
    cm = ConnectionMatrix(3, [{1}, {2}, {3}], {(1, 2): 1, (2, 3): 1})
    with pytest.raises(PreconditionError):
        revised_one_block(cm)


def test_revised_matches_incremental(one_block_corpus):
    for cm in one_block_corpus:
        rv = revised_one_block(cm)
        ti = sweep_incremental(cm)
        assert rv.final == ti.final
        rv_pivots = {(mk.position, mk.value) for mk in rv.registry.marks}
        ti_pivots = {(mk.position, mk.value) for mk in ti.registry.marks
                     if mk.kind == PRIMARY}
        assert rv_pivots == ti_pivots


def test_revised_invariant_suite(one_block_corpus):
    for cm in one_block_corpus[:30]:
        for name, ok, detail in verify_trace(revised_one_block(cm)):
            assert ok, (name, detail)
