from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError,
                       ConnectionMatrix, PreconditionError, RandomSpec,
                       allowable_pattern, block_sequential_row_cancellation,
                       cancellation_schedule, generate_surface_matrix,
                       parse_cmx, random_connection_matrix,
                       rc_transition_ops, reduce_complex, row_cancellation,
                       smale_cancellation_sweep, sweep_incremental,
                       betti_over_q)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_TUCB, FIX_ZERO
from connsweep.linalg import freeze, identity, thaw
from connsweep.verify import verify_block_runs, verify_trace
from reference import (dense_of, is_identity, mat_mul, matrices, ops_product,
                       reduction_steps, sparse, transitions)


def pivots_of(trace):
    return [(mk.position, mk.diagonal, mk.value) for mk in trace.registry.marks]


def test_sphere():
    trace = row_cancellation(FIX_SPHERE)
    assert pivots_of(trace) == [((2, 3), 1, -1)]
    assert is_identity(transitions(trace)[1])
    assert trace.final == matrices(trace)[0]
    assert len(trace.rows) == 5 and len(trace.ops) == 4


def test_cb():
    trace = row_cancellation(FIX_CB)
    assert pivots_of(trace) == [((2, 3), 1, -2)]
    t1 = transitions(trace)[1]
    expected = identity(4)
    expected[2][3] = Fraction(-3, 2)
    assert t1 == expected
    nonzero = {(i + 1, j + 1): v for i, row in enumerate(matrices(trace)[2])
               for j, v in enumerate(row) if v}
    assert nonzero == {(1, 3): 2, (2, 3): -2}


def test_zero():
    trace = row_cancellation(FIX_ZERO)
    assert pivots_of(trace) == []
    assert not any(trace.rows)


def test_rc_transition_identity_cases():
    delta = sparse([[0, 1], [0, 0]])
    assert rc_transition_ops(delta, []) == []
    assert rc_transition_ops(delta, [(1, 2)]) == []  # nothing right of it
    assert is_identity(ops_product(2, []))


def test_rc_transition_cb():
    trace = row_cancellation(FIX_CB)
    ops = rc_transition_ops(sparse(matrices(trace)[1]), [(2, 3)])
    expected = identity(4)
    expected[2][3] = Fraction(-3, 2)
    assert ops_product(4, ops) == expected
    # one pivot: every op adds a multiple of its own column
    assert {s for (s, _, _) in ops} == {3}


def test_rc_transition_zero_pivot_is_bug_signal():
    delta = sparse([[0, 0], [0, 0]])
    with pytest.raises(AlgorithmError):
        rc_transition_ops(delta, [(1, 2)])


def test_rc_transition_uniqueness_two_pivots():
    # two pivots on one diagonal; cross-check the product against the
    # unique solution of the defining linear systems
    cm = ConnectionMatrix(
        6, [{1, 2}, {3, 4}, {5, 6}], {(1, 3): 2, (1, 4): 3, (3, 5): 1, (3, 6): 4})
    delta = freeze(dense_of(cm))
    ops = rc_transition_ops(sparse(delta), [(3, 5), (1, 3)])
    # grouped pivot by pivot in increasing column order
    assert [s for (s, _, _) in ops] == sorted(s for (s, _, _) in ops)
    t = ops_product(6, ops)
    dense = thaw(delta)
    prod = mat_mul(dense, t)
    assert prod[0][3:] == [0, 0, 0]
    assert prod[2][5] == 0
    # unit upper triangular with support confined to pivot-column rows
    for i, row in enumerate(t):
        for j, v in enumerate(row):
            if i == j:
                assert v == 1
            elif v:
                assert i + 1 in (3, 5)
    # unicity: any other qualifying matrix equals it entry by entry
    # (solve the triangular system per column by hand)
    t2 = identity(6)
    t2[2][3] = Fraction(-3, 2)
    t2[2][4] = -delta[0][4] if delta[0][4] else 0
    t2[4][5] = Fraction(-4, 1)
    for j in range(6):
        for i in range(6):
            if t[i][j] != t2[i][j]:
                # columns untouched by pivots must agree with identity
                assert i + 1 in (3, 5)


# Pivots on one diagonal whose ops do not commute: on diagonal 4 the pivot
# at (5, 9) adds column 9 to column 10, the source column of the pivot at
# (6, 10). Undoing the factors in the wrong order leaves row 10 nonzero and
# breaks similarity.
NONCOMMUTING_FACTORS = """\
CMX 1
m 16
b 3
index 1 0
index 2 0
index 3 0
index 4 0
index 5 1
index 6 1
index 7 1
index 8 1
index 9 2
index 10 2
index 11 2
index 12 2
index 13 3
index 14 3
index 15 3
index 16 3
entry 3 7 -1
entry 3 8 2
entry 4 8 1
entry 5 9 3
entry 5 10 -3
entry 5 11 3
entry 6 10 3
entry 6 11 -3
entry 10 14 1
entry 10 16 -1
entry 11 14 1
entry 11 16 -1
"""


def test_noncommuting_factors_pass_every_check():
    trace = row_cancellation(parse_cmx(NONCOMMUTING_FACTORS))
    checks = verify_trace(trace)
    assert [name for name, ok, _ in checks if not ok] == []
    assert {"pivot_row_zeroed", "similarity",
            "final_complementarity"} <= {name for name, _, _ in checks}


def test_structural_invariants_random(small_corpus):
    for cm in small_corpus[:30]:
        for name, ok, detail in verify_trace(row_cancellation(cm)):
            assert ok, (name, detail)


def test_per_diagonal_pivots_match_incremental(small_corpus):
    for cm in small_corpus:
        tr = row_cancellation(cm)
        ti = sweep_incremental(cm)
        rc = {(mk.position, mk.diagonal, mk.value) for mk in tr.registry.marks}
        inc = {(mk.position, mk.diagonal, mk.value)
               for mk in ti.registry.marks if mk.kind == PRIMARY}
        assert rc == inc


@st.composite
def pattern_valid_matrices(draw):
    """A random boundary matrix, or random nonzeros on the allowable
    pattern of a random partition into 3 to 5 chain groups (b 2 to 4),
    which is no boundary operator in general."""
    m = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return random_connection_matrix(RandomSpec(
            seed=draw(st.integers(0, 10**6)), m=m,
            b=draw(st.integers(1, min(3, m))),
            style=draw(st.sampled_from(("grouped", "scattered"))),
            density=draw(st.floats(0.2, 0.9)), values=tuple(range(-3, 4))))
    b = draw(st.integers(2, 4))
    groups = [draw(st.integers(0, b)) for _ in range(m)]
    partition = [{i for i, k in enumerate(groups, start=1) if k == g}
                 for g in range(b + 1)]
    values = st.sampled_from((-3, -2, -1, 1, 2, 3, Fraction(1, 2)))
    entries = {pos: draw(values)
               for pos in sorted(allowable_pattern(partition, m))
               if draw(st.booleans())}
    return ConnectionMatrix(m, partition, entries)


@settings(max_examples=150, deadline=None)
@given(pattern_valid_matrices())
def test_row_cancellation_marks_no_change_of_basis_pivot(matrix):
    """A pivot's row is cleared as soon as it is marked, so the sweep loop's
    change-of-basis markup never fires on a row-cancellation run."""
    kinds = {mk.kind for mk in row_cancellation(matrix).registry.marks}
    assert CHANGE_OF_BASIS not in kinds


def test_block_sequential_row_cancellation():
    runs = block_sequential_row_cancellation(FIX_SPHERE).runs
    assert runs[0].pivot_columns == {3}
    assert runs[1].pivot_columns == frozenset()
    assert all(run.pivot_columns == frozenset()
               for run in block_sequential_row_cancellation(FIX_ZERO).runs)


def test_block_sequential_rc_uncoupling(small_corpus):
    for cm in small_corpus[:25]:
        runs = block_sequential_row_cancellation(cm).runs
        full = row_cancellation(cm)
        for name, ok, detail in verify_block_runs(runs, cm, full):
            assert ok, (name, detail)


def test_schedule():
    assert cancellation_schedule(row_cancellation(FIX_SPHERE)) == [(1, (2, 3))]
    assert cancellation_schedule(row_cancellation(FIX_ZERO)) == []
    assert cancellation_schedule(row_cancellation(FIX_TUCB)) == [(1, (2, 3))]
    # works on sweep traces too
    assert cancellation_schedule(sweep_incremental(FIX_TUCB)) == [(1, (2, 3))]


def test_reduce_sphere():
    red = reduce_complex(row_cancellation(FIX_SPHERE))
    assert [st.r for st in red.steps] == [0, 1, 2, 3, 4]
    step2 = red.steps[2]
    assert step2.surviving == (1, 4)
    assert step2.entries == {}
    assert step2.removed_pairs == ((2, 3, 1),)


def test_reduce_zero():
    red = reduce_complex(row_cancellation(FIX_ZERO))
    for st in red.steps:
        assert st.surviving == (1, 2, 3)
        assert st.removed_pairs == ()
        assert st.entries == FIX_ZERO.entries


def test_reduce_tucb_preserves_betti():
    trace = row_cancellation(FIX_TUCB)
    red = reduce_complex(trace)
    base = betti_over_q(FIX_TUCB)
    for st in red.steps:
        assert betti_over_q(st.as_connection_matrix(FIX_TUCB.partition)) == base
    assert red.steps[-1].entries == {}
    assert red.steps[-1].surviving == (1, 4)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    pattern_valid_matrices().map(row_cancellation),
    st.builds(generate_surface_matrix, st.integers(0, 10**6),
              st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 5)),
              density=st.floats(0.3, 1.0), flips=st.integers(0, 3))
    .map(smale_cancellation_sweep)))
def test_reduce_complex_matches_reading_every_pair(trace):
    """Reading each row's nonzero columns where the row changed gives the
    stages of reading every surviving pair of every stage's matrix."""
    got = [(step.r, step.surviving, step.removed_pairs, step.entries)
           for step in reduce_complex(trace).steps]
    assert got == reduction_steps(trace)


def test_smale_requires_surface():
    trace = smale_cancellation_sweep(FIX_SPHERE)
    assert pivots_of(trace) == pivots_of(row_cancellation(FIX_SPHERE))
    with pytest.raises(PreconditionError) as err:
        smale_cancellation_sweep(FIX_CB)
    assert "(i)" in str(err.value)
    # one-block matrix with an empty third group appended is acceptable
    padded = ConnectionMatrix(4, list(FIX_TUCB.partition) + [set()],
                              FIX_TUCB.entries)
    trace = smale_cancellation_sweep(padded)
    assert [(mk.position, mk.value) for mk in trace.registry.marks] == [((2, 3), -1)]
