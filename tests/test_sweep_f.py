import random
from fractions import Fraction
from itertools import accumulate

import pytest

from connsweep import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError,
                       sweep_accumulated, sweep_incremental, sweep_over_z,
                       transition_ops)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_TUCB, FIX_ZERO
from connsweep.linalg import freeze, identity, products, thaw
from connsweep.verify import verify_trace
from reference import (invert_upper, is_identity, mat_mul, matrices, ops_product,
                       running_bases, transitions)


def marks_of(trace):
    return [(mk.position, mk.kind, mk.diagonal, mk.value)
            for mk in trace.registry.marks]


def final_entries(trace):
    return {(i + 1, j + 1): v for i, row in enumerate(trace.final)
            for j, v in enumerate(row) if v}


def test_incremental_sphere():
    trace = sweep_incremental(FIX_SPHERE)
    assert marks_of(trace) == [((2, 3), PRIMARY, 1, -1)]
    assert all(is_identity(t) for t in transitions(trace))


def test_incremental_cb():
    trace = sweep_incremental(FIX_CB)
    assert transitions(trace)[2][2][3] == Fraction(-3, 2)
    assert final_entries(trace) == {(1, 3): 2, (2, 3): -2}
    basis = running_bases(sweep_accumulated(FIX_CB))
    sigma3_col4 = [basis[2][i][3] for i in range(4)]
    assert sigma3_col4 == [0, 0, Fraction(-3, 2), 1]


def test_incremental_zero():
    trace = sweep_incremental(FIX_ZERO)
    assert marks_of(trace) == []
    assert all(is_identity(t) for t in transitions(trace))


def test_accumulated_cb():
    trace = sweep_accumulated(FIX_CB)
    # the replacement column solves with coefficients (-3/2, 1) on (col3, col4)
    p2 = running_bases(trace)[2]
    assert [p2[i][3] for i in range(4)] == [0, 0, Fraction(-3, 2), 1]
    assert final_entries(trace) == {(1, 3): 2, (2, 3): -2}


def test_accumulated_tucb():
    trace = sweep_accumulated(FIX_TUCB)
    assert marks_of(trace) == [((2, 3), PRIMARY, 1, -1),
                               ((2, 4), CHANGE_OF_BASIS, 2, -1)]
    assert final_entries(trace) == {(1, 3): 1, (2, 3): -1}


def test_accumulated_zero_keeps_identity():
    trace = sweep_accumulated(FIX_ZERO)
    assert all(is_identity(p) for p in running_bases(trace))


def test_transition_matrix_empty_is_identity():
    delta = freeze(identity(3))
    assert transition_ops(delta, [], {}) == []
    assert is_identity(ops_product(3, []))


def test_transition_matrix_cb_example():
    trace = sweep_incremental(FIX_CB)
    delta2 = matrices(trace)[2]
    ops = transition_ops(delta2, [(2, 4)], {2: 3})
    assert ops == [(3, 4, Fraction(-3, 2))]
    expected = identity(4)
    expected[2][3] = Fraction(-3, 2)
    assert ops_product(4, ops) == expected


def test_transition_matrix_missing_primary_is_bug_signal():
    trace = sweep_incremental(FIX_CB)
    with pytest.raises(AlgorithmError):
        transition_ops(matrices(trace)[2], [(2, 4)], {})


def test_transition_factorization_order_irrelevant():
    rng = random.Random(6)
    for _ in range(20):
        m = 8
        # two independent change-of-basis columns with their primary columns
        delta = [[0] * m for _ in range(m)]
        delta[0][2] = rng.randint(1, 3)   # primary (1,3)
        delta[0][3] = rng.randint(1, 3)   # cb      (1,4)
        delta[1][4] = rng.randint(1, 3)   # primary (2,5)
        delta[1][5] = rng.randint(1, 3)   # cb      (2,6)
        ops = transition_ops(freeze(delta), [(1, 4), (2, 6)], {1: 3, 2: 5})
        t = ops_product(m, ops)
        assert ops_product(m, ops[::-1]) == t
        f1 = identity(m)
        f1[2][3] = t[2][3]
        f2 = identity(m)
        f2[4][5] = t[4][5]
        assert mat_mul(f1, f2) == t
        assert mat_mul(f2, f1) == t


def test_accumulated_equals_incremental(small_corpus):
    for cm in small_corpus:
        ta = sweep_accumulated(cm)
        ti = sweep_incremental(cm)
        assert marks_of(ta) == marks_of(ti)
        assert ta.rows == ti.rows


def test_blockwise_update_lemma(small_corpus):
    for cm in small_corpus[:20]:
        trace = sweep_incremental(cm)
        ts, mats = transitions(trace), matrices(trace)
        for r in range(1, len(mats) - 1):
            t = ts[r]
            prev = thaw(mats[r])
            cur = thaw(mats[r + 1])
            for k in range(1, cm.b + 1):
                rows = sorted(cm.partition[k - 1])
                cols = sorted(cm.partition[k])
                if not rows or not cols:
                    continue
                t_rr = [[t[a - 1][b - 1] for b in rows] for a in rows]
                t_cc = [[t[a - 1][b - 1] for b in cols] for a in cols]
                block_prev = [[prev[a - 1][b - 1] for b in cols] for a in rows]
                block_cur = [[cur[a - 1][b - 1] for b in cols] for a in rows]
                lhs = mat_mul(mat_mul(invert_upper(t_rr), block_prev), t_cc)
                assert lhs == block_cur


def test_invariant_suites(small_corpus):
    for cm in small_corpus[:20]:
        for trace in (sweep_incremental(cm), sweep_accumulated(cm)):
            for name, ok, detail in verify_trace(trace):
                assert ok, (trace.algorithm, name, detail)


def test_accumulated_bases_are_products_of_incremental_transitions(small_corpus):
    """The accumulated run keeps the incremental op lists, and its running
    bases, read through linalg.products, are P^r = T^0 T^1 ... T^r of the
    incremental transitions multiplied out densely."""
    for cm in small_corpus:
        ts = transitions(sweep_incremental(cm))
        trace = sweep_accumulated(cm)
        assert trace.ops == sweep_incremental(cm).ops
        bases = [[[(i == j) + n[i].get(j, 0) for j in range(cm.m)] for i in range(cm.m)]
                 for n, _ in products(cm.m, trace.ops, trace.running)]
        assert len(bases) == len(ts)
        for p, product in zip(bases, accumulate(ts, mat_mul)):
            assert p == product


def test_integral_unit_leading_basis_on_unit_pivot_inputs(small_corpus):
    for cm in small_corpus:
        trace = sweep_accumulated(cm)
        pivots = [mk.value for mk in trace.registry.marks if mk.kind == PRIMARY]
        if not all(v in (1, -1) for v in pivots):
            continue
        if any(isinstance(v, Fraction) for v in cm.entries.values()):
            continue
        for p in running_bases(trace):
            for j in range(cm.m):
                assert p[j][j] == 1
                assert not any(isinstance(p[i][j], Fraction) for i in range(cm.m))


def test_z_marks_match_field_marks_when_pivots_unit(small_corpus):
    for cm in small_corpus:
        ti = sweep_incremental(cm)
        pivots = [mk.value for mk in ti.registry.marks if mk.kind == PRIMARY]
        if not all(v in (1, -1) for v in pivots):
            continue
        if any(isinstance(v, Fraction) for v in cm.entries.values()):
            continue
        tz = sweep_over_z(cm)
        assert marks_of(tz) == marks_of(ti)
