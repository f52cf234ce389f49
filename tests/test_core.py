from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep import (CHANGE_OF_BASIS, ConnectionMatrix, RandomSpec,
                       allowable_pattern, random_connection_matrix, sweep_over_z,
                       validate)
from connsweep.core import pattern_test
from connsweep.fixtures import (FIX_CB, FIX_FIG3L, FIX_FIG3R, FIX_SPHERE,
                                FIX_TUCB, FIX_ZERO)
from reference import dense_of, kernel_problems, mat_mul


def test_fixtures_are_valid():
    for cm in (FIX_ZERO, FIX_SPHERE, FIX_TUCB, FIX_CB, FIX_FIG3L, FIX_FIG3R):
        assert validate(cm) == []


def test_zero_values_are_dropped():
    cm = ConnectionMatrix(3, [{1}, {2}, {3}], {(1, 2): 0, (2, 3): Fraction(2, 2)})
    assert cm.entries == {(2, 3): 1}
    assert (1, 2) not in cm.entries


def test_allowable_pattern_counts():
    assert len(allowable_pattern(FIX_FIG3L.partition, 12)) == 29
    assert len(allowable_pattern(FIX_FIG3R.partition, 12)) == 17
    assert allowable_pattern(FIX_ZERO.partition, 3) == frozenset({(1, 2), (2, 3)})


def test_grouped_pattern_size_is_product_sum(small_corpus):
    for cm in small_corpus:
        sizes = [len(p) for p in cm.partition]
        expected = sum(sizes[k - 1] * sizes[k] for k in range(1, len(sizes)))
        pattern = allowable_pattern(cm.partition, cm.m)
        if all(max(p, default=0) < min(q, default=cm.m + 1)
               for p, q in zip(cm.partition, cm.partition[1:])):
            # grouped: every block position is strictly above the diagonal
            assert len(pattern) == expected
        else:
            assert len(pattern) <= expected


def test_validate_reports_pattern_membership():
    ok = FIX_SPHERE.with_entries(dict(FIX_SPHERE.entries) | {(3, 4): 1})
    assert validate(ok) == []
    bad = FIX_SPHERE.with_entries(dict(FIX_SPHERE.entries) | {(1, 4): 1})
    violations = validate(bad)
    assert len(violations) == 1
    assert violations[0].invariant == "pattern"
    assert violations[0].position == (1, 4)


@st.composite
def partitions(draw):
    """m and J_0..J_b, valid or not: groups may repeat an index, leave one
    out, or hold one outside 1..m."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        groups = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        parts = [{i for i, k in enumerate(groups, start=1) if k == g}
                 for g in range(max(groups) + 1)]
    else:
        parts = draw(st.lists(st.sets(st.integers(-1, m + 2), max_size=m),
                              min_size=1, max_size=5))
    return m, parts


@settings(max_examples=300, deadline=None)
@given(partitions(), st.dictionaries(
    st.tuples(st.integers(-1, 10), st.integers(-1, 10)),
    st.integers(1, 3), max_size=12))
def test_pattern_test_agrees_with_allowable_pattern(case, entries):
    m, parts = case
    pattern = allowable_pattern(parts, m)
    allowed = pattern_test(parts, m)
    span = range(-1, m + 3)
    assert {(i, j) for i in span for j in span if allowed(i, j)} == pattern
    cm = ConnectionMatrix(m, parts, entries)
    reported = {v.position for v in validate(cm) if v.invariant == "pattern"}
    assert reported == {(i, j) for (i, j) in entries
                        if 1 <= i < j <= m and (i, j) not in pattern}


def test_validate_reports_triangularity_and_partition():
    cm = ConnectionMatrix(3, [{1}, {2}, {3}], {})
    low = ConnectionMatrix(3, [{1}, {2}, {3}], {(3, 2): 1})
    kinds = {v.invariant for v in validate(low)}
    assert "triangularity" in kinds
    gap = ConnectionMatrix(3, [{1}, {2}], {})
    kinds = {v.invariant for v in validate(gap)}
    assert "partition" in kinds
    dup = ConnectionMatrix(3, [{1, 2}, {2}, {3}], {})
    assert any("both" in v.message for v in validate(dup))


def test_nilpotency_power(small_corpus):
    for cm in small_corpus:
        if cm.m > 12:
            continue
        dense = dense_of(cm)
        power = dense
        for _ in range(cm.m - 1):
            power = mat_mul(power, dense)
        assert all(not v for row in power for v in row)


def test_chain_index_lookup():
    assert FIX_FIG3R.chain_index(7) == 0
    assert FIX_FIG3R.chain_index(12) == 1
    assert FIX_FIG3R.chain_index(5) == 3


@st.composite
def rational_inputs(draw):
    """Random boundary matrices, b 1-4, grouped or scattered, with some rows
    divided by 2 or 3 so that Fraction entries occur."""
    m = draw(st.integers(2, 16))
    cm = random_connection_matrix(RandomSpec(
        seed=draw(st.integers(0, 10 ** 6)), m=m, b=draw(st.integers(1, min(4, m - 1))),
        style=draw(st.sampled_from(("grouped", "scattered"))),
        density=draw(st.floats(0.2, 0.9)), values=tuple(range(-3, 4))))
    divided = draw(st.sets(st.integers(1, m)))
    d = draw(st.sampled_from((2, 3)))
    return cm.with_entries({(i, j): Fraction(v, d) if i in divided else v
                            for (i, j), v in cm.entries.items()})


@settings(max_examples=150, deadline=None)
@given(rational_inputs())
def test_block_view_and_kernel_cut_match_cell_by_cell_reads(cm):
    """block(k) is J_{k-1} x J_k read cell by cell from the entries, and
    kernel_problem(i, j) is reference.kernel_problems' problem of each
    change-of-basis mark of the z trace, on the columns of j's group up
    to j."""
    for k in range(1, cm.b + 1):
        rows, cols = sorted(cm.partition[k - 1]), sorted(cm.partition[k])
        assert cm.block(k) == (tuple(rows), tuple(cols), tuple(
            tuple(cm.entries.get((i, j), 0) for j in cols) for i in rows))
    trace = sweep_over_z(cm)
    marks = [mk.position for mk in trace.registry.marks if mk.kind == CHANGE_OF_BASIS]
    cuts = [cm.kernel_problem(i, j) for i, j in marks]
    assert [problem for _, problem in cuts] == kernel_problems(trace)
    assert [cols for cols, _ in cuts] == [
        tuple(sorted(col for col in cm.partition[cm.chain_index(j)] if col <= j))
        for _, j in marks]
