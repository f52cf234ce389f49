from fractions import Fraction

from connsweep import (ConnectionMatrix, allowable_pattern, validate)
from connsweep.fixtures import (FIX_CB, FIX_FIG3L, FIX_FIG3R, FIX_SPHERE,
                                FIX_TUCB, FIX_ZERO)
from connsweep.linalg import thaw
from reference import mat_mul


def test_fixtures_are_valid():
    for cm in (FIX_ZERO, FIX_SPHERE, FIX_TUCB, FIX_CB, FIX_FIG3L, FIX_FIG3R):
        assert validate(cm) == []


def test_zero_values_are_dropped():
    cm = ConnectionMatrix(3, [{1}, {2}, {3}], {(1, 2): 0, (2, 3): Fraction(2, 2)})
    assert cm.entries == {(2, 3): 1}
    assert cm.entry(1, 2) == 0


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
        dense = thaw(cm.to_dense())
        power = dense
        for _ in range(cm.m - 1):
            power = mat_mul(power, dense)
        assert all(not v for row in power for v in row)


def test_chain_index_lookup():
    assert FIX_FIG3R.chain_index(7) == 0
    assert FIX_FIG3R.chain_index(12) == 1
    assert FIX_FIG3R.chain_index(5) == 3
