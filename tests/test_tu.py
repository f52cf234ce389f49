import random
from itertools import combinations, product

import pytest

from connsweep import (ConnectionMatrix, PreconditionError, SizeGuardError,
                       SurfaceProfile, SurfaceRejection, betti_over_q,
                       generate_surface_matrix, is_surface_connection_matrix,
                       is_totally_unimodular, sample_non_tu_witness,
                       sweep_incremental, validate)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_TUCB, FIX_ZERO
from connsweep.linalg import bareiss_det
from connsweep.tu import _dense_is_tu
from reference import dense_of, mat_mul


def naive_dense_tu(rows):
    """Independent oracle: every square submatrix determinant via Bareiss."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    for k in range(1, min(nr, nc) + 1):
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                if bareiss_det(sub) not in (-1, 0, 1):
                    return False
    return True


def test_examples():
    assert is_totally_unimodular(FIX_TUCB) is True
    assert is_totally_unimodular(FIX_CB) is False
    assert is_totally_unimodular(FIX_ZERO) is True


def test_size_guard():
    cm = ConnectionMatrix(20, [set(range(1, 11)), set(range(11, 21))], {})
    with pytest.raises(SizeGuardError):
        is_totally_unimodular(cm)
    assert is_totally_unimodular(cm, size_guard=20) is True


def test_matches_whole_matrix_scan(small_corpus):
    checked = 0
    for cm in small_corpus:
        if cm.m > 7:
            continue
        mine = None
        try:
            mine = is_totally_unimodular(cm)
        except SizeGuardError:
            continue
        assert mine == naive_dense_tu(dense_of(cm))
        checked += 1
    assert checked >= 5


def test_dense_checker_invariance_properties():
    rng = random.Random(12)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(nc)] for _ in range(nr)]
        verdict = _dense_is_tu(rows)
        assert verdict == naive_dense_tu(rows)
        transposed = [list(col) for col in zip(*rows)]
        assert _dense_is_tu(transposed) == verdict
        flipped = [[-v for v in row] for row in rows]
        assert _dense_is_tu(flipped) == verdict
        scaled = [row[:] for row in rows]
        i = rng.randrange(nr)
        scaled[i] = [-v for v in scaled[i]]
        assert _dense_is_tu(scaled) == verdict


def test_sampled_falsifier():
    big = ConnectionMatrix(
        20, [set(range(1, 11)), set(range(11, 21))], {(1, 11): 2})
    witness = sample_non_tu_witness(big)
    assert witness is not None and witness.det == 2
    ok = ConnectionMatrix(
        20, [set(range(1, 11)), set(range(11, 21))],
        {(i, i + 10): 1 for i in range(1, 11)})
    assert sample_non_tu_witness(ok, samples=300) is None


def test_surface_sphere_accepted_without_flips():
    profile = is_surface_connection_matrix(FIX_SPHERE)
    assert isinstance(profile, SurfaceProfile)
    assert (profile.wells, profile.saddles, profile.sources) == (2, 1, 1)
    assert profile.row_flips == frozenset() and profile.col_flips == frozenset()


def test_surface_negated_column_needs_one_flip():
    negated = FIX_SPHERE.with_entries({(1, 3): -1, (2, 3): 1})
    profile = is_surface_connection_matrix(negated)
    assert isinstance(profile, SurfaceProfile)
    assert profile.col_flips == frozenset({3})
    assert profile.row_flips == frozenset()


def test_surface_rejects_value_outside_unit():
    padded = ConnectionMatrix(4, [{1, 2}, {3, 4}, set()], FIX_CB.entries)
    rejection = is_surface_connection_matrix(padded)
    assert isinstance(rejection, SurfaceRejection)
    assert rejection.prop == "i"


def test_surface_rejects_unfixable_signs():
    # columns (1,-1) and (1,1) on the same two wells conflict under every
    # flip assignment; cross-checked by exhausting all assignments
    cm = ConnectionMatrix(4, [{1, 2}, {3, 4}, set()],
                          {(1, 3): 1, (2, 3): -1, (1, 4): 1, (2, 4): 1})
    rejection = is_surface_connection_matrix(cm)
    assert isinstance(rejection, SurfaceRejection)
    assert rejection.prop == "iii"
    for flips in product((1, -1), repeat=4):
        flipped = {(i, j): flips[i - 1] * v * flips[j - 1]
                   for (i, j), v in cm.entries.items()}
        ok = all(sorted(col.values()) == [-1, 1] or not col
                 for col in ({p: v for (p, c), v in flipped.items() if c == j}
                             for j in (3, 4)))
        assert not ok


def test_surface_validator_agrees_with_exhaustive_flip_search():
    rng = random.Random(21)
    for _ in range(40):
        n0, n1, n2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)
        m = n0 + n1 + n2
        wells = list(range(1, n0 + 1))
        saddles = list(range(n0 + 1, n0 + n1 + 1))
        sources = list(range(n0 + n1 + 1, m + 1))
        entries = {}
        for w in wells:
            for s in saddles:
                v = rng.choice((0, 0, 1, -1))
                if v:
                    entries[(w, s)] = v
        for s in saddles:
            for o in sources:
                v = rng.choice((0, 0, 1, -1))
                if v:
                    entries[(s, o)] = v
        cm = ConnectionMatrix(m, [set(wells), set(saddles), set(sources)], entries)
        got = is_surface_connection_matrix(cm)

        def satisfies(flip_rows, flip_cols):
            val = {(i, j): (-v if i in flip_rows else v) * (-1 if j in flip_cols else 1)
                   for (i, j), v in entries.items()}
            for s in saddles:
                col = sorted(val.get((w, s), 0) for w in wells if val.get((w, s), 0))
                if col not in ([], [-1, 1]):
                    return False
                row = sorted(val.get((s, o), 0) for o in sources if val.get((s, o), 0))
                if row not in ([], [-1, 1]):
                    return False
            return True

        indices = list(range(1, m + 1))
        feasible = any(
            satisfies({i for i, f in zip(indices, fr) if f == -1},
                      {j for j, f in zip(indices, fc) if f == -1})
            for fr in product((1, -1), repeat=m)
            for fc in product((1, -1), repeat=m))
        assert isinstance(got, SurfaceProfile) == feasible
        if isinstance(got, SurfaceProfile):
            assert satisfies(got.row_flips, got.col_flips)


def test_surface_check_needs_three_subsets():
    with pytest.raises(PreconditionError):
        is_surface_connection_matrix(FIX_TUCB)


def test_generator_minimal_cases():
    zero = generate_surface_matrix(0, (1, 0, 1))
    assert zero.m == 2 and zero.entries == {}
    sphere = generate_surface_matrix(0, (2, 1, 1))
    assert sorted(sphere.entries.items()) == [((1, 3), 1), ((2, 3), -1)]


def test_generator_outputs_validate_and_are_tu():
    rng = random.Random(31)
    for seed in range(40):
        sizes = (rng.randint(1, 6), rng.randint(0, 6), rng.randint(1, 5))
        cm = generate_surface_matrix(seed, sizes,
                                     density=rng.uniform(0.2, 1.0),
                                     flips=rng.randint(0, 4))
        assert validate(cm) == []
        assert isinstance(is_surface_connection_matrix(cm), SurfaceProfile)
        dense = dense_of(cm)
        assert not any(v for row in mat_mul(dense, dense) for v in row)
        if cm.m <= 16:
            assert is_totally_unimodular(cm)


def test_generator_deterministic():
    a = generate_surface_matrix(7, (3, 4, 2), density=0.8, flips=2)
    b = generate_surface_matrix(7, (3, 4, 2), density=0.8, flips=2)
    assert a == b


def test_generated_surfaces_sweep_to_unit_pivots():
    for seed in range(15):
        cm = generate_surface_matrix(seed, (4, 5, 3), density=0.9)
        trace = sweep_incremental(cm)
        for mk in trace.registry.marks:
            if mk.kind == "primary":
                assert mk.value in (1, -1)


def test_betti_examples():
    assert betti_over_q(FIX_SPHERE) == (1, 0, 1)
    assert betti_over_q(FIX_ZERO) == (1, 1, 1)
    assert betti_over_q(FIX_TUCB) == (1, 1)
