"""Acceptance suite: every criterion at its stated corpus size and exact
tolerance, one printed pass line per criterion (run with -s to see them).

All corpora are deterministic. The heavy work happens once per corpus in
module-scoped fixtures; the per-criterion tests assert on the collected
failure lists, so a red criterion reports every offending instance.
"""

import random
from fractions import Fraction

import pytest

from connsweep import (CHANGE_OF_BASIS, PRIMARY, RandomSpec,
                       allowable_pattern, betti_over_q,
                       block_sequential_row_cancellation,
                       block_sequential_sweep, generate_surface_matrix,
                       ilp_brute_force, is_totally_unimodular,
                       pivot_rank_oracle, random_connection_matrix,
                       reduce_complex, revised_one_block, row_cancellation,
                       sweep_accumulated, sweep_incremental, sweep_over_z)
from connsweep.fixtures import FIX_FIG3L, FIX_FIG3R
from connsweep.linalg import thaw
from connsweep.verify import verify_block_runs, verify_trace
from reference import (is_identity, kernel_problems, mat_eq, mat_mul, matrices,
                       running_bases, transitions)

SURFACE_COUNT = 500
TU_COUNT = 500
GENERAL_COUNT = 1000
UNCOUPLING_COUNT = 500
ONE_BLOCK_COUNT = 500
Z_SWEEP_COUNT = 200
ILP_BOUND = 10


def _surface_corpus():
    rng = random.Random(20240501)
    out = []
    while len(out) < SURFACE_COUNT:
        n0 = rng.randint(1, 9)
        n1 = rng.randint(0, 11)
        n2 = rng.randint(1, 8)
        if n0 + n1 + n2 > 24:
            continue
        out.append(generate_surface_matrix(
            len(out), (n0, n1, n2), density=rng.uniform(0.3, 1.0),
            flips=rng.randint(0, 6)))
    return out


def _tu_corpus():
    rng = random.Random(20240502)
    out = []
    seed = 0
    while len(out) < TU_COUNT:
        b = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 5) for _ in range(b + 1))
        seed += 1
        if sum(sizes) > 14:
            continue
        cm = random_connection_matrix(RandomSpec(
            seed=seed, m=sum(sizes), b=b,
            style=rng.choice(("grouped", "scattered")),
            density=rng.uniform(0.2, 0.8), values=(-1, 0, 1), sizes=sizes))
        if is_totally_unimodular(cm):
            out.append(cm)
    return out


def _general_corpus():
    rng = random.Random(20240503)
    out = []
    for k in range(GENERAL_COUNT):
        m = rng.randint(2, 20)
        b = rng.randint(1, min(4, m - 1)) if m > 1 else 0
        out.append(random_connection_matrix(RandomSpec(
            seed=k, m=m, b=max(b, 1) if m > 1 else 0,
            style=rng.choice(("grouped", "scattered")),
            density=rng.uniform(0.15, 0.9),
            values=tuple(range(-3, 4)))))
    return out


def _primary_set(trace):
    return {(mk.position, mk.value) for mk in trace.registry.marks
            if mk.kind == PRIMARY}


def _complementarity_holds(final):
    m = len(final)
    for j in range(m):
        if any(final[i][j] for i in range(m)) and any(final[j]):
            return False
    return True


@pytest.fixture(scope="module")
def tu_results():
    """AC1/AC2/AC11/AC12 over the surface + TU corpora."""
    failures = {"ac1": [], "ac2": [], "ac11": [], "ac12": []}
    corpus = [("surface", cm) for cm in _surface_corpus()]
    corpus += [("random-tu", cm) for cm in _tu_corpus()]
    for idx, (label, cm) in enumerate(corpus):
        tag = f"{label}#{idx}(m={cm.m})"
        tz = sweep_over_z(cm)
        tr = row_cancellation(cm)
        if _primary_set(tz) != _primary_set(tr):
            failures["ac1"].append(tag)
        for trace in (tz, tr):
            if any(v not in (1, -1) for (_, v) in _primary_set(trace)):
                failures["ac2"].append(tag)
                break
        for p in running_bases(sweep_accumulated(cm)):
            ok = all(p[j][j] == 1 for j in range(cm.m)) and not any(
                isinstance(v, Fraction) for row in p for v in row)
            if not ok:
                failures["ac11"].append(tag)
                break
        red = reduce_complex(tr)
        if red.steps[-1].entries:
            failures["ac12"].append(tag + " (final reduction not null)")
        else:
            base = betti_over_q(cm)
            for st in red.steps:
                if betti_over_q(st.as_connection_matrix(cm.partition)) != base:
                    failures["ac12"].append(tag + f" (betti changed at step {st.r})")
                    break
    failures["count"] = len(corpus)
    return failures


@pytest.fixture(scope="module")
def general_results():
    """AC3/AC4/AC6/AC7/AC9/AC13 over the general corpus."""
    failures = {key: [] for key in ("ac3", "ac4", "ac6", "ac7", "ac9", "ac13")}
    for idx, cm in enumerate(_general_corpus()):
        tag = f"general#{idx}(m={cm.m})"
        tz = sweep_over_z(cm)
        ta = sweep_accumulated(cm)
        ti = sweep_incremental(cm)
        tr = row_cancellation(cm)

        for trace in (tz, ti, tr):
            if not _complementarity_holds(trace.final):
                failures["ac3"].append(tag + f" ({trace.algorithm})")

        inc_by_diag = {}
        for mk in ti.registry.marks:
            if mk.kind == PRIMARY:
                inc_by_diag.setdefault(mk.diagonal, set()).add(
                    (mk.position, mk.value))
        rc_by_diag = {}
        for mk in tr.registry.marks:
            rc_by_diag.setdefault(mk.diagonal, set()).add((mk.position, mk.value))
        if inc_by_diag != rc_by_diag:
            failures["ac6"].append(tag)

        for trace in (tz, ta):
            mats = matrices(trace)
            delta0 = thaw(mats[0])
            bases = running_bases(trace)
            for r in range(1, len(mats)):
                p = bases[r - 1]
                if not mat_eq(mat_mul(p, thaw(mats[r])),
                              mat_mul(delta0, p)):
                    failures["ac7"].append(tag + f" ({trace.algorithm} r={r})")
                    break
        mats = matrices(ti)
        for r, t in enumerate(transitions(ti)):
            if is_identity(t):
                if mats[r + 1] != mats[r]:
                    failures["ac7"].append(tag + f" (incremental r={r})")
                    break
                continue
            if not mat_eq(mat_mul(t, thaw(mats[r + 1])),
                          mat_mul(thaw(mats[r]), t)):
                failures["ac7"].append(tag + f" (incremental r={r})")
                break

        oracle = pivot_rank_oracle(cm)
        for trace in (tz, ti, tr):
            if trace.registry.primary_positions() != oracle:
                failures["ac9"].append(tag + f" ({trace.algorithm})")

        for name, ok, detail in verify_trace(tr):
            if not ok:
                failures["ac13"].append(tag + f" ({name}: {detail})")

        if idx < UNCOUPLING_COUNT:
            for block, full in ((block_sequential_sweep(cm), ti),
                                (block_sequential_row_cancellation(cm), tr)):
                for name, ok, detail in verify_block_runs(block.runs, cm, full):
                    if not ok:
                        failures["ac4"].append(tag + f" ({name})")
    return failures


def test_ac1_pivot_equality(tu_results):
    assert not tu_results["ac1"], tu_results["ac1"][:5]
    print(f"AC1 PASS: integer-sweep and row-cancellation pivots equal in "
          f"position and value on {tu_results['count']} matrices")


def test_ac2_unit_pivots(tu_results):
    assert not tu_results["ac2"], tu_results["ac2"][:5]
    print(f"AC2 PASS: every primary pivot is +1 or -1 on "
          f"{tu_results['count']} matrices")


def test_ac3_complementarity(general_results):
    assert not general_results["ac3"], general_results["ac3"][:5]
    print(f"AC3 PASS: column/row complementarity of all three final matrices "
          f"on {GENERAL_COUNT} matrices")


def test_ac4_uncoupling(general_results):
    assert not general_results["ac4"], general_results["ac4"][:5]
    print(f"AC4 PASS: blockwise finals and marks match the full runs on "
          f"{UNCOUPLING_COUNT} matrices")


def test_ac5_revised_equivalence():
    rng = random.Random(20240505)
    failures = []
    for k in range(ONE_BLOCK_COUNT):
        m = rng.randint(2, 20)
        cm = random_connection_matrix(RandomSpec(
            seed=k, m=m, b=1, style=rng.choice(("grouped", "scattered")),
            density=rng.uniform(0.1, 0.9), values=tuple(range(-3, 4))))
        rv = revised_one_block(cm)
        ti = sweep_incremental(cm)
        if rv.final != ti.final or _primary_set(rv) != _primary_set(ti):
            failures.append(f"oneblock#{k}(m={m})")
    assert not failures, failures[:5]
    print(f"AC5 PASS: revised one-block equals the incremental sweep on "
          f"{ONE_BLOCK_COUNT} one-block matrices")


def test_ac6_per_diagonal_pivots(general_results):
    assert not general_results["ac6"], general_results["ac6"][:5]
    print(f"AC6 PASS: per-diagonal pivots of incremental sweep and row "
          f"cancellation coincide on {GENERAL_COUNT} matrices")


def test_ac7_similarity(general_results):
    assert not general_results["ac7"], general_results["ac7"][:5]
    print(f"AC7 PASS: similarity recomputed exactly at every iteration on "
          f"{GENERAL_COUNT} matrices")


def test_ac8_ilp_optimality():
    rng = random.Random(20240508)
    failures = []
    instances = 0
    sweeps = 0
    seed = 0
    while sweeps < Z_SWEEP_COUNT:
        b = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 6) for _ in range(b + 1))
        seed += 1
        cm = random_connection_matrix(RandomSpec(
            seed=seed, m=sum(sizes), b=b,
            style=rng.choice(("grouped", "scattered")),
            density=rng.uniform(0.4, 0.9), values=tuple(range(-3, 4)),
            sizes=sizes))
        trace = sweep_over_z(cm)
        sweeps += 1
        # each problem belongs to one change-of-basis mark (i, j), in order;
        # the stored leading coefficient is entry (j, j) of its running basis
        cb_marks = [mk for mk in trace.registry.marks
                    if mk.kind == CHANGE_OF_BASIS]
        bases = running_bases(trace)
        for problem, mk in zip(kernel_problems(trace), cb_marks):
            witness = ilp_brute_force(problem, ILP_BOUND)
            if witness is None:
                continue
            instances += 1
            j = mk.position[1]
            if bases[mk.diagonal][j - 1][j - 1] != witness.min_leading:
                failures.append(f"sweep#{seed}: {problem.a}")
    assert instances > 50, "corpus produced too few change-of-basis instances"
    assert not failures, failures[:5]
    print(f"AC8 PASS: minimal leading coefficients match the box enumeration "
          f"on {instances} instances from {Z_SWEEP_COUNT} integer sweeps")


def test_ac9_oracle_pivots(general_results):
    assert not general_results["ac9"], general_results["ac9"][:5]
    print(f"AC9 PASS: rank-jump oracle equals the algorithms' pivots on "
          f"{GENERAL_COUNT} matrices")


def test_ac10_pattern_counts():
    assert len(allowable_pattern(FIX_FIG3L.partition, 12)) == 29
    assert len(allowable_pattern(FIX_FIG3R.partition, 12)) == 17
    print("AC10 PASS: allowable pattern sizes are 29 (grouped) and 17 "
          "(scattered)")


def test_ac11_leading_coefficients(tu_results):
    assert not tu_results["ac11"], tu_results["ac11"][:5]
    print(f"AC11 PASS: basis expansions are integral with unit leading "
          f"coefficient on {tu_results['count']} matrices")


def test_ac12_reduction_nullity_and_homology(tu_results):
    assert not tu_results["ac12"], tu_results["ac12"][:5]
    print(f"AC12 PASS: reductions end null and preserve Betti numbers at "
          f"every step on {tu_results['count']} matrices")


def test_ac13_row_cancellation_invariants(general_results):
    assert not general_results["ac13"], general_results["ac13"][:5]
    print(f"AC13 PASS: row-cancellation structural invariants hold at every "
          f"iteration on {GENERAL_COUNT} matrices")
