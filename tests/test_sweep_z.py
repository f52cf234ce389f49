import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError,
                       InvalidMatrixError, KernelProblem, ConnectionMatrix, RandomSpec,
                       marks_on_diagonal, random_connection_matrix, solve_min_leading,
                       sweep_over_z, sweep_z)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_ZERO
from connsweep.linalg import clear_denominators, exact_div, kernel_chain
from connsweep.oracles import ilp_brute_force
from connsweep.verify import verify_trace
import reference
from reference import (is_identity, kernel_problems, mat_mul, matrices, running_bases,
                       solve_upper_dense, thaw)


def marks_of(trace):
    return [(mk.position, mk.kind, mk.diagonal, mk.value)
            for mk in trace.registry.marks]


def test_zero_matrix():
    trace = sweep_over_z(FIX_ZERO)
    assert marks_of(trace) == []
    assert not any(trace.rows)
    assert all(is_identity(p) for p in running_bases(trace))
    assert len(trace.rows) == 4 and len(trace.ops) == 3


def test_sphere_trace():
    trace = sweep_over_z(FIX_SPHERE)
    assert marks_of(trace) == [((2, 3), PRIMARY, 1, -1)]
    assert trace.final == matrices(trace)[0]


def test_cb_trace():
    trace = sweep_over_z(FIX_CB)
    assert marks_of(trace) == [((2, 3), PRIMARY, 1, -2),
                               ((2, 4), CHANGE_OF_BASIS, 2, -3)]
    [problem] = kernel_problems(trace)
    assert problem.a == ((-2, -3),) and problem.c == 2
    assert solve_min_leading(problem) == (-3, 2)
    final = trace.final
    nonzero = {(i + 1, j + 1): v for i, row in enumerate(final)
               for j, v in enumerate(row) if v}
    assert nonzero == {(1, 3): 2, (2, 3): -2}


@pytest.mark.parametrize("a, c, expected", [
    (((-2, -3),), 2, (-3, 2)),
    (((1, -1),), 2, (1, 1)),
    (((1, 0, 2), (0, 1, -1)), 3, (-2, 1, 1)),
])
def test_solve_min_leading_examples(a, c, expected):
    assert solve_min_leading(KernelProblem(a, c)) == expected


def test_solve_min_leading_properties(small_corpus):
    for cm in small_corpus:
        trace = sweep_over_z(cm)
        for problem in kernel_problems(trace):
            x = solve_min_leading(problem)
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in problem.a)
            assert x[-1] >= 1
            if problem.c <= 5:
                witness = ilp_brute_force(problem, 6)
                if witness is not None:
                    assert witness.min_leading % x[-1] == 0
                    assert x[-1] <= witness.min_leading


@st.composite
def small_kernel_problems(draw):
    """1-5 rows by 1-7 columns of ints and fractions with denominator <= 3."""
    c = draw(st.integers(1, 7))
    value = st.builds(exact_div, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    row = st.lists(value, min_size=c, max_size=c)
    return KernelProblem(draw(st.lists(row, min_size=1, max_size=5)), c)


def _solved(solve, problem):
    try:
        return solve(problem)
    except AlgorithmError:
        return "infeasible"


@settings(max_examples=400, deadline=None)
@given(small_kernel_problems())
def test_solve_min_leading_matches_reference(problem):
    """The kernel-chain solver returns what the gcd-scan solver returns,
    vector for vector, and is infeasible exactly where it is."""
    assert _solved(solve_min_leading, problem) == \
        _solved(reference.solve_min_leading, problem)


def _recorded_chains(monkeypatch, matrix):
    """The z trace of matrix and the (rows, n, chain) of each kernel_chain
    its sweep builds."""
    calls = []
    real = sweep_z.kernel_chain

    def recording(rows, n):
        chain = real(rows, n)
        calls.append((rows, n, chain))
        return chain

    monkeypatch.setattr(sweep_z, "kernel_chain", recording)
    return sweep_over_z(matrix), calls


def test_sweep_builds_one_chain_per_group(monkeypatch):
    """Seven change-of-basis marks in three chain groups of a b=3 input take
    three kernel chains, one per group's block, with every row of it."""
    cm = random_connection_matrix(RandomSpec(
        seed=10, m=20, b=3, density=0.7, values=tuple(range(-3, 4))))
    trace, calls = _recorded_chains(monkeypatch, cm)
    groups = [cm.chain_index(mk.position[1]) for mk in trace.registry.marks
              if mk.kind == CHANGE_OF_BASIS]
    assert len(groups) == 7 and len(set(groups)) == 3
    assert sorted((len(rows), n) for rows, n, _ in calls) == sorted(
        (len(cm.block(k)[0]), len(cm.block(k)[1])) for k in set(groups))


def test_chain_entries_stay_small_on_a_dense_input(monkeypatch):
    """Size reduction keeps every entry of every chain basis on a dense
    b=1 m=80 input under 256 bits (about 106 are needed; an echelon of the
    whole block problem reached 249 245)."""
    cm = random_connection_matrix(RandomSpec(
        seed=7, m=80, b=1, density=0.6, values=tuple(range(-3, 4))))
    _, calls = _recorded_chains(monkeypatch, cm)
    assert len(calls) == 1
    bits = max(abs(v).bit_length() for _, _, chain in calls for basis in chain
               for e in basis.values() for v in e)
    assert bits < 256


@settings(max_examples=300, deadline=None)
@given(small_kernel_problems())
def test_integer_kernel_basis_is_in_echelon_form(problem):
    """Every level of the kernel chain comes back in echelon's own form, so
    the lookup needs no echelon pass: echelon leaves each level as it is."""
    for level in kernel_chain(clear_denominators(problem.a), problem.c):
        assert reference.echelon(list(level.values())) == level


def test_solve_min_leading_infeasible():
    with pytest.raises(AlgorithmError):
        solve_min_leading(KernelProblem(((1,),), 1))


def test_marks_on_diagonal():
    sphere = sweep_over_z(FIX_SPHERE)
    assert marks_on_diagonal(sphere, 1) == [((2, 3), PRIMARY)]
    assert marks_on_diagonal(sphere, 2) == []
    cb = sweep_over_z(FIX_CB)
    assert marks_on_diagonal(cb, 2) == [((2, 4), CHANGE_OF_BASIS)]
    from connsweep import PreconditionError
    with pytest.raises(PreconditionError):
        marks_on_diagonal(sphere, 4)


def test_basis_is_accumulated_change_of_basis():
    """P^r differs from P^{r-1} only in the columns of diagonal r's
    change-of-basis marks."""
    trace = sweep_over_z(FIX_CB)
    basis = running_bases(trace)
    for r in range(1, len(basis)):
        cols = {j for j, (a, b) in enumerate(zip(zip(*basis[r - 1]), zip(*basis[r])),
                                             start=1) if a != b}
        assert cols == {mk.position[1] for mk in trace.registry.on_diagonal(r)
                        if mk.kind == CHANGE_OF_BASIS}
    # column 4 of the final basis is the minimization solution on rows 3, 4
    assert [basis[-1][i][3] for i in range(4)] == [0, 0, -3, 2]


def test_rejects_invalid_matrix():
    bad = ConnectionMatrix(3, [{1}, {2}, {3}], {(1, 3): 1})
    with pytest.raises(InvalidMatrixError):
        sweep_over_z(bad)


def test_invariant_suite_on_random(small_corpus):
    for cm in small_corpus[:25]:
        for name, ok, detail in verify_trace(sweep_over_z(cm)):
            assert ok, (name, detail)


# Diagonal 4 holds two change-of-basis pivots of one chain group, (3, 7)
# and (4, 8), whose basis changes multiply out right only in decreasing
# column order.
TWO_CB_ONE_GROUP = ConnectionMatrix(8, [{1, 2, 3, 4}, {5, 6, 7, 8}], {
    (1, 6): 2, (2, 6): 1, (2, 7): -1, (3, 5): -3, (3, 6): 1, (3, 7): 3,
    (4, 6): -2, (4, 7): -3, (4, 8): -1})


def test_similarity_exact(small_corpus):
    for cm in small_corpus[:10] + [TWO_CB_ONE_GROUP]:
        trace = sweep_over_z(cm)
        mats = matrices(trace)
        delta0 = thaw(mats[0])
        bases = running_bases(trace)
        for r in range(1, len(mats)):
            p = bases[r - 1]
            assert mat_mul(p, thaw(mats[r])) == mat_mul(delta0, p)


def test_solve_upper_matches_dense_back_substitution(small_corpus, monkeypatch):
    """Each solve against P^{r-1}, held as P^{r-1} - I, starts at x's last
    nonzero and reads only where the solution is nonzero, yet equals the
    back-substitution over every row of the dense P^{r-1}, int and
    Fraction types included."""
    calls = []
    solve = sweep_z.solve_upper

    def recording(n, b):
        x = solve(n, b)
        m = len(b)
        calls.append(([[(i == j) + n[i].get(j, 0) for j in range(m)] for i in range(m)],
                      b, x))
        return x

    monkeypatch.setattr(sweep_z, "solve_upper", recording)
    for cm in small_corpus + [TWO_CB_ONE_GROUP]:
        sweep_over_z(cm)
    assert any(isinstance(v, Fraction) for _, _, x in calls for v in x)
    for u, b, x in calls:
        expected = solve_upper_dense(u, b)
        assert x == expected
        assert list(map(type, x)) == list(map(type, expected))


def test_kernel_minimality_counts_the_problems_it_skips():
    """(1, 5) gives a kernel problem on columns 3..5, cross-checked by box
    enumeration; (2, 9) one on columns 3..9, c = 7, whose box is past
    ILP_MAX_BOX, so it is skipped, and the detail says so."""
    cm = ConnectionMatrix(10, [{1, 2}, set(range(3, 11))],
                          {(1, 4): 1, (1, 5): 2, (2, 3): 1, (2, 9): 1})
    trace = sweep_over_z(cm)
    assert sorted(p.c for p in kernel_problems(trace)) == [3, 7]
    checks = {name: (ok, detail) for name, ok, detail in verify_trace(trace)}
    assert checks["kernel_leading_minimality"] == (
        True, "1 instances cross-checked, 1 skipped (box past ILP_MAX_BOX)")
