"""The verification suites must actually catch broken traces, not just
bless good ones; doctor finished traces and watch the right check fail."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from connsweep import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError, ConnectionMatrix,
                       MarkRegistry, RandomSpec, block_sequential_sweep, cli,
                       random_connection_matrix, revised_one_block,
                       row_cancellation, sweep_accumulated, sweep_incremental,
                       sweep_over_z, sweep_z, verify)
from connsweep.cmx import serialize_cmx
from connsweep.fixtures import FIX_CB, FIX_SPHERE
from connsweep.linalg import norm, thaw
from connsweep.verify import verify_trace
import reference
from reference import (dense_check_verdicts, matrices, pivot_zeroed_verdicts,
                       revised_column_verdicts, similarity_holds, with_matrices)

RUNNERS = {"z": sweep_over_z, "accumulated": sweep_accumulated,
           "incremental": sweep_incremental, "rowcancel": row_cancellation,
           "revised1": revised_one_block, "block": block_sequential_sweep}


# The dense readings count a failure once in every matrix it persists in;
# verify counts it once, where it first fails. For these checks only the
# first failure is compared; for the rest the count is compared too.
COUNTED_PER_MATRIX = {"pattern_compliance", "pattern_compliance_product",
                      "below_diagonal_pivot_structure", "active_block_zeroed"}


def comparable(name, verdict):
    ok, detail = verdict
    return (ok, detail.rsplit(" (", 1)[0]) if name in COUNTED_PER_MATRIX else verdict


def failing(checks):
    return {name for name, ok, _ in checks if not ok}


def doctor_final(trace, i, j, value):
    mats = list(matrices(trace))
    last = thaw(mats[-1])
    last[i - 1][j - 1] = value
    mats[-1] = last
    return with_matrices(trace, mats)


def doctor_op(trace, r, op, k=None):
    """trace with op k of op list r replaced by op, or op appended to the
    list when k is None."""
    seq = list(trace.ops)
    ops = list(seq[r])
    if k is None:
        ops.append(op)
    else:
        ops[k] = op
    seq[r] = tuple(ops)
    return dataclasses.replace(trace, ops=tuple(seq))


def test_all_green_on_good_traces():
    for trace in (sweep_over_z(FIX_CB), sweep_incremental(FIX_CB),
                  row_cancellation(FIX_CB)):
        assert failing(verify_trace(trace)) == set()


def test_pattern_violation_detected():
    bad = doctor_final(sweep_incremental(FIX_SPHERE), 1, 4, 1)
    names = failing(verify_trace(bad))
    assert "pattern_compliance" in names


def test_fail_line_counts_the_instances(tmp_path, monkeypatch):
    """Two entries doctored outside the pattern: the detail, and the FAIL
    line of verify.txt, give the first and count both."""
    bad = doctor_final(doctor_final(sweep_incremental(FIX_SPHERE), 1, 4, 1), 2, 4, 1)
    first = "matrix 4 has a nonzero at (1, 4) outside the pattern"
    got = {name: (ok, detail) for name, ok, detail in verify_trace(bad)}
    assert got["pattern_compliance"] == (False, f"{first} (2 instances failed)")
    source = tmp_path / "sphere.cmx"
    source.write_text(serialize_cmx(FIX_SPHERE), encoding="utf-8")
    monkeypatch.setitem(cli._RUNNERS, "incremental", lambda matrix: bad)
    assert cli.main(["run", "-a", "incremental", "--verify", "-o", str(tmp_path),
                     str(source)]) == cli.EXIT_VERIFY
    lines = (tmp_path / "verify.txt").read_text(encoding="utf-8").splitlines()
    assert f"FAIL pattern_compliance: {first} (2 instances failed)" in lines
    assert "PASS input_valid" in lines


def test_similarity_violation_detected():
    bad = doctor_final(sweep_incremental(FIX_CB), 1, 3, 7)
    assert "similarity" in failing(verify_trace(bad))


def test_complementarity_violation_detected():
    trace = row_cancellation(FIX_SPHERE)
    bad = doctor_final(trace, 3, 4, 1)
    names = failing(verify_trace(bad))
    assert "final_complementarity" in names
    assert "pivot_row_zeroed" in names  # the final matrix is checked too


def test_dead_pivot_detected():
    trace = row_cancellation(FIX_CB)
    bad = doctor_final(trace, 2, 3, 0)
    names = failing(verify_trace(bad))
    assert "below_diagonal_pivot_structure" in names


def test_verify_imports_no_sweep_module():
    """The checks share no code with the sweeps they check."""
    names = set()
    for node in ast.walk(ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)  # from . import sweep_z
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert names.isdisjoint({"sweep_f", "sweep_z", "row_cancel", "block_seq"})


def test_stored_non_minimal_leading_fails_kernel_check(monkeypatch):
    """A solver that returns twice the minimal vector still yields a kernel
    vector, so only the check reading the stored combination sees it."""
    solve = sweep_z.solve_min_leading
    monkeypatch.setattr(sweep_z, "solve_min_leading",
                        lambda problem: tuple(2 * v for v in solve(problem)))
    trace = sweep_over_z(FIX_CB)
    monkeypatch.undo()
    checks = verify_trace(trace)
    assert failing(checks) == {"kernel_leading_minimality"}
    assert checks[-1][2] == ("kernel problem: leading 4 inconsistent with box "
                             "minimum 2 (1 instance failed)")


DELTAS = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def corrupted_traces(draw, stored=("matrices", "ops"), algorithms=RUNNERS,
                     change="add", sizes=(3, 9), blocks=(1, 3)):
    """A finished trace of one of the algorithms, on an m x m input with m
    in sizes and b in blocks (1 for revised1), with one entry of one
    stored matrix changed, or one op list changed; a block trace has it in
    one of its runs. The matrices are read and stored whole, through
    reference.matrices and with_matrices. For a matrix, change "add" adds
    a small value to any entry, "carry" adds it in every later matrix that
    keeps the row too, "zero" zeroes a nonzero entry (if there is one).
    For an op list, any change either adds a small value to one op's
    coefficient or adds an op (s, d, c) off the step's marks: neither s nor
    d is a column the step marks. None leaves the trace as it was run.
    Returns the trace and its sweep traces keyed by their check names'
    prefix ("" unless block)."""
    algorithm = draw(st.sampled_from(sorted(algorithms)))
    m = draw(st.integers(*sizes))
    matrix = random_connection_matrix(RandomSpec(
        seed=draw(st.integers(0, 10**6)), m=m,
        b=1 if algorithm == "revised1" else draw(st.integers(*blocks)),
        style=draw(st.sampled_from(("grouped", "scattered"))),
        density=draw(st.floats(0.3, 0.9)), values=tuple(range(-3, 4))))
    trace = RUNNERS[algorithm](matrix)
    runs = list(trace.runs) if algorithm == "block" else []
    at = draw(st.integers(0, len(runs) - 1)) if runs else None
    target = runs[at].trace if runs else trace
    field = draw(st.sampled_from(stored))
    if not target.ops:  # a revised run on a zero matrix has no op lists
        field = "matrices"
    if field == "ops":
        r = draw(st.integers(0, len(target.ops) - 1))
        ops = target.ops[r]
        if change is None:
            pass
        elif ops and draw(st.booleans()):
            k = draw(st.integers(0, len(ops) - 1))
            s, d, c = ops[k]
            target = doctor_op(target, r, (s, d, norm(c + draw(DELTAS))), k)
        else:
            marks = ([target.registry.marks[r]] if target.algorithm == "revised1"
                     else target.registry.on_diagonal(r))
            off = [i for i in range(1, m + 1) if i not in {mk.position[1] for mk in marks}]
            target = doctor_op(target, r, (draw(st.sampled_from(off)),
                                           draw(st.sampled_from(off)), draw(DELTAS)))
    else:
        seq = list(matrices(target))
        k = draw(st.integers(0, len(seq) - 1))
        changed = thaw(seq[k])
        if change in ("add", "carry"):
            i, j = draw(st.integers(1, m)), draw(st.integers(1, m))
            changed[i - 1][j - 1] += draw(DELTAS)
        nonzeros = [(i, j) for i, row in enumerate(changed)
                    for j, v in enumerate(row) if v]
        if change == "zero" and nonzeros:
            i, j = draw(st.sampled_from(nonzeros))
            changed[i][j] = 0
        if change == "carry":
            row, new_row = seq[k][i - 1], tuple(changed[i - 1])
            for t in range(k, len(seq)):
                if seq[t][i - 1] is not row:
                    break
                seq[t] = seq[t][:i - 1] + (new_row,) + seq[t][i:]
        else:
            seq[k] = changed
        target = with_matrices(target, seq)
    if not runs:
        return target, {"": target}
    runs[at] = dataclasses.replace(runs[at], trace=target)
    return (dataclasses.replace(trace, runs=tuple(runs)),
            {f"block{run.k}_": run.trace for run in runs})


@settings(max_examples=150, deadline=None)
@given(st.one_of(corrupted_traces(),
                 corrupted_traces(algorithms=("revised1", "rowcancel"), sizes=(10, 24),
                                  blocks=(1, 1))))
def test_similarity_verdict_matches_dense_product(case):
    """The verdict and the first failing link: the sparse per-link test
    names the link the dense product does, running traces included, and
    agrees with Fraction arithmetic on dense one-block runs, whose sums and
    products outgrow a machine word."""
    trace, sweeps = case
    verdicts = {name: (ok, detail) for name, ok, detail in verify_trace(trace)}
    for prefix, sweep in sweeps.items():
        assert verdicts[prefix + "similarity"] == similarity_holds(sweep)


@settings(max_examples=150, deadline=None)
@given(corrupted_traces(stored=("matrices",)))
def test_any_changed_matrix_entry_fails_a_check(case):
    trace, _ = case
    assert failing(verify_trace(trace))


@settings(max_examples=150, deadline=None)
@given(corrupted_traces(stored=("ops",)))
def test_any_changed_transition_entry_fails_a_check(case):
    """A changed op changes its step's T^r, and the trace then fails a
    check, unless it is a z run that picked another kernel vector of
    minimal leading coefficient: that is a run the integer sweep may make."""
    trace, _ = case
    assert failing(verify_trace(trace)) or reference.optimal_z_run(trace)


@settings(max_examples=150, deadline=None)
@given(corrupted_traces(algorithms=("accumulated", "incremental", "block"),
                        change=None, sizes=(10, 18)))
def test_relabelled_change_of_basis_mark_fails(case):
    """A change-of-basis mark relabelled primary gives its row a second
    primary pivot, so the pivots are no longer the input's rank jumps (see
    verify's module docstring), and the below-diagonal check names it.
    Every such mark of the drawn run is relabelled in turn; a relabelling
    that MarkRegistry refuses, a second primary pivot in one column, is
    skipped, and so is a run with no other. z runs mark as these do, and
    the box enumeration of their kernel check would make each draw cost
    seconds."""
    trace, sweeps = case
    relabelled = 0
    for prefix, sweep in sweeps.items():
        marks = sweep.registry.marks
        for n in (n for n, mk in enumerate(marks) if mk.kind == CHANGE_OF_BASIS):
            try:
                registry = MarkRegistry(marks[:n] + (
                    dataclasses.replace(marks[n], kind=PRIMARY),) + marks[n + 1:])
            except AlgorithmError:
                continue
            bad = dataclasses.replace(sweep, registry=registry)
            if prefix:
                bad = dataclasses.replace(trace, runs=tuple(
                    dataclasses.replace(run, trace=bad) if f"block{run.k}_" == prefix
                    else run for run in trace.runs))
            assert prefix + "below_diagonal_pivot_structure" in failing(verify_trace(bad))
            relabelled += 1
    assume(relabelled)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(("incremental", "rowcancel", "z", "revised1")),
       st.integers(0, 10**6), st.floats(0.3, 0.9), st.data())
def test_sweep_of_another_input_fails_input_valid(algorithm, seed, density, data):
    """A trace swept on the input with one entry dropped, then labelled a
    run of the whole input, may pass every other check (a wrong pivot set
    among them); its first stored matrix is not the input, and
    input_valid names the dropped entry."""
    matrix = random_connection_matrix(RandomSpec(
        seed=seed, m=12, b=1, style="grouped", density=density,
        values=tuple(range(-3, 4))))
    assume(matrix.entries)
    (i, j), _ = data.draw(st.sampled_from(sorted(matrix.entries.items())))
    swept = RUNNERS[algorithm](matrix.with_entries(
        {pos: v for pos, v in matrix.entries.items() if pos != (i, j)}))
    got = {name: (ok, detail) for name, ok, detail in
           verify_trace(dataclasses.replace(swept, matrix=matrix))}
    assert got["input_valid"] == (False, f"matrix 0 differs from the input at {(i, j)} "
                                         "(1 instance failed)")


@settings(max_examples=150, deadline=None)
@given(corrupted_traces(stored=("matrices",), algorithms=("rowcancel",)))
def test_pivot_zeroed_checks_match_reading_every_matrix(case):
    """Reading a pivot's row once and then only where a step changed it
    gives the verdicts and first failures of reading every later matrix."""
    trace, _ = case
    got = {name: (ok, detail) for name, ok, detail in verify_trace(trace)}
    for name, verdict in pivot_zeroed_verdicts(trace).items():
        assert got[name] == verdict


@settings(max_examples=200, deadline=None)
@given(st.one_of(corrupted_traces(change=None), corrupted_traces(),
                 corrupted_traces(stored=("matrices",), change="carry"),
                 corrupted_traces(stored=("matrices",), change="zero")))
def test_sparse_checks_match_reading_every_matrix(case):
    """The pattern, below-diagonal and final-matrix checks read only the
    rows each step changed (and each pivot only where it joins or its row
    changes), yet give the verdicts and first failures of reading every
    matrix in full."""
    trace, sweeps = case
    got = {name: (ok, detail) for name, ok, detail in verify_trace(trace)}
    for prefix, sweep in sweeps.items():
        for name, verdict in dense_check_verdicts(sweep).items():
            assert comparable(name, got[prefix + name]) == \
                comparable(name, verdict), prefix + name


@settings(max_examples=150, deadline=None)
@given(st.one_of(*(corrupted_traces(stored=("matrices",), algorithms=("revised1",),
                                    change=change) for change in ("add", "carry", "zero"))))
def test_revised_column_checks_match_transposing_every_matrix(case):
    """Reading each row only where a step changed it, and where it first
    lies at or below a pivot row, gives the verdicts and first failures of
    transposing every matrix and reading each column in full."""
    trace, _ = case
    got = {name: (ok, detail) for name, ok, detail in verify_trace(trace)}
    for name, verdict in revised_column_verdicts(trace).items():
        assert comparable(name, got[name]) == comparable(name, verdict), name


@settings(max_examples=1000, deadline=None)
@given(st.one_of(*(corrupted_traces(change=change) for change in ("add", "carry", "zero", None)),
                 corrupted_traces(algorithms=("revised1", "rowcancel"), sizes=(10, 24),
                                  blocks=(1, 1))))
def test_one_suite_matches_the_per_algorithm_suites(case):
    """verify_trace lays out every algorithm's checks in one list; each
    verdict, first failure and the order match the separate suites it
    replaced (reference.verify_trace), on good and doctored traces."""
    trace, _ = case
    assert verify_trace(trace) == reference.verify_trace(trace)


def test_unchanged_row_is_read_at_each_entry_that_falls_below():
    """Row 1 holds a stray (1, 4) in every matrix. The row never changes,
    so the check reads it entry by entry as each falls below the diagonal:
    (1, 3) sits on a pivot, (1, 4) falls below at matrix 4 above none."""
    trace = sweep_incremental(ConnectionMatrix(4, [{1, 2}, {3, 4}], {(1, 3): 1}))
    row = (0, 0, 1, 1)
    bad = with_matrices(trace, [(row,) + mat[1:] for mat in matrices(trace)])
    verdict = (False, "matrix 4: nonzero at (1, 4) below diagonal 4 is neither "
                      "a primary pivot nor above one (1 instance failed)")
    assert dense_check_verdicts(bad)["below_diagonal_pivot_structure"] == verdict
    got = {name: (ok, detail) for name, ok, detail in verify_trace(bad)}
    assert got["below_diagonal_pivot_structure"] == verdict


@pytest.mark.parametrize("runner, op", [
    (sweep_over_z, (4, 4, 1)),         # a basis rescaled with no mark
    (row_cancellation, (4, 4, -1)),    # a singular transition
    (revised_one_block, (1, 3, 1)),    # a row no pivot column indexes
], ids=["z", "rowcancel", "revised1"])
def test_transition_off_its_marks_fails_only_transition_structure(runner, op):
    """Each op added to the first op list keeps every matrix check and the
    similarity product form intact; only the transition rule sees it."""
    bad = doctor_op(runner(FIX_SPHERE), 0, op)
    assert failing(verify_trace(bad)) == {"transition_structure"}
