import argparse
import os
import time
import tracemalloc

import pytest

from connsweep import AlgorithmError, ConnectionMatrix
from connsweep.cli import EXIT_INTERNAL, _RUNNERS, build_parser, main
from connsweep.cmx import parse_cmx, serialize_cmx
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_ZERO


@pytest.fixture
def sphere_path(tmp_path):
    path = tmp_path / "sphere.cmx"
    path.write_text(serialize_cmx(FIX_SPHERE))
    return str(path)


@pytest.fixture
def cb_path(tmp_path):
    path = tmp_path / "cb.cmx"
    path.write_text(serialize_cmx(FIX_CB))
    return str(path)


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def test_run_rowcancel_pivots(sphere_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "-a", "rowcancel", sphere_path, "-o", out]) == 0
    assert read(os.path.join(out, "pivots.txt")) == "pivot 1 2 3 -1\n"


def test_run_final_matches_input_for_zero(tmp_path):
    src = tmp_path / "zero.cmx"
    src.write_text(serialize_cmx(FIX_ZERO))
    out = str(tmp_path / "out")
    assert main(["run", "-a", "z", str(src), "-o", out, "--trace", "final"]) == 0
    assert read(os.path.join(out, "final.cmx")) == serialize_cmx(FIX_ZERO)


def test_run_smale_precondition_names_property(cb_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "-a", "smale", cb_path, "-o", out]) == 1
    assert "(i)" in capsys.readouterr().err


def test_run_artifacts_are_deterministic(cb_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["run", "-a", "incremental", cb_path, "-o", out,
                     "--trace", "full", "--verify"]) == 0
    for name in ("trace.txt", "pivots.txt", "final.cmx", "verify.txt"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_run_verify_and_schedule_and_reduction(sphere_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "-a", "rowcancel", sphere_path, "-o", out,
                 "--verify", "--schedule", "--reduction"]) == 0
    assert "PASS final_complementarity" in read(os.path.join(out, "verify.txt"))
    assert read(os.path.join(out, "schedule.txt")) == \
        "cancel page=1 pivot=2,3 pair=1,2\n"
    step2 = read(os.path.join(out, "reduction", "step2.cmx"))
    assert "# surviving 1 4" in step2 and "# removed 2 3 diagonal 1" in step2


def test_run_writes_artifacts_record_by_record(tmp_path):
    """trace.txt and the reduction stages are written as they are produced:
    the whole run, trace and checks included, peaks below twice the size of
    the trace.txt it writes (joining every line first peaks past 4x)."""
    source, out = str(tmp_path / "dense96.cmx"), str(tmp_path / "out")
    assert main(["gen", "random", "--seed", "7", "--m", "96", "--b", "1",
                 "--density", "0.6", "--values=-3..3", "--out", source]) == 0
    tracemalloc.start()
    try:
        assert main(["run", "-a", "rowcancel", "--trace", "full", "--verify",
                     "--reduction", "-o", out, source]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * os.path.getsize(os.path.join(out, "trace.txt"))


@pytest.mark.parametrize("algorithm", sorted(set(_RUNNERS) - {"rowcancel", "smale"}))
def test_run_reduction_refused_before_any_work(algorithm, sphere_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "-a", algorithm, sphere_path, "-o", str(out), "--verify",
                 "--trace", "final", "--reduction"]) == 1
    assert "reduction export needs" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_run_block_matches_incremental(tmp_path):
    src = str(tmp_path / "r.cmx")
    assert main(["gen", "random", "--seed", "7", "--m", "14", "--b", "3",
                 "--density", "0.6", "--values=-3..3", "-o", src]) == 0
    out = {}
    for algorithm in ("block", "incremental"):
        out[algorithm] = str(tmp_path / algorithm)
        assert main(["run", "-a", algorithm, src, "-o", out[algorithm],
                     "--trace", "full", "--verify", "--schedule"]) == 0
    verify = read(os.path.join(out["block"], "verify.txt")).splitlines()
    assert all(line.startswith("PASS ") for line in verify)
    names = {line.split()[1] for line in verify}
    assert {"uncoupling_blocks", "uncoupling_marks"} <= names
    assert {f"block{k}_similarity" for k in (1, 2, 3)} <= names
    trace = read(os.path.join(out["block"], "trace.txt")).splitlines()
    assert [line for line in trace if line.startswith("block ")] == \
        ["block 1", "block 2", "block 3"]
    assert read(os.path.join(out["block"], "schedule.txt"))
    for name in ("pivots.txt", "final.cmx", "schedule.txt"):
        assert read(os.path.join(out["block"], name)) == \
            read(os.path.join(out["incremental"], name))


@pytest.mark.parametrize("algorithm", sorted(set(_RUNNERS) - {"smale"}))
def test_run_verify_fails_a_sweep_of_another_input(algorithm, cb_path, tmp_path,
                                                    monkeypatch):
    """A sweep that reads its input with the last entry dropped runs to
    the end; the first matrix it stores is not the input, and input_valid
    says where."""
    sparse = ConnectionMatrix.sparse
    monkeypatch.setattr(ConnectionMatrix, "sparse", lambda matrix: sparse(
        matrix.with_entries(list(matrix.entries.items())[:-1])))
    out = str(tmp_path / "out")
    assert main(["run", "-a", algorithm, "--verify", cb_path, "-o", out]) == 3
    prefix = "block1_" if algorithm == "block" else ""
    assert (f"FAIL {prefix}input_valid: matrix 0 differs from the input at (2, 4) "
            "(1 instance failed)") in read(os.path.join(out, "verify.txt")).splitlines()


def test_compare(sphere_path, tmp_path, capsys):
    out_z = str(tmp_path / "z")
    out_rc = str(tmp_path / "rc")
    main(["run", "-a", "z", sphere_path, "-o", out_z])
    main(["run", "-a", "rowcancel", sphere_path, "-o", out_rc])
    pz = os.path.join(out_z, "pivots.txt")
    prc = os.path.join(out_rc, "pivots.txt")
    assert main(["compare", pz, prc]) == 0
    assert main(["compare", pz, pz]) == 0
    other = tmp_path / "other.txt"
    other.write_text("pivot 1 2 3 5\n")
    assert main(["compare", pz, str(other)]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("pivot nonsense\n")
    assert main(["compare", pz, str(bad)]) == 1


def test_compare_rejects_zero_denominator(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("pivot 1 1 2 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("pivot 1 1 2 1\npivot 1 1 2 1/0\n")
    assert main(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:2: ")


def test_compare_cb_incremental_vs_rowcancel(cb_path, tmp_path):
    out_i = str(tmp_path / "i")
    out_rc = str(tmp_path / "rc")
    main(["run", "-a", "incremental", cb_path, "-o", out_i])
    main(["run", "-a", "rowcancel", cb_path, "-o", out_rc])
    assert main(["compare", os.path.join(out_i, "pivots.txt"),
                 os.path.join(out_rc, "pivots.txt")]) == 0


def test_tu_check(cb_path, sphere_path):
    assert main(["tu", "check", sphere_path]) == 0
    assert main(["tu", "check", cb_path]) == 3


def test_tu_check_sampled_beyond_guard(tmp_path, capsys):
    from connsweep import ConnectionMatrix
    big_bad = ConnectionMatrix(20, [set(range(1, 11)), set(range(11, 21))],
                               {(1, 11): 2})
    path = tmp_path / "big.cmx"
    path.write_text(serialize_cmx(big_bad))
    assert main(["tu", "check", str(path)]) == 3
    assert "det 2" in capsys.readouterr().out
    big_ok = ConnectionMatrix(20, [set(range(1, 11)), set(range(11, 21))],
                              {(i, i + 10): 1 for i in range(1, 11)})
    path.write_text(serialize_cmx(big_ok))
    assert main(["tu", "check", str(path)]) == 0
    assert "unfalsified" in capsys.readouterr().out


def test_tu_check_refuses_sampling_nothing(tmp_path, capsys):
    from connsweep import ConnectionMatrix
    big = ConnectionMatrix(20, [set(range(1, 11)), set(range(11, 21))],
                           {(i, i + 10): 1 for i in range(1, 11)})
    path = tmp_path / "big.cmx"
    path.write_text(serialize_cmx(big))
    for samples in ("0", "-3"):
        assert main(["tu", "check", str(path), "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one sample" in captured.err


def test_surface_check_and_gen(tmp_path, capsys, sphere_path):
    assert main(["surface", "check", sphere_path]) == 0
    assert "wells=2" in capsys.readouterr().out
    out = tmp_path / "gen.cmx"
    assert main(["surface", "gen", "--wells", "2", "--saddles", "1",
                 "--sources", "1", "--seed", "0", "-o", str(out)]) == 0
    assert parse_cmx(read(str(out))) == FIX_SPHERE


def test_surface_gen_rejects_empty_sizes(capsys):
    assert main(["surface", "gen", "--wells", "0", "--saddles", "0",
                 "--sources", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one generator" in captured.err


def test_oracle_pivots(cb_path, capsys):
    assert main(["oracle", "pivots", cb_path]) == 0
    assert capsys.readouterr().out == "pivot 2 3\n"


def test_oracle_ilp(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("-2 -3\n")
    assert main(["oracle", "ilp", str(path), "--bound", "10"]) == 0
    out = capsys.readouterr().out
    assert "min_leading 2" in out and "witness -3 2" in out


def test_oracle_ilp_refuses_boxes_past_desk_scale(tmp_path, capsys):
    """The cap is on the box's size, (2 bound + 1)^(c - 1) points: a wide
    row at the default bound is refused at once, while a wide row at a
    small bound and a narrow row at a large bound are still answered."""
    wide = tmp_path / "wide.txt"
    wide.write_text("2 4 6 8 10 12 14 3\n")
    start = time.perf_counter()
    assert main(["oracle", "ilp", str(wide)]) == 1
    assert time.perf_counter() - start < 0.5
    assert "points to enumerate" in capsys.readouterr().err
    assert main(["oracle", "ilp", str(wide), "--bound", "1"]) == 0
    assert capsys.readouterr().out == "none-within-bound 1\n"
    narrow = tmp_path / "narrow.txt"
    narrow.write_text("-2 -3\n")
    assert main(["oracle", "ilp", str(narrow), "--bound", "50"]) == 0
    assert "min_leading 2" in capsys.readouterr().out


def test_oracle_ilp_rejects_zero_denominator(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("1 1/0\n")
    assert main(["oracle", "ilp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad matrix row '1 1/0'")


def test_oracle_ilp_refuses_negative_bound(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("-2 -3\n")
    assert main(["oracle", "ilp", str(path), "--bound", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err
    assert main(["oracle", "ilp", str(path), "--bound", "0"]) == 0
    assert capsys.readouterr().out == "none-within-bound 0\n"


def test_gen_random_round_trips(tmp_path):
    out = tmp_path / "r.cmx"
    args = ["gen", "random", "--seed", "4", "--m", "10", "--b", "2",
            "--style", "scattered", "--density", "0.7", "--values=-3..3",
            "-o", str(out)]
    assert main(args) == 0
    first = read(str(out))
    assert main(args) == 0
    assert read(str(out)) == first
    parse_cmx(first)
    refused = tmp_path / "refused.cmx"
    for m, b in (("3", "4"), ("5", "-1"), ("0", "0")):
        assert main(["gen", "random", "--seed", "4", "--m", m, "--b", b,
                     "-o", str(refused)]) == 1
    assert not refused.exists()


def test_exit_codes_io_and_precondition(tmp_path, capsys):
    assert main(["run", "-a", "z", str(tmp_path / "missing.cmx")]) == 2
    bad = tmp_path / "bad.cmx"
    bad.write_text("CMX 1\nm 2\nb 0\nindex 1 0\nindex 2 0\nentry 2 1 1\n")
    assert main(["run", "-a", "z", str(bad), "-o", str(tmp_path / "o")]) == 1
    assert "diagonal" in capsys.readouterr().err


def test_exit_code_internal_error_differs_from_verify(cb_path, tmp_path,
                                                      monkeypatch, capsys):
    def broken(matrix):
        raise AlgorithmError("planted invariant failure")

    monkeypatch.setitem(_RUNNERS, "incremental", broken)
    out = str(tmp_path / "out")
    assert main(["run", "-a", "incremental", cb_path, "-o", out]) == EXIT_INTERNAL
    assert EXIT_INTERNAL == 4
    assert "internal error: planted invariant failure" in capsys.readouterr().err


def _exit_and_output(call, capsys):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["run"], ["run", "-h"], ["run", "-a", "nope", "x"],
    ["run", "--algorithm"], ["run", "-a", "z", "x", "--bogus"], ["tu"],
    ["tu", "check", "-h"], ["surface", "bogus"], ["surface", "gen", "-h"],
    ["oracle"], ["oracle", "ilp", "f", "--bound", "x"], ["gen"],
    ["gen", "random", "--seed", "1"], ["compare", "a"],
], ids=" ".join)
def test_one_command_parser_behaves_as_the_full_one(argv, monkeypatch, capsys):
    """main builds only the named subcommand's parser; its help, usage
    errors and exit codes are those of the parser with every subcommand
    (`run ... --bogus` is reported by the top-level parser)."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit_and_output(lambda: build_parser().parse_args(argv), capsys)
    assert _exit_and_output(lambda: main(list(argv)), capsys) == full
    assert full[0] in (0, 2)


def test_run_builds_only_its_own_parser(sphere_path, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["run", "-a", "incremental", sphere_path,
                 "-o", str(tmp_path / "out")]) == 0
    assert len(built) == 2
    built.clear()
    build_parser()
    assert len(built) == 13
