"""Command-line front end.

Subcommands: run, compare, tu check, surface check|gen, oracle pivots|ilp,
gen random. Artifacts are deterministic: identical configs yield identical
bytes. Exit codes: 0 success/equal, 1 precondition violated, 2 I/O error,
3 verification failure, 4 internal error (a broken invariant, i.e. a bug).
trace.txt and the reduction stages are written record by record from a
trace's stored rows (SweepTrace.rows) and op lists.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain, compress, count, islice

from . import verify as verify_mod
from .block_seq import block_sequential_sweep, revised_one_block
from .cmx import parse_cmx, serialize_cmx
from .core import (PRIMARY, CmxError, ConnSweepError, InvalidMatrixError,
                   KernelProblem, PreconditionError)
from .linalg import products
from .oracles import RandomSpec, ilp_brute_force, pivot_rank_oracle, \
    random_connection_matrix
from .row_cancel import (cancellation_schedule, reduction_stages,
                         row_cancellation, smale_cancellation_sweep)
from .sweep_f import sweep_accumulated, sweep_incremental
from .sweep_z import sweep_over_z
from .tu import (DEFAULT_SIZE_GUARD, SurfaceRejection,
                 generate_surface_matrix, is_surface_connection_matrix,
                 is_totally_unimodular, sample_non_tu_witness)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

_RUNNERS = {
    "z": sweep_over_z,
    "accumulated": sweep_accumulated,
    "incremental": sweep_incremental,
    "block": block_sequential_sweep,
    "revised1": revised_one_block,
    "rowcancel": row_cancellation,
    "smale": smale_cancellation_sweep,
}


def _read_matrix(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_cmx(handle.read())


def _entry_lines(trace):
    """The 'entry' lines of each matrix of trace, a row formatted only
    where the trace stores a change."""
    per_row, lines = {}, []  # per_row: each stored row's lines
    for rows in trace.rows:
        for i, row in rows.items():
            per_row[i] = [f"entry {i + 1} {j} {row[j - 1]}"
                          for j in compress(count(1), row)]
        if rows:
            lines = list(chain.from_iterable(per_row[i] for i in sorted(per_row)))
        yield lines


def _transition_lines(trace):
    """The 'entry' lines of I + N for each op list of trace, N as
    linalg.products gives it (running for trace.running): a row is
    formatted only where the ops wrote it or, per step, where the step
    before wrote it, and starts as the identity's."""
    m = trace.matrix.m
    per_row = [[f"entry {i} {i} 1"] for i in range(1, m + 1)]
    lines, stale = list(chain.from_iterable(per_row)), set()
    for n, rows in products(m, trace.ops, trace.running):
        for i in rows | stale:
            row = {**n[i], i: n[i].get(i, 0) + 1}
            per_row[i] = [f"entry {i + 1} {j + 1} {row[j]}" for j in sorted(row) if row[j]]
        if rows or stale:
            lines = list(chain.from_iterable(per_row))
        stale = set() if trace.running else rows
        yield lines


def _trace_records(trace, full):
    """The records of trace.txt after its header, one at a time, each a
    list of lines: a block's `block k` and `Jk_pivot_columns` header, or one
    diagonal's or step's label, marks, transition and (full) matrix. The
    record of matrix s is made by op list s - 1 of a revised run, s of a
    diagonal sweep (whose op list 0 is empty and has no record)."""
    if trace.algorithm == "block":
        for run in trace.runs:
            yield [f"block {run.k}", "Jk_pivot_columns " +
                   " ".join(str(c) for c in sorted(run.pivot_columns))]
            yield from _trace_records(run.trace, full)
        return
    t_lines = _transition_lines(trace)
    if trace.algorithm == "revised1":
        records = [(f"step {s}", [mk]) for s, mk in enumerate(trace.registry.marks, 1)]
    else:
        records = [(f"r {r}", trace.registry.on_diagonal(r))
                   for r in range(1, trace.matrix.m)]
        next(t_lines, None)
    m_lines = islice(_entry_lines(trace), 1, None)
    for label, marks in records:
        lines = [label]
        lines.extend(f"mark {mk.kind} {mk.position[0]} {mk.position[1]} {mk.value}"
                     for mk in marks)
        lines.append("transition")
        lines.extend(next(t_lines))
        if full:
            lines.append("matrix")
            lines.extend(next(m_lines))
        yield lines


def _pivot_lines(registry):
    pivots = [(mk.diagonal, mk.position[0], mk.position[1], mk.value)
              for mk in registry.marks if mk.kind == PRIMARY]
    pivots.sort(key=lambda rec: (rec[0], rec[2]))
    return [f"pivot {r} {i} {j} {v}" for (r, i, j, v) in pivots]


def _write(path, records):
    """Write records, each a list of lines, one write per record as it
    arrives, so that no more than one record's text is held at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        for lines in records:
            if lines:
                handle.write("\n".join(lines) + "\n")


def _cmd_run(args):
    if args.reduction and args.algorithm not in ("rowcancel", "smale"):
        raise PreconditionError("reduction export needs the rowcancel or smale algorithm")
    matrix = _read_matrix(args.input)
    result = _RUNNERS[args.algorithm](matrix)
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)

    _write(os.path.join(outdir, "trace.txt"),
           chain([[f"algorithm {args.algorithm}", f"m {matrix.m}"]],
                 _trace_records(result, args.trace == "full")))
    _write(os.path.join(outdir, "pivots.txt"), [_pivot_lines(result.registry)])

    if args.trace in ("final", "full"):
        final = matrix.with_entries(
            {(i, j): row[j - 1] for i, row in enumerate(result.final, start=1)
             for j in compress(count(1), row)})
        with open(os.path.join(outdir, "final.cmx"), "w", encoding="utf-8") as fh:
            fh.write(serialize_cmx(final))

    if args.schedule:
        _write(os.path.join(outdir, "schedule.txt"),
               [[f"cancel page={r} pivot={i},{j} pair={i - 1},{j - 1}"
                 for r, (i, j) in cancellation_schedule(result)]])

    if args.reduction:
        red_dir = os.path.join(outdir, "reduction")
        os.makedirs(red_dir, exist_ok=True)
        for step in reduction_stages(result):
            lines = [f"# step {step.r}",
                     "# surviving " + " ".join(str(i) for i in step.surviving)]
            for (i, j, xi) in step.removed_pairs:
                lines.append(f"# removed {i} {j} diagonal {xi}")
            lines.extend(f"entry {i} {j} {v}"
                         for (i, j), v in sorted(step.entries.items()))
            _write(os.path.join(red_dir, f"step{step.r}.cmx"), [lines])

    status = EXIT_OK
    if args.verify:
        lines = []
        for name, ok, detail in verify_mod.verify_trace(result):
            lines.append(f"PASS {name}" if ok else f"FAIL {name}: {detail}")
            if not ok:
                status = EXIT_VERIFY
        _write(os.path.join(outdir, "verify.txt"), [lines])
    return status


def _parse_pivot_file(path):
    pivots = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5 or parts[0] != "pivot":
                raise PreconditionError(
                    f"{path}:{lineno}: expected 'pivot r i j value'")
            try:
                rec = (int(parts[1]), int(parts[2]), int(parts[3]),
                       Fraction(parts[4]))
            except (ValueError, ZeroDivisionError) as exc:
                raise PreconditionError(f"{path}:{lineno}: {exc}") from exc
            pivots.add(rec)
    return pivots


def _cmd_compare(args):
    a = _parse_pivot_file(args.trace_a)
    b = _parse_pivot_file(args.trace_b)
    only_a = sorted(a - b)
    only_b = sorted(b - a)
    for rec in only_a:
        print(f"only in {args.trace_a}: pivot {rec[0]} {rec[1]} {rec[2]} {rec[3]}")
    for rec in only_b:
        print(f"only in {args.trace_b}: pivot {rec[0]} {rec[1]} {rec[2]} {rec[3]}")
    if only_a or only_b:
        return EXIT_VERIFY
    print(f"equal: {len(a)} pivots")
    return EXIT_OK


def _cmd_tu_check(args):
    matrix = _read_matrix(args.input)
    if matrix.m <= args.guard:
        verdict = is_totally_unimodular(matrix, size_guard=args.guard)
        print("totally unimodular" if verdict else "not totally unimodular")
        return EXIT_OK if verdict else EXIT_VERIFY
    witness = sample_non_tu_witness(matrix, samples=args.samples, seed=args.seed)
    if witness is None:
        print(f"unfalsified ({args.samples} sampled submatrices)")
        return EXIT_OK
    print(f"not totally unimodular: rows {list(witness.rows)} "
          f"cols {list(witness.cols)} det {witness.det}")
    return EXIT_VERIFY


def _cmd_surface_check(args):
    matrix = _read_matrix(args.input)
    result = is_surface_connection_matrix(matrix)
    if isinstance(result, SurfaceRejection):
        print(f"rejected: property ({result.prop}) fails: {result.message}")
        return EXIT_VERIFY
    print(f"surface connection matrix: wells={result.wells} "
          f"saddles={result.saddles} sources={result.sources}")
    print("row flips: " + (" ".join(str(i) for i in sorted(result.row_flips)) or "-"))
    print("col flips: " + (" ".join(str(j) for j in sorted(result.col_flips)) or "-"))
    return EXIT_OK


def _emit_matrix(matrix, out):
    text = serialize_cmx(matrix)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_surface_gen(args):
    matrix = generate_surface_matrix(args.seed,
                                     (args.wells, args.saddles, args.sources),
                                     density=args.density, flips=args.flips)
    _emit_matrix(matrix, args.out)
    return EXIT_OK


def _cmd_oracle_pivots(args):
    matrix = _read_matrix(args.input)
    for (i, j) in sorted(pivot_rank_oracle(matrix)):
        print(f"pivot {i} {j}")
    return EXIT_OK


def _cmd_oracle_ilp(args):
    rows = []
    with open(args.input, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([Fraction(tok) for tok in line.split()])
            except (ValueError, ZeroDivisionError) as exc:
                raise PreconditionError(f"bad matrix row {line!r}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise PreconditionError("need a nonempty rectangular matrix")
    problem = KernelProblem(tuple(tuple(r) for r in rows), len(rows[0]))
    witness = ilp_brute_force(problem, args.bound)
    if witness is None:
        print(f"none-within-bound {args.bound}")
    else:
        print(f"min_leading {witness.min_leading}")
        print("witness " + " ".join(str(v) for v in witness.witness))
    return EXIT_OK


def _parse_values(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


def _cmd_gen_random(args):
    sizes = tuple(int(tok) for tok in args.sizes.split(",")) if args.sizes else None
    spec = RandomSpec(seed=args.seed, m=args.m, b=args.b, style=args.style,
                      density=args.density, values=_parse_values(args.values),
                      sizes=sizes)
    _emit_matrix(random_connection_matrix(spec), args.out)
    return EXIT_OK


_COMMANDS = ("run", "compare", "tu", "surface", "oracle", "gen")


# Built per call, and only for the command asked for: a cached parser leaves
# no garbage to trigger full collections, so CPython's tuple free lists grow.
def build_parser(command=None):
    """The parser with only `command`'s subparser when it names one, else
    with all of them. A subparser's prog, usage, help and errors do not
    depend on its siblings, and the metavar keeps the top-level usage line
    (printed for unrecognized arguments) the same."""
    wanted = (command,) if command in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="connsweep",
        description="Sweeping and cancellation algorithms for connection "
                    "matrices, with exact arithmetic throughout.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if len(wanted) > 1 else "{" + ",".join(_COMMANDS) + "}")

    if "run" in wanted:
        p = sub.add_parser("run", help="run an algorithm on a CMX file")
        p.add_argument("--algorithm", "-a", required=True, choices=sorted(_RUNNERS))
        p.add_argument("input", help="CMX input path")
        p.add_argument("--trace", choices=("pivots", "final", "full"),
                       default="pivots", help="artifact verbosity")
        p.add_argument("--output", "-o", default=".", help="output directory")
        p.add_argument("--verify", action="store_true",
                       help="run the invariant suite and write verify.txt")
        p.add_argument("--schedule", action="store_true",
                       help="write the cancellation schedule")
        p.add_argument("--reduction", action="store_true",
                       help="write the reduced matrices (rowcancel/smale)")
        p.set_defaults(func=_cmd_run)

    if "compare" in wanted:
        p = sub.add_parser("compare", help="diff two pivot files")
        p.add_argument("trace_a")
        p.add_argument("trace_b")
        p.set_defaults(func=_cmd_compare)

    if "tu" in wanted:
        p_tu = sub.add_parser("tu", help="total unimodularity")
        tu_sub = p_tu.add_subparsers(dest="subcommand", required=True)
        p = tu_sub.add_parser("check", help="exhaustive check (sampled when large)")
        p.add_argument("input")
        p.add_argument("--guard", type=int, default=DEFAULT_SIZE_GUARD,
                       help="largest order checked exhaustively")
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_tu_check)

    if "surface" in wanted:
        p_surface = sub.add_parser("surface", help="surface connection matrices")
        s_sub = p_surface.add_subparsers(dest="subcommand", required=True)
        p = s_sub.add_parser("check", help="validate against the surface form")
        p.add_argument("input")
        p.set_defaults(func=_cmd_surface_check)
        p = s_sub.add_parser("gen", help="generate a surface connection matrix")
        p.add_argument("--wells", type=int, required=True)
        p.add_argument("--saddles", type=int, required=True)
        p.add_argument("--sources", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--density", type=float, default=1.0)
        p.add_argument("--flips", type=int, default=0)
        p.add_argument("--out", "-o", default=None)
        p.set_defaults(func=_cmd_surface_gen)

    if "oracle" in wanted:
        p_oracle = sub.add_parser("oracle", help="independent brute-force oracles")
        o_sub = p_oracle.add_subparsers(dest="subcommand", required=True)
        p = o_sub.add_parser("pivots", help="pivot positions from rank jumps")
        p.add_argument("input")
        p.set_defaults(func=_cmd_oracle_pivots)
        p = o_sub.add_parser("ilp", help="bounded kernel enumeration")
        p.add_argument("input", help="text file, one matrix row per line")
        p.add_argument("--bound", type=int, default=10)
        p.set_defaults(func=_cmd_oracle_ilp)

    if "gen" in wanted:
        p_gen = sub.add_parser("gen", help="random instances")
        g_sub = p_gen.add_subparsers(dest="subcommand", required=True)
        p = g_sub.add_parser("random", help="random boundary matrix")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--style", choices=("grouped", "scattered"), default="grouped")
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--values", default="-1..1")
        p.add_argument("--sizes", default=None, help="comma list, one per group")
        p.add_argument("--out", "-o", default=None)
        p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (CmxError, InvalidMatrixError, PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConnSweepError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
