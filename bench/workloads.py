"""Seeded corpora for the three workloads, and their reference answers.

The shape of every input (size, number of blocks, density, partition style)
is drawn from a fixed schedule, the way the acceptance suite draws it; the
--seed only feeds the generators that place values (for large-rational, the
signs). Two seeds therefore give different matrices of the same sizes, which
keeps run-to-run spread down without picking inputs by how long they take.
No generated input is dropped.

Reference answers (pivot positions from the rank-jump oracle and the final
matrix of the incremental sweep) come from library calls made during set-up,
outside the timed pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from connsweep import (ConnectionMatrix, RandomSpec, generate_surface_matrix,
                       pivot_rank_oracle, random_connection_matrix,
                       serialize_cmx, sweep_incremental)

VALUES = tuple(range(-3, 4))

# Algorithms whose final.cmx must equal the incremental sweep's final matrix:
# the accumulated sweep and the revised one-block run are proven equal to it,
# and the block runs cover every nonzero position of it.
FINAL_EQUALS_INCREMENTAL = frozenset({"incremental", "accumulated", "block",
                                      "revised1"})

# Seeds of the shape schedules, taken from the acceptance suite's recipes.
GENERAL_SHAPES = 20240503
SURFACE_SHAPES = 20240501
ILP_SHAPES = 20240508


@dataclass
class Input:
    key: str
    matrix: object
    path: str
    oracle: bool = True  # reference pivots from the rank-jump oracle
    pivots: frozenset = frozenset()
    final: str | None = None  # serialized incremental final matrix


@dataclass(frozen=True)
class Job:
    key: str
    input: str
    argv: tuple
    kind: str  # "run", "tu", "surface" or "oracle"
    algorithm: str | None = None
    outdir: str | None = None


@dataclass
class Corpus:
    inputs: dict = field(default_factory=dict)
    batches: list = field(default_factory=list)  # lists of Jobs
    # Groups of jobs that fill a timed run after its first pass; the
    # batches unless a workload sets them.
    repeats: list = field(default_factory=list)
    # Jobs of the tracemalloc pass of a traced run; every job unless a
    # workload sets them.
    memory: list = field(default_factory=list)

    def jobs(self):
        return [job for batch in self.batches for job in batch]

    def repeat_units(self):
        return self.repeats or self.batches

    def memory_jobs(self):
        return self.memory or self.jobs()


class _Builder:
    def __init__(self, workdir):
        self.workdir = workdir
        self.corpus = Corpus()
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)

    def add_input(self, key, matrix, oracle=True):
        path = os.path.join(self.workdir, "in", key + ".cmx")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_cmx(matrix))
        self.corpus.inputs[key] = Input(key, matrix, path, oracle)
        return key

    def run_job(self, key, algorithm, extra=()):
        inp = self.corpus.inputs[key]
        outdir = os.path.join(self.workdir, "out", f"{key}-{algorithm}")
        argv = ("run", "-a", algorithm, inp.path, "-o", outdir,
                "--trace", "full", "--verify") + tuple(extra)
        return Job(f"{key}-{algorithm}", key, argv, "run", algorithm, outdir)

    def rowcancel_job(self, key, algorithm="rowcancel"):
        return self.run_job(key, algorithm, ("--schedule", "--reduction"))

    def check_jobs(self, key):
        path = self.corpus.inputs[key].path
        return [Job(f"{key}-surface", key, ("surface", "check", path), "surface"),
                Job(f"{key}-tu", key, ("tu", "check", path), "tu"),
                Job(f"{key}-oracle", key, ("oracle", "pivots", path), "oracle")]

    def finish(self):
        """Reference answers: oracle pivots, and the incremental sweep's
        final matrix (and pivots, for inputs without the oracle) wherever a
        job is checked against it."""
        needs_final = {job.input for job in self.corpus.jobs()
                       if job.algorithm in FINAL_EQUALS_INCREMENTAL}
        for key, inp in self.corpus.inputs.items():
            if key in needs_final or not inp.oracle:
                trace = sweep_incremental(inp.matrix)
                inp.pivots = trace.registry.primary_positions()
                inp.final = serialize_cmx(inp.matrix.with_entries(
                    {(i, j): v for i, row in enumerate(trace.final, start=1)
                     for j, v in enumerate(row, start=1) if v}))
            if inp.oracle:
                inp.pivots = pivot_rank_oracle(inp.matrix)
        return self.corpus


def _without_verify(job):
    outdir = job.outdir + "-noverify"
    return replace(job, key=job.key + "-noverify", outdir=outdir, argv=tuple(
        outdir if arg == job.outdir else arg
        for arg in job.argv if arg != "--verify"))


def _mix(seed, k):
    return seed * 1000003 + k


def _flip_signs(matrix, seed):
    """D M D for a seeded diagonal D of +-1: a change of basis that changes
    the sign pattern of the values but not the work any algorithm does."""
    rng = random.Random(seed)
    sign = [rng.choice((1, -1)) for _ in range(matrix.m + 1)]
    return ConnectionMatrix(matrix.m, matrix.partition,
                            {(i, j): sign[i] * v * sign[j]
                             for (i, j), v in matrix.entries.items()})


LADDER = (64, 96, 128)
# Verifying row cancellation on the dense b=1 input takes ~3 s at m=96 and
# ~6 s at m=128; a pass over the ladder must fit a run's time.
ROWCANCEL_LADDER = (64,)


LADDER_SHAPES = 7  # the seed of the re-anchor probe in ROADMAP.md


def large_rational(seed, workdir):
    """One batch: the m-ladder, a b=3 and a b=1 input per rung. A pass
    takes most of a run, so the time left after it repeats whole rungs,
    smallest first, and the jobs near the median and p90 get a second run.

    The matrices' structure is fixed (RandomSpec seeds from LADDER_SHAPES);
    --seed flips the signs of a random set of basis elements. With one input
    per rung, inputs drawn afresh per seed differed in cost by up to 2x at
    the same m, more than any bound on the end-to-end metrics allows.

    Memory peaks are taken on the largest rung, where every layer peaks,
    and on the one row cancellation job: tracemalloc slows a job about
    3x, and over the whole ladder it took a traced run to 115 s of the
    180 s a run may take.

    Row cancellation runs on the b=1 inputs: on b >= 2 inputs it fails its
    own verifier now and then (see known_defects/), while with one block
    its misordered inverse factors still commute. On the b=1 inputs the
    reference pivots are the incremental sweep's, which row cancellation
    and the revised run must reproduce; the rank-jump oracle is quartic in
    the block size and would dominate set-up.
    """
    bld = _Builder(workdir)
    batch = []
    for m in LADDER:
        rung = len(batch)
        grouped = bld.add_input(f"m{m}-b3", _flip_signs(
            random_connection_matrix(RandomSpec(
                seed=LADDER_SHAPES, m=m, b=3, style="grouped", density=0.6,
                values=VALUES)), _mix(seed, m)))
        one_block = bld.add_input(f"m{m}-b1", _flip_signs(
            random_connection_matrix(RandomSpec(
                seed=LADDER_SHAPES, m=m, b=1, style="grouped", density=0.6,
                values=VALUES)), _mix(seed, m + 1)), oracle=False)
        batch += [bld.run_job(grouped, "incremental"),
                  bld.run_job(grouped, "block"),
                  bld.run_job(one_block, "revised1")]
        if m in ROWCANCEL_LADDER:
            batch.append(bld.rowcancel_job(one_block))
        bld.corpus.repeats.append(batch[rung:])
    bld.corpus.batches.append(batch)
    bld.corpus.memory = [job for job in batch if job.algorithm == "rowcancel"
                         or job.input.startswith(f"m{LADDER[-1]}-")]
    return bld.finish()


ILP_COUNT = 150
ILP_LARGE = ((32, 2), (40, 3), (48, 3))  # (m, b)
ILP_BATCH = 5


def integer_min(seed, workdir):
    """Non-TU inputs drawn like the ILP-optimality acceptance corpus, plus a
    few larger ones; each goes through the z and accumulated sweeps.

    The memory peaks of z jobs are taken without --verify: under tracemalloc
    the verifier's ilp_brute_force cross-check runs about 9x slower, and a
    few seconds of it per pass would take minutes."""
    bld = _Builder(workdir)
    shapes = random.Random(ILP_SHAPES)
    keys = []
    for k in range(ILP_COUNT):
        b = shapes.randint(1, 3)
        sizes = tuple(shapes.randint(1, 6) for _ in range(b + 1))
        style = shapes.choice(("grouped", "scattered"))
        density = shapes.uniform(0.4, 0.9)
        keys.append(bld.add_input(f"ilp{k}", random_connection_matrix(RandomSpec(
            seed=_mix(seed, k), m=sum(sizes), b=b, style=style,
            density=density, values=VALUES, sizes=sizes))))
    for m, b in ILP_LARGE:
        keys.append(bld.add_input(f"ilp-m{m}", random_connection_matrix(RandomSpec(
            seed=_mix(seed, 100000 + m), m=m, b=b, style="grouped",
            density=0.6, values=VALUES))))
    for at in range(0, len(keys), ILP_BATCH):
        bld.corpus.batches.append(
            [bld.run_job(key, algorithm)
             for key in keys[at:at + ILP_BATCH]
             for algorithm in ("z", "accumulated")])
    bld.corpus.memory = [_without_verify(job) if job.algorithm == "z" else job
                         for job in bld.corpus.jobs()]
    return bld.finish()


CLI_RANDOM = 120
CLI_SURFACES = 120
CLI_BATCH = 4  # random inputs per batch, and as many surfaces


def small_cli(seed, workdir):
    """Small random inputs (general acceptance recipe) and surface matrices
    (surface acceptance recipe) through every CLI path."""
    bld = _Builder(workdir)
    shapes = random.Random(GENERAL_SHAPES)
    randoms = []
    for k in range(CLI_RANDOM):
        m = shapes.randint(2, 20)
        b = shapes.randint(1, min(4, m - 1))
        style = shapes.choice(("grouped", "scattered"))
        density = shapes.uniform(0.15, 0.9)
        randoms.append(bld.add_input(f"gen{k}", random_connection_matrix(RandomSpec(
            seed=_mix(seed, k), m=m, b=b, style=style, density=density,
            values=VALUES))))
    shapes = random.Random(SURFACE_SHAPES)
    surfaces = []
    while len(surfaces) < CLI_SURFACES:
        n0 = shapes.randint(1, 9)
        n1 = shapes.randint(0, 11)
        n2 = shapes.randint(1, 8)
        if n0 + n1 + n2 > 24:
            continue
        density = shapes.uniform(0.3, 1.0)
        flips = shapes.randint(0, 6)
        k = len(surfaces)
        surfaces.append(bld.add_input(f"surf{k}", generate_surface_matrix(
            _mix(seed, k), (n0, n1, n2), density=density, flips=flips)))
    for at in range(0, CLI_RANDOM, CLI_BATCH):
        batch = []
        for key in randoms[at:at + CLI_BATCH]:
            batch += [bld.run_job(key, "incremental"), bld.run_job(key, "block")]
        for key in surfaces[at:at + CLI_BATCH]:
            batch.append(bld.rowcancel_job(key, "smale"))
            batch += bld.check_jobs(key)
        bld.corpus.batches.append(batch)
    return bld.finish()


WORKLOADS = {
    "large-rational": large_rational,
    "integer-min": integer_min,
    "small-cli": small_cli,
}
