"""Outside-in benchmark: times `connsweep` CLI invocations end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop client, no threads. The program is driven
in-process through connsweep.cli.main with the same argument lists a user
would type; it only ever sees the CMX files written in set-up.

--trace 0 prints the end-to-end metrics: set-up is repeated and its median
reported, then one pass over the corpus runs (it always completes), and
whole groups of its jobs run again while they fit in --seconds. --trace 1
prints the per-layer metrics: every job runs once untraced and once with
spans, back to back; then the jobs a workload picks for memory peaks run
once more with tracemalloc on.

The last line of stdout is a JSON object with keys correct, attempted,
failed and metrics. The exit code is 0 only when every job's outputs were
correct. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_work")

# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS, and
# the median reported: one set-up of a small corpus lasts only ~0.1 s.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

# Per-layer metrics of the traced run, keyed by span name.
LAYERS = {
    "sweep_f.sweep_incremental": ("self_s", "peak_mib"),
    "row_cancel.row_cancellation": ("self_s", "peak_mib"),
    "block_seq.block_sequential_sweep": ("self_s",),
    "block_seq.revised_one_block": ("self_s", "peak_mib"),
    "verify.verify_trace": ("self_s", "peak_mib"),
    "verify.verify_block_runs": ("self_s",),
    "sweep_z.sweep_over_z": ("self_s", "peak_mib"),
    "sweep_z.solve_min_leading": ("calls", "self_s"),
    "sweep_f.sweep_accumulated": ("self_s", "peak_mib"),
    "oracles.ilp_brute_force": ("calls", "self_s", "found_ratio"),
    "cmx.parse_cmx": ("calls", "self_s"),
    "cmx.serialize_cmx": ("calls", "self_s"),
    "core.validate": ("calls", "self_s"),
    "cli": ("self_s",),
    "row_cancel.reduce_complex": ("self_s",),
    "row_cancel.cancellation_schedule": ("self_s",),
    "tu.is_totally_unimodular": ("self_s",),
    "tu.sample_non_tu_witness": ("self_s",),
    "tu.is_surface_connection_matrix": ("self_s",),
    "oracles.pivot_rank_oracle": ("calls", "self_s"),
}

# Layers also reported per ladder rung of large-rational, with a growth fit.
RUNG_LAYERS = ("sweep_f.sweep_incremental", "row_cancel.row_cancellation",
               "block_seq.block_sequential_sweep", "block_seq.revised_one_block",
               "verify.verify_trace", "verify.verify_block_runs")

# Self-time shares that show which layers dominate a workload.
SHARES = {
    "share.sweep_verify_block": ("sweep_f.sweep_incremental",
                                 "row_cancel.row_cancellation",
                                 "block_seq.block_sequential_sweep",
                                 "block_seq.revised_one_block",
                                 "verify.verify_trace",
                                 "verify.verify_block_runs"),
    "share.sweep_z_ilp": ("sweep_z.sweep_over_z", "sweep_z.solve_min_leading",
                          "oracles.ilp_brute_force"),
    "share.cmx_core_cli": ("cmx.parse_cmx", "cmx.serialize_cmx",
                           "core.validate", "cli"),
}

UNITS = {"self_s": "s", "peak_mib": "MiB", "calls": "count",
         "found_ratio": "1", "growth_exp": "1"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _code_hash():
    """Identifies the code under test, so records are compared per version."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "connsweep"), BENCH):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as handle:
                    h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


class Session:
    """One workload run: set-up, passes over the corpus, checks, records."""

    def __init__(self, workload, seed, fault=None):
        import check
        import workloads
        from connsweep import cli

        self.check = check
        self.cli = cli
        self.build = workloads.WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.fault = fault
        self.planted = False
        self.workdir = os.path.join(
            STATE, f"{workload}-s{seed}-{os.getpid()}")
        self.corpus = None
        self.digests = {}
        self.counters = check.Counters()
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(list)  # job key -> wall time of each run

    def setup(self):
        """Builds the corpus; returns the wall time and a fingerprint."""
        start = time.perf_counter()
        corpus = self.build(self.seed, self.workdir)
        elapsed = time.perf_counter() - start
        h = hashlib.sha256()
        for key, inp in sorted(corpus.inputs.items()):
            with open(inp.path, "rb") as handle:
                h.update(key.encode() + handle.read())
            h.update(repr((sorted(inp.pivots), inp.final)).encode())
        self.corpus = corpus
        self.counters.values["input.nnz"] = sum(
            len(inp.matrix.entries) for inp in corpus.inputs.values())
        return elapsed, h.hexdigest()

    def execute(self, job, tracer):
        out = io.StringIO()
        error = None
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        rc = self.cli.main(list(job.argv))
                    else:
                        rc = tracer.run_job(job.key, self.cli.main, list(job.argv))
                finally:
                    elapsed = time.perf_counter() - start
        except (Exception, SystemExit):
            rc, error = None, traceback.format_exc()
        return rc, out.getvalue(), error, elapsed

    def run_job(self, job, tracer=None, first=False):
        """Runs and checks one job; returns its wall time."""
        rc, stdout, error, elapsed = self.execute(job, tracer)
        self.times[job.key].append(elapsed)
        self.attempted += 1
        inp = self.corpus.inputs[job.input]
        if self.fault and not self.planted:
            self.planted = self.check.plant(job, self.fault)
        bad = [error] if error else self.check.check_job(job, inp, rc, stdout)
        digest = self.check.artifact_digest(job, rc, stdout)
        if self.digests.setdefault(job.key, digest) != digest:
            bad.append("artifacts differ from an earlier run of this job")
        if first:
            self.counters.add_job(job, inp)
        if bad:
            self.failed += 1
            self.failures.append((job.key, bad))
        return elapsed

    def run_for_peaks(self, job, tracer):
        """Runs a job only for its memory peaks; its outputs were checked
        in the earlier passes, so only an error exit counts as a failure."""
        rc, _, error, _ = self.execute(job, tracer)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append((job.key, [error or f"exit code {rc}"]))

    def digest(self):
        h = hashlib.sha256()
        for job in self.corpus.jobs():
            h.update(f"{job.key} {self.digests[job.key]}\n".encode())
        return h.hexdigest()

    def compare_record(self):
        """Flags a digest or counter that differs from an earlier run of
        the same code, workload and seed in this checkout."""
        path = os.path.join(STATE, "records",
                            f"{self.workload}-s{self.seed}-{_code_hash()}.json")
        record = {"digest": self.digest(), "counters": self.counters.values}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                earlier = json.load(handle)
            for key in ("digest", "counters"):
                if earlier[key] != record[key]:
                    self.failed += 1
                    self.failures.append((f"record:{key}", [
                        f"{key} differs from an earlier run of the same code: "
                        f"{earlier[key]} != {record[key]}"]))
        elif not self.fault:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


TAIL_PERCENTILE = 90


def _tail(times):
    """The TAIL_PERCENTILE-th percentile, interpolated between order
    statistics, and how many samples lie beyond it."""
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1]
    return tail, sum(1 for t in times if t > tail)


def summarize(session):
    """End-to-end timings, counting every job of the corpus once.

    A job's time is the median of its runs, so the jobs a time-bounded run
    happens to repeat weigh no more than the others.
    """
    per_job = {key: statistics.median(runs)
               for key, runs in session.times.items()}
    times = list(per_job.values())
    rates = [len(batch) / sum(per_job[job.key] for job in batch)
             for batch in session.corpus.batches]
    tail, beyond = _tail(times)
    print(f"job_tail_ms is p{TAIL_PERCENTILE} of {len(times)} jobs, "
          f"{beyond} beyond it")
    return {
        "jobs_per_s": _metric(statistics.median(rates), "1/s"),
        "job_p50_ms": _metric(1000 * statistics.median(times), "ms"),
        "job_tail_ms": _metric(1000 * tail, "ms"),
    }


def untraced(session, seconds):
    setups = []
    fingerprints = set()
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        elapsed, fingerprint = session.setup()
        setups.append(elapsed)
        fingerprints.add(fingerprint)
    if len(fingerprints) != 1:
        session.failed += 1
        session.failures.append(("setup", ["set-up is not deterministic"]))
    start = time.perf_counter()
    for batch in session.corpus.batches:
        for job in batch:
            session.run_job(job, first=True)
    # Fill the rest of the run with whole repeat units, in turn, skipping
    # one whose jobs' median times no longer fit.
    units = session.corpus.repeat_units()
    at = repeated = 0
    while True:
        left = seconds - (time.perf_counter() - start)
        costs = [sum(statistics.median(session.times[job.key]) for job in unit)
                 for unit in units]
        if min(costs) > left:
            break
        while costs[at % len(units)] > left:
            at += 1
        for job in units[at % len(units)]:
            session.run_job(job)
        at += 1
        repeated += 1
    print(f"timed: {session.attempted} job runs, {repeated} groups repeated "
          f"after the first pass, {time.perf_counter() - start:.1f} s wall")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        **summarize(session),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _growth(points):
    """Least-squares slope of log(time) against log(m)."""
    pts = [(math.log(m), math.log(t)) for m, t in points if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def traced(session):
    import tracer as tr
    import workloads

    session.setup()
    # Each job runs untraced and traced back to back, alternating which goes
    # first, since a job's second run finds its output files already there.
    timing = tr.Tracer()
    plain = with_spans = 0.0
    for at, job in enumerate(session.corpus.jobs()):
        if at % 2:
            plain += session.run_job(job, first=True)
        timing.install()
        try:
            with_spans += session.run_job(job, timing)
        finally:
            timing.uninstall()
        if not at % 2:
            plain += session.run_job(job, first=True)
    memory = tr.Tracer(memory=True)
    memory.install()
    try:
        for job in session.corpus.memory_jobs():
            session.run_for_peaks(job, memory)
    finally:
        memory.uninstall()
    spans_dir = os.path.join(STATE, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    stem = os.path.join(spans_dir, f"{session.workload}-s{session.seed}")
    timing.write(stem + "-time.jsonl")
    memory.write(stem + "-mem.jsonl")

    job_m = {job.key: session.corpus.inputs[job.input].matrix.m
             for job in session.corpus.jobs()}
    self_s = defaultdict(float)
    calls = Counter()
    found = Counter()
    rung = defaultdict(float)
    rung_calls = Counter()
    total = 0.0
    for rec, own in zip(timing.spans, timing.self_times()):
        name = rec[tr.NAME]
        self_s[name] += own
        calls[name] += 1
        found[name] += rec[tr.FOUND]
        rung[name, job_m[rec[tr.JOB]]] += own
        rung_calls[name, job_m[rec[tr.JOB]]] += 1
        if rec[tr.PARENT] is None:
            total += rec[tr.END] - rec[tr.START]
    peak = defaultdict(int)
    for rec in memory.spans:
        peak[rec[tr.NAME]] = max(peak[rec[tr.NAME]], rec[tr.PEAK])

    metrics = {}
    for name, kinds in LAYERS.items():
        for kind in kinds:
            if kind == "self_s":
                value = self_s[name]
            elif kind == "peak_mib":
                value = peak[name] / 2 ** 20
            elif kind == "calls":
                value = calls[name]
            else:  # found_ratio
                value = found[name] / calls[name] if calls[name] else 0.0
            metrics[f"{name}.{kind}"] = _metric(value, UNITS[kind])
    for name in RUNG_LAYERS:
        points = [(m, rung[name, m]) for m in workloads.LADDER]
        for m, value in points:
            metrics[f"{name}.self_s.m{m}"] = _metric(value, "s")
            if rung_calls[name, m]:
                print(f"{name} at m={m}: "
                      f"{1000 * value / rung_calls[name, m]:.1f} ms self per "
                      f"call over {rung_calls[name, m]} calls")
        metrics[f"{name}.growth_exp"] = _metric(_growth(points), "1")
    for share, names in SHARES.items():
        metrics[share] = _metric(
            sum(self_s[n] for n in names) / total, "1")
    counters = dict(session.counters.values)
    problems = counters["kernel.problems"]
    counters["verify.kernel_checked_ratio"] = (
        found["oracles.ilp_brute_force"] / problems if problems else 0.0)
    for name, value in counters.items():
        unit = "1" if name.endswith("ratio") else "bit" if name.endswith(
            "bits") else "count"
        metrics[name] = _metric(value, unit)
    metrics["trace_overhead_frac"] = _metric(with_spans / plain - 1, "1")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=("pivot", "final"),
                        help="self-test: corrupt one artifact, which the "
                             "correctness gate must count as a failure")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "connsweep", "__init__.py")):
        print(f"error: no connsweep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed, args.plant)
    shutil.rmtree(session.workdir, ignore_errors=True)
    try:
        if args.trace:
            metrics = traced(session)
        else:
            metrics = untraced(session, args.seconds)
        session.compare_record()
    finally:
        session.close()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"digest {session.digest()}")
    for key, value in sorted(session.counters.values.items()):
        print(f"counter {key} {value}")
    print(f"failed_frac {session.failed / session.attempted:.6f} "
          f"({session.failed} of {session.attempted})")
    for key, reasons in session.failures[:10]:
        print(f"FAIL {key}: {reasons[0].strip().splitlines()[-1]}",
              file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    if args.plant and not session.planted:
        print(f"error: no artifact to plant a {args.plant} fault in",
              file=sys.stderr)
        return 2
    correct = session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
