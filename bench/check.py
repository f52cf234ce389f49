"""Correctness gate and output-derived counters, independent of verify.txt.

Every job is checked against reference answers computed in set-up:

- exit code 0, no exception, no FAIL line in verify.txt;
- pivot positions in pivots.txt equal the rank-jump oracle's;
- final.cmx equals the incremental sweep's final matrix for the algorithms
  proven to reach it;
- surface inputs are accepted by `surface check`, get "totally unimodular"
  or "unfalsified" from `tu check`, and `oracle pivots` prints the oracle.

The counters are read from the artifacts, so they repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction

from workloads import FINAL_EQUALS_INCREMENTAL


def artifact_digest(job, rc, stdout):
    """sha256 over the exit code, stdout and every file the job wrote."""
    h = hashlib.sha256(f"{job.key}\0{rc}\0{stdout}\0".encode())
    if job.outdir and os.path.isdir(job.outdir):
        for root, dirs, files in os.walk(job.outdir):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, job.outdir).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def check_job(job, inp, rc, stdout):
    """List of reasons the job's outputs are wrong (empty when correct)."""
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}")
    if job.kind == "run":
        verify = _read(os.path.join(job.outdir, "verify.txt"))
        if verify is None:
            bad.append("verify.txt missing")
        else:
            bad += [line for line in verify.splitlines()
                    if line.startswith("FAIL")]
        pivots = _read(os.path.join(job.outdir, "pivots.txt"))
        got = None if pivots is None else {
            (int(f[2]), int(f[3])) for f in map(str.split, pivots.splitlines())}
        if got != inp.pivots:
            bad.append("pivot positions differ from the rank-jump oracle")
        if job.algorithm in FINAL_EQUALS_INCREMENTAL:
            if _read(os.path.join(job.outdir, "final.cmx")) != inp.final:
                bad.append("final.cmx differs from the incremental sweep's")
    elif job.kind == "surface":
        if not stdout.startswith("surface connection matrix:"):
            bad.append(f"surface check: {stdout.strip()!r}")
    elif job.kind == "tu":
        if not (stdout == "totally unimodular\n"
                or stdout.startswith("unfalsified")):
            bad.append(f"tu check: {stdout.strip()!r}")
    elif job.kind == "oracle":
        want = "".join(f"pivot {i} {j}\n" for (i, j) in sorted(inp.pivots))
        if stdout != want:
            bad.append("oracle pivots output differs from the oracle")
    return bad


def plant(job, fault):
    """Corrupt one artifact the way a wrong answer would; True if planted."""
    if job.kind != "run":
        return False
    if fault == "pivot":
        path = os.path.join(job.outdir, "pivots.txt")
        lines = _read(path).splitlines()
        if not lines:
            return False
        _, r, i, j, v = lines[0].split()
        lines[0] = f"pivot {r} {int(i) - 1 if int(i) > 1 else 2} {j} {v}"
    elif fault == "final" and job.algorithm in FINAL_EQUALS_INCREMENTAL:
        path = os.path.join(job.outdir, "final.cmx")
        lines = _read(path).splitlines()
        at = next((n for n, line in enumerate(lines)
                   if line.startswith("entry")), None)
        if at is None:
            return False
        _, i, j, v = lines[at].split()
        lines[at] = f"entry {i} {j} {Fraction(v) * 2}"
    else:
        return False
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return True


class Counters:
    """Output-derived counts over the distinct jobs of one pass."""

    def __init__(self):
        self.values = {"input.nnz": 0, "marks.primary": 0,
                       "marks.change_of_basis": 0, "kernel.problems": 0,
                       "kernel.max_c": 0, "final.max_bits": 0}

    def add_job(self, job, inp):
        if job.kind != "run":
            return
        v = self.values
        matrix = inp.matrix
        for line in (_read(os.path.join(job.outdir, "trace.txt")) or "").splitlines():
            if not line.startswith("mark "):
                continue
            _, kind, _, j, _ = line.split()
            if kind == "primary":
                v["marks.primary"] += 1
                continue
            v["marks.change_of_basis"] += 1
            if job.algorithm == "z":
                # each change-of-basis mark poses one kernel problem over the
                # columns of its chain group up to and including its own
                j = int(j)
                group = matrix.partition[matrix.chain_index(j)]
                v["kernel.problems"] += 1
                v["kernel.max_c"] = max(v["kernel.max_c"],
                                        sum(1 for col in group if col <= j))
        for line in (_read(os.path.join(job.outdir, "final.cmx")) or "").splitlines():
            if line.startswith("entry"):
                q = Fraction(line.split()[3])
                v["final.max_bits"] = max(v["final.max_bits"],
                                          abs(q.numerator).bit_length(),
                                          q.denominator.bit_length())
