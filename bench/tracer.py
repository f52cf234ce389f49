"""Spans around calls into connsweep's public functions, recorded from outside.

Nothing under src/ knows about tracing. Each target function is replaced, in
every connsweep module namespace that holds it and in the CLI's runner table,
by a wrapper that records a span: name, start, end, parent span and job id.
A span's self time is its duration minus the time its child spans cover.

Peak memory per span comes from tracemalloc, which slows the program
several-fold, so it is only switched on for a separate pass whose timings
are not reported.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

# <module>.<function> under connsweep; the metric names use the same form.
TARGETS = (
    "sweep_f.sweep_incremental",
    "sweep_f.sweep_accumulated",
    "row_cancel.row_cancellation",
    "row_cancel.reduce_complex",
    "row_cancel.cancellation_schedule",
    "block_seq.block_sequential_sweep",
    "block_seq.revised_one_block",
    "sweep_z.sweep_over_z",
    "sweep_z.solve_min_leading",
    "verify.verify_trace",
    "verify.verify_block_runs",
    "oracles.ilp_brute_force",
    "oracles.pivot_rank_oracle",
    "cmx.parse_cmx",
    "cmx.serialize_cmx",
    "core.validate",
    "tu.is_totally_unimodular",
    "tu.sample_non_tu_witness",
    "tu.is_surface_connection_matrix",
)

JOB_SPAN = "cli"

# Fields of one span record.
NAME, START, END, PARENT, JOB, PEAK, FOUND = range(7)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._mem = []  # [base bytes, high-water bytes] per open span
        self._patches = []
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.job, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                base, high = self._mem.pop()
                high = max(high, tracemalloc.get_traced_memory()[1])
                rec[PEAK] = high - base
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], high)
                tracemalloc.reset_peak()
        rec[FOUND] = result is not None
        return result

    def run_job(self, job_id, fn, *args):
        self.job = job_id
        try:
            return self.call(JOB_SPAN, fn, *args)
        finally:
            self.job = None

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        importlib.import_module("connsweep.cli")
        namespaces = [vars(mod) for key, mod in sorted(sys.modules.items())
                      if key == "connsweep" or key.startswith("connsweep.")]
        namespaces.append(sys.modules["connsweep.cli"]._RUNNERS)
        for target in TARGETS:
            module, function = target.split(".")
            original = getattr(importlib.import_module("connsweep." + module),
                               function)
            wrapper = self._wrap(target, original)
            for space in namespaces:
                for key, value in list(space.items()):
                    if value is original:
                        self._patches.append((space, key, original))
                        space[key] = wrapper
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for space, key, original in reversed(self._patches):
            space[key] = original
        self._patches.clear()

    def self_times(self):
        """Self time of every span, parallel to self.spans."""
        out = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] is not None:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "job": rec[JOB],
                    "peak_bytes": rec[PEAK]}) + "\n")
