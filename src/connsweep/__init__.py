"""Exact-arithmetic sweeping and cancellation algorithms for filtered
connection matrices, with oracle-backed verification and a CLI."""

from .block_seq import (BlockRun, BlockTrace, block_runs,
                        block_sequential_sweep, revised_one_block)
from .cmx import parse_cmx, serialize_cmx
from .core import (CHANGE_OF_BASIS, PRIMARY, AlgorithmError, CmxError,
                   ConnectionMatrix, ConnSweepError, InvalidMatrixError,
                   KernelProblem, Mark, MarkRegistry, PreconditionError,
                   SweepTrace, Violation, allowable_pattern, marks_on_diagonal,
                   require_valid, validate)
from .oracles import (IlpWitness, RandomSpec, ilp_brute_force,
                      pivot_rank_oracle, random_connection_matrix)
from .row_cancel import (ReductionStep, ReductionTrace,
                         block_sequential_row_cancellation,
                         cancellation_schedule, rc_transition_ops,
                         reduce_complex, row_cancellation,
                         smale_cancellation_sweep)
from .sweep_f import sweep_accumulated, sweep_incremental, transition_ops
from .sweep_z import solve_min_leading, sweep_over_z
from .tu import (SizeGuardError, SurfaceProfile, SurfaceRejection,
                 TuCounterexample, betti_over_q, generate_surface_matrix,
                 is_surface_connection_matrix, is_totally_unimodular,
                 sample_non_tu_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
