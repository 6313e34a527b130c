"""Parallel LBM runtime (in-process stand-in for Summit's MPI execution).

The paper runs HARVEY on Summit with 42 MPI tasks per node (36 CPU bulk
tasks + 6 GPU window tasks).  This package reproduces the *parallel
structure* and executes it: a block domain decomposition with D3Q19
halo handling (direction-aware packed, optionally fluid-weighted), a
distributed LBM solver that is bit-identical to the single-grid solver
and steps its ranks inline (``serial``) or on a persistent
shared-memory worker pool (``processes``), the cell-side FSI runtime on
the same pool substrate (:mod:`repro.parallel.pool`), per-task
byte/message/slab accounting, the paper's halo *recompute* mode, and
the CPU/GPU task-mapping rules.  Measured communication volumes and
wall-clock throughput feed the scaling analysis of
:mod:`repro.perfmodel` (Figs. 7-8); see ``docs/parallel_and_models.md``
and ``docs/performance.md`` ("Backend decisions" records why there are
exactly two backends and one step pipeline).
"""

from .decomposition import BlockDecomposition, balanced_dims, weighted_splits
from .halo import PACKED_QS, CommCounters, HaloAccountant, fill_rank_halo
from .pool import BACKENDS, resolve_backend
from .executor import (
    ProcessExecutor,
    RankBlocks,
    SerialExecutor,
    make_executor,
)
from .distributed import HALO_MODES, DistributedLBMSolver
from .fsi import FSI_PHASES, ParallelFSIRuntime, resolve_fsi_backend
from .measure import (
    measure_throughput,
    measured_scaling_curve,
    measured_weak_scaling,
)
from .taskmap import TaskMap, summit_task_map

__all__ = [
    "BACKENDS",
    "HALO_MODES",
    "PACKED_QS",
    "BlockDecomposition",
    "balanced_dims",
    "weighted_splits",
    "CommCounters",
    "HaloAccountant",
    "fill_rank_halo",
    "RankBlocks",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "resolve_backend",
    "DistributedLBMSolver",
    "FSI_PHASES",
    "ParallelFSIRuntime",
    "resolve_fsi_backend",
    "measure_throughput",
    "measured_scaling_curve",
    "measured_weak_scaling",
    "TaskMap",
    "summit_task_map",
]
