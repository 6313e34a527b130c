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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".decomposition": (
        "BlockDecomposition",
        "balanced_dims",
        "weighted_splits",
    ),
    ".halo": ("PACKED_QS", "CommCounters", "HaloAccountant", "fill_rank_halo"),
    ".pool": ("BACKENDS", "resolve_backend"),
    ".executor": (
        "ProcessExecutor",
        "RankBlocks",
        "SerialExecutor",
        "make_executor",
    ),
    ".distributed": ("HALO_MODES", "DistributedLBMSolver"),
    ".fsi": ("FSI_PHASES", "ParallelFSIRuntime", "resolve_fsi_backend"),
    ".measure": (
        "measure_throughput",
        "measured_scaling_curve",
        "measured_weak_scaling",
    ),
    ".taskmap": ("TaskMap", "summit_task_map"),
})
