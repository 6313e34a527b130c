"""Parallel LBM runtime (in-process stand-in for Summit's MPI execution).

The paper runs HARVEY on Summit with 42 MPI tasks per node (36 CPU bulk
tasks + 6 GPU window tasks).  This package reproduces the *parallel
structure* and executes it: a uniform periodic block decomposition with
a direction-aware packed D3Q19 halo exchange, a distributed LBM solver
that is bit-identical to the single-grid solver and steps its ranks
inline (``serial``, the default) or, when the ``backend`` argument asks
for it, on a persistent shared-memory worker pool (``processes``,
:mod:`repro.parallel.pool`), the cell-side FSI runtime (inline,
:mod:`repro.parallel.fsi`), per-task byte/message/slab accounting, and
the CPU/GPU task-mapping rules.  (The paper's
recompute-instead-of-communicate trick is about the forces of IBM halo
*cells*, not lattice halos; ``benchmarks/bench_ablation_comm.py``
models it.)  The counted halo bytes validate the communication
structure of the scaling model in :mod:`repro.perfmodel` (Figs. 7-8);
no wall-clock time measured here feeds it.  See
``docs/parallel_and_models.md`` and ``docs/performance.md`` ("Backend
decisions" records why there are exactly two backends and one step
pipeline).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".decomposition": ("BlockDecomposition", "balanced_dims"),
    ".halo": ("PACKED_QS", "CommCounters", "HaloAccountant", "fill_rank_halo"),
    ".pool": ("BACKENDS", "resolve_backend"),
    ".executor": (
        "ProcessExecutor",
        "RankBlocks",
        "SerialExecutor",
        "make_executor",
    ),
    ".distributed": ("DistributedLBMSolver",),
    ".fsi": ("ParallelFSIRuntime", "resolve_fsi_backend"),
    ".taskmap": ("TaskMap", "summit_task_map"),
})
