"""Distributed LBM solver over the parallel rank runtime.

Each rank owns a block of a periodic, uniformly split global lattice in
a one-node-padded local array; a step is three barrier-separated
rank-parallel phases run by an executor (``serial`` | ``processes``;
see :mod:`repro.parallel.executor`): collide, ship the post-collision
halo layers the pull stream reads from each neighbor (5 populations
per face, 1 per edge — a ~4x volume cut over the full rim, see
:data:`repro.parallel.halo.PACKED_QS`), then pull-stream.

The step reproduces the single-grid solver bit-for-bit (asserted in the
test suite) — with walls (``solid=``), bitwise on the fluid nodes — and
the :class:`~repro.parallel.halo.HaloAccountant` counters measure
exactly the communication volume a real MPI run would ship — the
quantity the strong-scaling breakdown of Fig. 7 hinges on.
"""

from __future__ import annotations

import numpy as np

from ..kernels import resolve_dtype
from ..lbm.lattice import D3Q19
from ..telemetry import get_telemetry
from .decomposition import BlockDecomposition
from .executor import RankBlocks, make_executor
from .halo import HaloAccountant
from .pool import resolve_backend


class DistributedLBMSolver:
    """LBM lattice stepped as ``n_tasks`` cooperating ranks.

    Parameters
    ----------
    shape:
        Global lattice shape (periodic; walls come from ``solid``).
    tau:
        Uniform relaxation time.
    n_tasks:
        Number of ranks (subdomains).
    backend:
        ``"serial"`` (the default, also for ``None``) or ``"processes"``.
    n_workers:
        Worker count of the process pool; ``None`` means one per CPU.
        Capped at ``n_tasks``; the serial backend runs one.
    dtype:
        Compute dtype for the rank-local distribution blocks
        (``"float32"`` | ``"float64"``; ``None`` resolves via
        ``REPRO_DTYPE``; an explicit argument wins — same policy as
        :class:`~repro.lbm.grid.Grid`).
    solid:
        Optional global boolean wall map; walls get halfway bounce-back
        after every stream, matching the single-grid
        :class:`~repro.lbm.boundaries.BounceBackWalls` bitwise.

    The processes backend holds OS resources (worker processes and
    shared-memory segments): call :meth:`close` when done, or use the
    solver as a context manager.  A GC finalizer cleans up as a safety
    net.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        tau: float,
        n_tasks: int,
        backend: str | None = None,
        n_workers: int | None = None,
        dtype=None,
        solid: np.ndarray | None = None,
    ):
        self.shape = tuple(shape)
        self.tau = float(tau)
        if solid is not None:
            solid = np.asarray(solid, dtype=bool)
            if solid.shape != self.shape:
                raise ValueError(
                    f"solid map shape {solid.shape} != lattice {self.shape}"
                )
        self.solid = solid
        self.decomp = BlockDecomposition(shape, n_tasks)
        self.halo = HaloAccountant(self.decomp)
        self.backend, self.n_workers = resolve_backend(
            backend, n_workers, n_tasks
        )
        self.dtype = resolve_dtype(dtype)
        self.blocks = RankBlocks(
            self.decomp, shared=(self.backend == "processes"),
            dtype=self.dtype,
        )
        rank_solid = None
        if solid is not None:
            rank_solid = {
                rank: self._padded_solid(rank)
                for rank in range(n_tasks)
            }
        self.executor = make_executor(
            self.backend, self.blocks, self.tau, self.n_workers,
            solid=rank_solid,
        )
        self.step_count = 0
        self._steps_at_reset = 0

    # ------------------------------------------------------------------
    def _padded_solid(self, rank: int) -> np.ndarray:
        """Rank-local solid map including the one-node halo rim.

        The rim wraps the global map around periodically (the same
        values ``np.roll`` would see).
        """
        b = self.decomp.block(rank)
        return self.solid[np.ix_(*(
            np.arange(b.lo[d] - 1, b.hi[d] + 1) % self.shape[d]
            for d in range(3)
        ))]

    # ------------------------------------------------------------------
    def scatter(self, f_global: np.ndarray) -> None:
        """Distribute a global distribution array to the rank blocks."""
        if f_global.shape != (D3Q19.Q,) + self.shape:
            raise ValueError("global array shape mismatch")
        for rank, arr in enumerate(self.blocks.f):
            b = self.decomp.block(rank)
            arr[:, 1:-1, 1:-1, 1:-1] = f_global[
                :, b.lo[0] : b.hi[0], b.lo[1] : b.hi[1], b.lo[2] : b.hi[2]
            ]

    def gather(self) -> np.ndarray:
        """Reassemble the global distribution array from all ranks."""
        out = np.empty((D3Q19.Q,) + self.shape, dtype=self.dtype)
        for rank, arr in enumerate(self.blocks.f):
            b = self.decomp.block(rank)
            out[:, b.lo[0] : b.hi[0], b.lo[1] : b.hi[1], b.lo[2] : b.hi[2]] = arr[
                :, 1:-1, 1:-1, 1:-1
            ]
        return out

    # ------------------------------------------------------------------
    def _run_traced(self, tel, phase_path: str, exec_phase: str):
        """Run one executor phase under a driver phase/span.

        With tracing on, the driver's open span id travels to the
        workers (through the Pipe for the processes backend) and their
        returned span intervals are merged into the driver's timeline as
        child spans — one track per rank, all on the shared monotonic
        clock.
        """
        tracer = tel.tracer
        with tel.phase(phase_path):
            res = self.executor.run_phase(
                exec_phase, None if tracer is None else tracer.current_id
            )
        if tracer is not None:
            for rank, parent, t0, t1 in res.spans:
                tracer.add(exec_phase, t0, t1, parent_id=parent,
                           rank=rank, category="worker")
        return res

    def _step(self, tel) -> None:
        """One step: three barriered executor phases."""
        res_collide = self._run_traced(tel, "dist/collide", "collide")
        res_halo = self._run_traced(tel, "dist/halo", "halo_post")
        res_stream = self._run_traced(tel, "dist/stream", "stream")

        self.halo.record(res_halo.transfers)
        tel.inc("comm.bytes_sent", self.last_step_bytes)
        tel.inc("comm.messages", self.last_step_messages)
        tel.inc("comm.slabs", self.last_step_slabs)
        if tel.enabled:
            tel.record_rank_seconds(
                "dist/collide", res_collide.seconds_by_rank
            )
            tel.record_rank_seconds("dist/halo", res_halo.seconds_by_rank)
            tel.record_rank_seconds(
                "dist/stream", res_stream.seconds_by_rank
            )

    def step(self, n: int = 1) -> None:
        """Advance the lattice by ``n`` time steps."""
        tel = get_telemetry()
        for _ in range(n):
            self._step(tel)
            self.step_count += 1

    # ------------------------------------------------------------------
    @property
    def last_step_bytes(self) -> int:
        """Bytes shipped by the most recent step's halo exchange."""
        return self.halo.last_exchange_bytes

    @property
    def last_step_messages(self) -> int:
        """Coalesced per-neighbor-pair messages of the most recent step."""
        return self.halo.last_exchange_messages

    @property
    def last_step_slabs(self) -> int:
        """Raw q-direction slab copies of the most recent step."""
        return self.halo.last_exchange_slabs

    def bytes_per_step(self) -> float:
        """Average bytes shipped per step since the last counter reset."""
        steps = self.step_count - self._steps_at_reset
        if steps == 0:
            return 0.0
        return self.halo.counters.bytes_sent / steps

    def reset_counters(self) -> None:
        """Zero the comm counters for a new bench phase.

        ``bytes_per_step`` then averages over the steps taken *after*
        this call, so one solver can be reused across phases without
        earlier traffic polluting later readings.
        """
        self.halo.reset()
        self._steps_at_reset = self.step_count

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool and release shared memory."""
        self.executor.close()
        self.blocks.close()

    def __enter__(self) -> "DistributedLBMSolver":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
