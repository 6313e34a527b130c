"""Executors for the block-decomposed LBM runtime.

The distributed step is three rank-parallel phases with a barrier after
each one:

* ``collide``    — BGK-collide each rank's full padded block (reads own
  ``f``, writes own ``post``);
* ``halo_post``  — fill each rank's ``post`` halo rim from its
  neighbors' interiors (reads neighbor interiors, writes own rim),
  shipping only the populations the pull stream reads
  (:data:`repro.parallel.halo.PACKED_QS`);
* ``stream``     — pull-stream each rank's interior from its padded
  ``post`` (reads own ``post``, writes own ``f`` interior).

Every phase is race-free across ranks (disjoint write sets, and reads
never overlap another rank's writes within a phase), so the same
:class:`ChunkRunner` runs under both backends of
:mod:`repro.parallel.pool`:

* ``serial``     — :class:`SerialExecutor` loops over the ranks in the
  calling thread (the virtual runtime; zero extra machinery);
* ``processes``  — :class:`ProcessExecutor` pins contiguous rank chunks
  to a persistent worker pool for the life of the run, with every rank
  block living in a shared-memory segment so workers operate on the
  *same* memory the parent scatters/gathers.

This module holds the rank-block storage, the rank-local kernels and the
worker handler; pools, segments and backend resolution live in
:mod:`repro.parallel.pool`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..lbm.boundaries import BounceBackLinks, apply_bounce_back
from ..lbm.collision import CollisionScratch, collide_bgk
from ..lbm.lattice import D3Q19
from ..lbm.streaming import padded_upwind_solid_masks, stream_pull_padded
from .decomposition import BlockDecomposition
from .halo import fill_rank_halo
from .pool import (
    BACKENDS,
    ProcessPool,
    attach_segment,
    create_segment,
    serve,
    split_range,
    unlink_segments,
)

# ----------------------------------------------------------------------
# Rank block storage


def _padded_shape(decomp: BlockDecomposition, rank: int) -> tuple[int, ...]:
    lx, ly, lz = decomp.local_shape(rank)
    return (D3Q19.Q, lx + 2, ly + 2, lz + 2)


class RankBlocks:
    """Per-rank padded ``(f, post)`` arrays, optionally shared-memory backed.

    Each rank's pair lives in one buffer of shape ``(2, Q, lx+2, ly+2,
    lz+2)``: a plain ndarray for the serial backend, a shared-memory
    segment for the processes backend (workers attach by name and see
    the same bytes the parent scatters into).  Segments are unlinked on
    :meth:`close` and, as a safety net, by a GC finalizer.
    """

    def __init__(self, decomp: BlockDecomposition, shared: bool = False,
                 dtype=np.float64):
        self.decomp = decomp
        self.shared = bool(shared)
        self.dtype = np.dtype(dtype)
        self.f: list[np.ndarray] = []
        self.post: list[np.ndarray] = []
        self.segment_names: list[str] | None = [] if shared else None
        self._segments: list = []
        self._finalizer = weakref.finalize(
            self, unlink_segments, self._segments
        )
        for rank in range(decomp.n_tasks):
            shape = (2,) + _padded_shape(decomp, rank)
            if shared:
                shm = create_segment(int(np.prod(shape)) * self.dtype.itemsize)
                self._segments.append(shm)
                self.segment_names.append(shm.name)
                pair = np.ndarray(shape, dtype=self.dtype, buffer=shm.buf)
                pair.fill(0.0)
            else:
                pair = np.zeros(shape, dtype=self.dtype)
            self.f.append(pair[0])
            self.post.append(pair[1])

    def close(self) -> None:
        """Release shared-memory segments (idempotent).

        Clears the view lists *in place* so every holder of them drops
        its references too.
        """
        self.f.clear()
        self.post.clear()
        self._finalizer()


# ----------------------------------------------------------------------
# Rank-local kernels (shared by both backends)


class ChunkRunner:
    """Executes step phases for a fixed chunk of ranks.

    Owns the collision scratch for its ranks (one
    :class:`~repro.lbm.collision.CollisionScratch` per distinct block
    shape; chunks run their ranks sequentially, so scratch is reused
    across same-shaped blocks without races).

    ``solid`` maps rank -> padded rank-local solid array; when present,
    halfway bounce-back follows every stream so walled lattices run
    distributed.
    """

    def __init__(self, ranks, decomp: BlockDecomposition, tau: float,
                 solid: dict[int, np.ndarray] | None = None):
        self.ranks = list(ranks)
        self.decomp = decomp
        self.tau = float(tau)
        self.solid = solid
        self._links: dict[int, BounceBackLinks] = {}
        self._scratch: dict[tuple, CollisionScratch] = {}

    def _scratch_for(
        self, shape: tuple[int, ...], dtype=np.float64
    ) -> CollisionScratch:
        key = (shape, np.dtype(dtype))
        sc = self._scratch.get(key)
        if sc is None:
            sc = self._scratch[key] = CollisionScratch(shape, dtype=dtype)
        return sc

    def _stream(self, r: int, f_arrs, post_arrs) -> None:
        """Pull-stream one rank's interior, then bounce back at walls."""
        stream_pull_padded(post_arrs[r], out=f_arrs[r])
        if self.solid is None:
            return
        solid_padded = self.solid.get(r)
        if solid_padded is None:
            return
        links = self._links.get(r)
        if links is None:
            links = self._links[r] = BounceBackLinks(
                padded_upwind_solid_masks(solid_padded)
            )
        apply_bounce_back(f_arrs[r], post_arrs[r], links)

    def run(
        self,
        phase: str,
        f_arrs: list[np.ndarray],
        post_arrs: list[np.ndarray],
        parent_span: int | None = None,
    ) -> tuple[dict[int, float], list[tuple[int, int, int]], list[tuple]]:
        """Run one barriered phase over the chunk's ranks.

        Returns per-rank wall seconds, the halo transfer records (empty
        for compute phases), and — when the driver passed its trace
        ``parent_span`` id — one ``(rank, parent_span, t0, t1)`` span
        interval per rank, stamped on the shared monotonic clock so the
        driver can merge them into its timeline.
        """
        per_rank: dict[int, float] = {}
        transfers: list[tuple[int, int, int]] = []
        spans: list[tuple] = []
        for r in self.ranks:
            t0 = perf_counter()
            if phase == "collide":
                # Full padded block: the stale rim costs a sliver of
                # redundant flops but keeps the arrays contiguous (no
                # per-step ascontiguousarray copy); the halo fill then
                # overwrites the rim.
                collide_bgk(
                    f_arrs[r],
                    self.tau,
                    out=post_arrs[r],
                    scratch=self._scratch_for(
                        f_arrs[r].shape[1:], f_arrs[r].dtype
                    ),
                )
            elif phase == "halo_post":
                transfers.extend(fill_rank_halo(r, post_arrs, self.decomp))
            elif phase == "stream":
                self._stream(r, f_arrs, post_arrs)
            else:
                raise ValueError(f"unknown phase {phase!r}")
            t1 = perf_counter()
            per_rank[r] = t1 - t0
            if parent_span is not None:
                spans.append((r, parent_span, t0, t1))
        return per_rank, transfers, spans


@dataclass
class PhaseResult:
    """Aggregated outcome of one rank-parallel phase."""

    seconds_by_rank: dict[int, float] = field(default_factory=dict)
    #: ``(dst_rank, src_rank, nbytes)`` halo slab records.
    transfers: list[tuple[int, int, int]] = field(default_factory=list)
    #: ``(rank, parent_span_id, t0, t1)`` worker intervals; populated
    #: only when the driver requested tracing for the phase.
    spans: list[tuple] = field(default_factory=list)


# ----------------------------------------------------------------------
# Executors


class SerialExecutor:
    """Runs every rank in the calling thread (the virtual runtime)."""

    backend = "serial"
    n_workers = 1

    def __init__(self, blocks: RankBlocks, tau: float,
                 solid: dict[int, np.ndarray] | None = None):
        self.blocks = blocks
        self._runner = ChunkRunner(
            range(blocks.decomp.n_tasks), blocks.decomp, tau, solid=solid
        )

    def run_phase(self, phase: str,
                  parent_span: int | None = None) -> PhaseResult:
        return PhaseResult(*self._runner.run(
            phase, self.blocks.f, self.blocks.post, parent_span
        ))

    def close(self) -> None:
        pass


def _worker_main(conn, ranks, segment_names, decomp, tau, dtype,
                 solid) -> None:
    """Worker process: attach the shared blocks, serve phase commands.

    One worker is pinned to its rank chunk for the life of the run.  A
    command is ``(phase, parent_span_id)``; the reply is
    :meth:`ChunkRunner.run`'s result.
    """
    segments = [attach_segment(name) for name in segment_names]
    pairs = [
        np.ndarray((2,) + _padded_shape(decomp, rank), dtype=dtype,
                   buffer=shm.buf)
        for rank, shm in enumerate(segments)
    ]
    f_arrs = [pair[0] for pair in pairs]
    post_arrs = [pair[1] for pair in pairs]
    runner = ChunkRunner(ranks, decomp, tau, solid=solid)
    try:
        serve(conn, lambda msg: runner.run(msg[0], f_arrs, post_arrs, msg[1]))
    finally:
        # Views must die before the mapped buffers can be closed.
        f_arrs.clear()
        post_arrs.clear()
        pairs.clear()
        for shm in segments:
            shm.close()


class ProcessExecutor:
    """Persistent process pool over shared-memory rank blocks.

    Workers are pinned to contiguous rank chunks at start and keep their
    collision scratch hot across steps; each phase costs one tiny pipe
    round-trip per worker, with the lattice data itself never crossing
    the pipe (it lives in the shared segments).
    """

    backend = "processes"

    def __init__(self, blocks: RankBlocks, tau: float, n_workers: int,
                 solid: dict[int, np.ndarray] | None = None):
        if not blocks.shared:
            raise ValueError("processes backend requires shared rank blocks")
        self.blocks = blocks
        worker_args = []
        for lo, hi in split_range(blocks.decomp.n_tasks, n_workers):
            if hi == lo:
                continue
            ranks = range(lo, hi)
            chunk_solid = (
                None if solid is None
                else {r: solid[r] for r in ranks if r in solid}
            )
            worker_args.append((ranks, blocks.segment_names, blocks.decomp,
                                tau, blocks.dtype, chunk_solid))
        self._pool = ProcessPool(_worker_main, worker_args, name="repro-rank")
        self.n_workers = self._pool.n_workers

    @property
    def _procs(self) -> list:
        return self._pool.procs

    def run_phase(self, phase: str,
                  parent_span: int | None = None) -> PhaseResult:
        result = PhaseResult()
        for per_rank, transfers, spans in self._pool.broadcast(
            (phase, parent_span)
        ):
            result.seconds_by_rank.update(per_rank)
            result.transfers.extend(transfers)
            result.spans.extend(spans)
        return result

    def close(self) -> None:
        self._pool.close()


def make_executor(
    backend: str,
    blocks: RankBlocks,
    tau: float,
    n_workers: int,
    solid: dict[int, np.ndarray] | None = None,
):
    """Build the executor for a resolved backend name."""
    if backend == "serial":
        return SerialExecutor(blocks, tau, solid=solid)
    if backend == "processes":
        return ProcessExecutor(blocks, tau, n_workers, solid=solid)
    raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
