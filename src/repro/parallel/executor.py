"""Executor backends for the block-decomposed LBM runtime.

The barriered distributed step is three rank-parallel phases with a
barrier after each one:

* ``collide``    — BGK-collide each rank's full padded block (reads own
  ``f``, writes own ``post``);
* ``halo_f`` / ``halo_post`` — fill each rank's halo rim from its
  neighbors' interiors (reads neighbor interiors, writes own rim);
* ``stream``     — pull-stream each rank's interior from its padded
  ``post`` (reads own ``post``, writes own ``f`` interior).

The fused ``step`` phase collapses those into ONE executor round-trip
with a single worker-side barrier: in exchange mode every rank collides
its one-node rim first, then — after the barrier guarantees all rims are
posted — fills its halo (the packed rim ships while other chunks are
still deep in their interior collide), collides the deep interior, and
streams; in recompute mode the pre-collision ``f`` rim is exchanged
first, then the full collide+stream runs behind the barrier.  Race
freedom is unchanged: the halo fill reads only neighbor *rim-interior*
layers written before the barrier, and the post-barrier writes touch
only deep-interior ``post`` and own ``f``.

Every phase is race-free across ranks (disjoint write sets, and reads
never overlap another rank's writes within a phase), so the same kernels
run under three interchangeable backends:

* ``serial``     — loop over ranks in the calling thread (the virtual
  runtime; zero extra machinery);
* ``threads``    — a persistent :class:`~concurrent.futures.ThreadPoolExecutor`
  over per-worker rank chunks (NumPy kernels release the GIL for large
  copies/BLAS calls);
* ``processes``  — a persistent ``multiprocessing`` worker pool pinned to
  rank chunks for the life of the run, with every rank block living in a
  :mod:`multiprocessing.shared_memory` segment so workers operate on the
  *same* memory the parent scatters/gathers — the in-process analogue of
  the paper's 36-CPU-tasks-per-node layout (Section 2.4.4).

Backends are selected per solver or globally via the
``REPRO_PARALLEL_BACKEND`` / ``REPRO_PARALLEL_WORKERS`` environment
variables (used by CI to re-run the parallel suite under the processes
backend).
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from ..lbm.boundaries import apply_bounce_back
from ..lbm.collision import (
    CollisionScratch,
    collide_bgk,
    collide_bgk_interior,
    collide_bgk_rim,
    moments,
)
from ..lbm.lattice import D3Q19
from ..lbm.streaming import (
    _INTERIOR,
    padded_upwind_solid_masks,
    stream_pull_padded,
)
from .decomposition import BlockDecomposition
from .halo import fill_rank_halo

#: Supported executor backends, in increasing order of machinery.
BACKENDS = ("serial", "threads", "processes")

#: Step phases an executor can run (halo variant depends on the mode);
#: ``step`` is the fused single-round-trip pipeline.
PHASES = ("collide", "halo_f", "halo_post", "stream", "step")

#: Sub-phase names the fused ``step`` reports per-rank seconds under.
STEP_SUBPHASES = ("collide", "halo", "stream")


def resolve_backend(
    backend: str | None,
    n_workers: int | None,
    n_tasks: int,
) -> tuple[str, int]:
    """Resolve backend/worker-count requests against env and hardware.

    ``None`` values fall back to ``REPRO_PARALLEL_BACKEND`` (default
    ``serial``) and ``REPRO_PARALLEL_WORKERS`` (default: one worker per
    CPU, capped at the rank count).
    """
    if backend is None:
        backend = os.environ.get("REPRO_PARALLEL_BACKEND", "serial")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    if n_workers is None:
        env = os.environ.get("REPRO_PARALLEL_WORKERS")
        n_workers = int(env) if env else (os.cpu_count() or 1)
    n_workers = max(1, min(int(n_workers), n_tasks))
    if backend == "serial":
        n_workers = 1
    return backend, n_workers


# ----------------------------------------------------------------------
# Rank block storage


def _padded_shape(decomp: BlockDecomposition, rank: int) -> tuple[int, ...]:
    lx, ly, lz = decomp.local_shape(rank)
    return (D3Q19.Q, lx + 2, ly + 2, lz + 2)


def _unlink_segments(segments: list) -> None:
    for shm in segments:
        try:
            shm.close()
        except BufferError:
            # A live ndarray view still maps the buffer; unlinking below
            # removes the name anyway and the OS frees the memory when
            # the last mapping dies.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class RankBlocks:
    """Per-rank padded ``(f, post)`` arrays, optionally shared-memory backed.

    Each rank's pair lives in one buffer of shape ``(2, Q, lx+2, ly+2,
    lz+2)``: plain ndarrays for the serial/threads backends, a
    :class:`~multiprocessing.shared_memory.SharedMemory` segment for the
    processes backend (workers attach by name and see the same bytes the
    parent scatters into).  Segments are unlinked on :meth:`close` and,
    as a safety net, by a GC finalizer.
    """

    def __init__(self, decomp: BlockDecomposition, shared: bool = False,
                 dtype=np.float64):
        self.decomp = decomp
        self.shared = bool(shared)
        self.dtype = np.dtype(dtype)
        self.f: list[np.ndarray] = []
        self.post: list[np.ndarray] = []
        self.segment_names: list[str] | None = [] if shared else None
        self._segments: list[shared_memory.SharedMemory] = []
        for rank in range(decomp.n_tasks):
            shape = (2,) + _padded_shape(decomp, rank)
            if shared:
                shm = shared_memory.SharedMemory(
                    create=True,
                    size=int(np.prod(shape)) * self.dtype.itemsize,
                )
                self._segments.append(shm)
                self.segment_names.append(shm.name)
                pair = np.ndarray(shape, dtype=self.dtype, buffer=shm.buf)
                pair.fill(0.0)
            else:
                pair = np.zeros(shape, dtype=self.dtype)
            self.f.append(pair[0])
            self.post.append(pair[1])
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segments
        )

    def close(self) -> None:
        """Release shared-memory segments (idempotent).

        Clears the view lists *in place* so aliases (the solver's
        ``locals``) drop their references too.
        """
        self.f.clear()
        self.post.clear()
        self._finalizer()


# ----------------------------------------------------------------------
# Rank-local kernels (shared by every backend and the worker processes)


class ChunkRunner:
    """Executes step phases for a fixed chunk of ranks.

    Owns the collision scratch for its ranks (one
    :class:`~repro.lbm.collision.CollisionScratch` per distinct block or
    slab shape: the ``rho``/``mom``/``u``/``den`` rows, three
    panel-sized GEMM buffers, and — for strided slab views — the pack
    buffers.  Chunks run their ranks sequentially, so scratch is reused
    across same-shaped blocks without races).

    ``pack`` enables direction-aware packing of post-collision halo
    fills (the ``f`` pre-exchange of recompute mode always ships the
    full rim it needs).  ``solid`` maps rank -> padded rank-local solid
    array; when present, halfway bounce-back follows every stream so
    walled lattices run distributed.
    """

    def __init__(self, ranks: list[int], decomp: BlockDecomposition,
                 tau: float, halo_mode: str = "exchange", pack: bool = False,
                 solid: dict[int, np.ndarray] | None = None):
        self.ranks = list(ranks)
        self.decomp = decomp
        self.tau = float(tau)
        self.halo_mode = halo_mode
        self.pack = bool(pack)
        self.solid = solid
        self._masks: dict[int, np.ndarray] = {}
        self._scratch: dict[tuple, CollisionScratch] = {}
        #: Per-rank cached full-block ``(rho, mom)`` buffers for the
        #: fused split schedule: rim and interior collides share ONE
        #: full-block moment pass instead of one per slab.
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _moments_for(self, r: int, f: np.ndarray):
        bufs = self._moments.get(r)
        if bufs is None or bufs[0].shape != f.shape[1:] \
                or bufs[0].dtype != f.dtype:
            bufs = self._moments[r] = (
                np.empty(f.shape[1:], dtype=f.dtype),
                np.empty((3,) + f.shape[1:], dtype=f.dtype),
            )
        return moments(f, out_rho=bufs[0], out_mom=bufs[1])

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
        masks = self._masks.get(r)
        if masks is None:
            masks = self._masks[r] = padded_upwind_solid_masks(solid_padded)
        idx = (slice(None),) + _INTERIOR
        apply_bounce_back(f_arrs[r][idx], post_arrs[r][idx], masks)

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
                # per-step ascontiguousarray copy).  In exchange mode the
                # rim is overwritten by the halo fill; in recompute mode
                # the rim was pre-exchanged, so colliding it *is* the
                # paper's recompute-instead-of-communicate trick.
                collide_bgk(
                    f_arrs[r],
                    self.tau,
                    out=post_arrs[r],
                    scratch=self._scratch_for(
                        f_arrs[r].shape[1:], f_arrs[r].dtype
                    ),
                )
            elif phase == "halo_f":
                transfers.extend(fill_rank_halo(r, f_arrs, self.decomp))
            elif phase == "halo_post":
                transfers.extend(
                    fill_rank_halo(r, post_arrs, self.decomp, pack=self.pack)
                )
            elif phase == "stream":
                self._stream(r, f_arrs, post_arrs)
            else:
                raise ValueError(f"unknown phase {phase!r}")
            t1 = perf_counter()
            per_rank[r] = t1 - t0
            if parent_span is not None:
                spans.append((r, parent_span, t0, t1))
        return per_rank, transfers, spans

    def run_step(
        self,
        f_arrs: list[np.ndarray],
        post_arrs: list[np.ndarray],
        parent_span: int | None = None,
        barrier=None,
    ) -> tuple[dict[int, float], list[tuple[int, int, int]], list[tuple],
               dict[str, dict[int, float]], float]:
        """Run one fused LBM step over the chunk's ranks.

        The single ``barrier`` wait separates the pre-exchange writes
        (rim collide in exchange mode, ``f`` rim fill in recompute mode)
        from the reads that depend on *other* chunks having finished
        theirs.  Returns ``(seconds_by_rank, transfers, spans,
        per_subphase_seconds, barrier_wait_seconds)``; spans carry the
        sub-phase name as a 5th element.
        """
        per_phase: dict[str, dict[int, float]] = {
            name: {} for name in STEP_SUBPHASES
        }
        transfers: list[tuple[int, int, int]] = []
        spans: list[tuple] = []

        def mark(r: int, name: str, t0: float, t1: float) -> None:
            acc = per_phase[name]
            acc[r] = acc.get(r, 0.0) + (t1 - t0)
            if parent_span is not None:
                spans.append((r, parent_span, t0, t1, name))

        if self.halo_mode == "exchange":
            # Rim first: its post-collision values are all any neighbor
            # ever reads, so the exchange can start as soon as every
            # chunk clears the barrier — while interiors still collide.
            for r in self.ranks:
                t0 = perf_counter()
                collide_bgk_rim(
                    f_arrs[r], self.tau, out=post_arrs[r],
                    scratch_for=self._scratch_for,
                    moments_in=self._moments_for(r, f_arrs[r]),
                )
                mark(r, "collide", t0, perf_counter())
            wait_s = self._barrier_wait(barrier)
            for r in self.ranks:
                t0 = perf_counter()
                transfers.extend(
                    fill_rank_halo(r, post_arrs, self.decomp, pack=self.pack)
                )
                t1 = perf_counter()
                mark(r, "halo", t0, t1)
                collide_bgk_interior(
                    f_arrs[r], self.tau, out=post_arrs[r],
                    scratch_for=self._scratch_for,
                    moments_in=self._moments[r],
                )
                t2 = perf_counter()
                mark(r, "collide", t1, t2)
                self._stream(r, f_arrs, post_arrs)
                mark(r, "stream", t2, perf_counter())
        elif self.halo_mode == "recompute":
            # Pre-exchange the full f rim, then collide everything
            # (ghost rim included — the recompute trick) and stream.
            # The barrier keeps this step's stream writes off the f
            # rim-interior layers other chunks are still reading.
            for r in self.ranks:
                t0 = perf_counter()
                transfers.extend(fill_rank_halo(r, f_arrs, self.decomp))
                mark(r, "halo", t0, perf_counter())
            wait_s = self._barrier_wait(barrier)
            for r in self.ranks:
                t0 = perf_counter()
                collide_bgk(
                    f_arrs[r], self.tau, out=post_arrs[r],
                    scratch=self._scratch_for(
                        f_arrs[r].shape[1:], f_arrs[r].dtype
                    ),
                )
                t1 = perf_counter()
                mark(r, "collide", t0, t1)
                self._stream(r, f_arrs, post_arrs)
                mark(r, "stream", t1, perf_counter())
        else:
            raise ValueError(f"unknown halo mode {self.halo_mode!r}")
        seconds = {
            r: sum(per_phase[name].get(r, 0.0) for name in STEP_SUBPHASES)
            for r in self.ranks
        }
        return seconds, transfers, spans, per_phase, wait_s

    @staticmethod
    def _barrier_wait(barrier) -> float:
        if barrier is None:
            return 0.0
        t0 = perf_counter()
        barrier.wait()
        return perf_counter() - t0


def _chunk_ranks(n_tasks: int, n_workers: int) -> list[list[int]]:
    """Contiguous near-even rank chunks, one per worker."""
    chunks: list[list[int]] = []
    base, extra = divmod(n_tasks, n_workers)
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return [c for c in chunks if c]


@dataclass
class PhaseResult:
    """Aggregated outcome of one rank-parallel phase."""

    seconds_by_rank: dict[int, float] = field(default_factory=dict)
    #: ``(dst_rank, src_rank, nbytes)`` halo slab records.
    transfers: list[tuple[int, int, int]] = field(default_factory=list)
    #: ``(rank, parent_span_id, t0, t1[, subphase])`` worker intervals;
    #: populated only when the driver requested tracing for the phase.
    spans: list[tuple] = field(default_factory=list)
    #: Fused-step only: per-sub-phase per-rank seconds
    #: (``{"collide"|"halo"|"stream": {rank: s}}``).
    phase_seconds: dict[str, dict[int, float]] | None = None
    #: Fused-step only: per-chunk barrier wait seconds.
    wait_seconds: list[float] = field(default_factory=list)

    @property
    def bytes_sent(self) -> int:
        return sum(t[2] for t in self.transfers)

    @property
    def messages(self) -> int:
        """Coalesced per-neighbor-pair message count."""
        return len({(t[0], t[1]) for t in self.transfers})

    @property
    def slabs(self) -> int:
        """Raw q-direction slab copy count (pre-coalescing)."""
        return len(self.transfers)


# ----------------------------------------------------------------------
# Executors


def _merge_step_reply(result: PhaseResult, reply: tuple) -> None:
    """Fold one chunk's fused-step reply into the aggregate result."""
    per_rank, transfers, spans, per_phase, wait_s = reply
    result.seconds_by_rank.update(per_rank)
    result.transfers.extend(transfers)
    result.spans.extend(spans)
    if result.phase_seconds is None:
        result.phase_seconds = {name: {} for name in STEP_SUBPHASES}
    for name, acc in per_phase.items():
        result.phase_seconds[name].update(acc)
    result.wait_seconds.append(wait_s)


class SerialExecutor:
    """Runs every rank in the calling thread (the virtual runtime).

    ``begin_phase`` executes synchronously (there is nothing to overlap
    with); the begin/finish split exists so all three backends share one
    protocol.
    """

    backend = "serial"

    def __init__(self, blocks: RankBlocks, tau: float, n_workers: int = 1,
                 halo_mode: str = "exchange", pack: bool = False,
                 solid: dict[int, np.ndarray] | None = None):
        self.blocks = blocks
        self.n_workers = 1
        self._runner = ChunkRunner(
            list(range(blocks.decomp.n_tasks)), blocks.decomp, tau,
            halo_mode=halo_mode, pack=pack, solid=solid,
        )
        self._pending: PhaseResult | None = None

    def begin_phase(self, phase: str,
                    parent_span: int | None = None) -> None:
        if self._pending is not None:
            raise RuntimeError("a phase is already in flight")
        if phase == "step":
            result = PhaseResult()
            _merge_step_reply(result, self._runner.run_step(
                self.blocks.f, self.blocks.post, parent_span, None
            ))
        else:
            per_rank, transfers, spans = self._runner.run(
                phase, self.blocks.f, self.blocks.post, parent_span
            )
            result = PhaseResult(per_rank, transfers, spans)
        self._pending = result

    def finish_phase(self) -> PhaseResult:
        if self._pending is None:
            raise RuntimeError("no phase in flight")
        result, self._pending = self._pending, None
        return result

    def run_phase(self, phase: str,
                  parent_span: int | None = None) -> PhaseResult:
        self.begin_phase(phase, parent_span)
        return self.finish_phase()

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Persistent thread pool over per-worker rank chunks."""

    backend = "threads"

    def __init__(self, blocks: RankBlocks, tau: float, n_workers: int,
                 halo_mode: str = "exchange", pack: bool = False,
                 solid: dict[int, np.ndarray] | None = None):
        self.blocks = blocks
        self._runners = [
            ChunkRunner(ranks, blocks.decomp, tau,
                        halo_mode=halo_mode, pack=pack, solid=solid)
            for ranks in _chunk_ranks(blocks.decomp.n_tasks, n_workers)
        ]
        self.n_workers = len(self._runners)
        self._barrier = threading.Barrier(self.n_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-rank"
        )
        self._pending: tuple[str, list] | None = None
        self._finalizer = weakref.finalize(self, self._pool.shutdown, False)

    def begin_phase(self, phase: str,
                    parent_span: int | None = None) -> None:
        if self._pending is not None:
            raise RuntimeError("a phase is already in flight")
        if phase == "step":
            futures = [
                self._pool.submit(rn.run_step, self.blocks.f,
                                  self.blocks.post, parent_span,
                                  self._barrier)
                for rn in self._runners
            ]
        else:
            futures = [
                self._pool.submit(rn.run, phase, self.blocks.f,
                                  self.blocks.post, parent_span)
                for rn in self._runners
            ]
        self._pending = (phase, futures)

    def finish_phase(self) -> PhaseResult:
        if self._pending is None:
            raise RuntimeError("no phase in flight")
        (phase, futures), self._pending = self._pending, None
        result = PhaseResult()
        for fut in futures:  # barrier: a phase ends when every chunk has
            if phase == "step":
                _merge_step_reply(result, fut.result())
            else:
                per_rank, transfers, spans = fut.result()
                result.seconds_by_rank.update(per_rank)
                result.transfers.extend(transfers)
                result.spans.extend(spans)
        return result

    def run_phase(self, phase: str,
                  parent_span: int | None = None) -> PhaseResult:
        self.begin_phase(phase, parent_span)
        return self.finish_phase()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._finalizer.detach()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment from a worker process.

    Workers are ``multiprocessing`` children, so they share the parent's
    resource tracker (both fork and spawn hand the tracker fd down) and
    the attach-time ``register`` is an idempotent no-op on the tracker's
    name set; the parent's single ``unlink`` is the one true cleanup.
    Unregistering here would *remove* the parent's registration and make
    that unlink trip a KeyError in the tracker — so don't.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_main(conn, ranks, segment_names, decomp, tau,
                 dtype=np.float64, halo_mode="exchange",
                 pack=False, solid=None, barrier=None) -> None:
    """Worker loop: attach the shared blocks, serve phase commands.

    One worker is pinned to its rank chunk for the life of the run; the
    parent acts as the barrier by collecting every worker's reply before
    issuing the next phase — except for the fused ``step`` command,
    whose single mid-step synchronization is the shared ``barrier``
    (parties = worker count), so a whole step costs ONE pipe round-trip.
    """
    segments = []
    pairs: list[np.ndarray] = []
    f_arrs: list[np.ndarray] = []
    post_arrs: list[np.ndarray] = []
    try:
        for rank, name in enumerate(segment_names):
            shm = _attach_segment(name)
            segments.append(shm)
            pair = np.ndarray(
                (2,) + _padded_shape(decomp, rank),
                dtype=dtype,
                buffer=shm.buf,
            )
            pairs.append(pair)
            f_arrs.append(pair[0])
            post_arrs.append(pair[1])
        runner = ChunkRunner(ranks, decomp, tau,
                             halo_mode=halo_mode, pack=pack, solid=solid)
        while True:
            msg = conn.recv()
            if msg == "stop":
                break
            # A traced phase arrives as ``(phase, parent_span_id)``; the
            # untraced protocol stays the bare phase string, so tracing
            # off costs the worker nothing new.
            if isinstance(msg, tuple):
                cmd, parent_span = msg
            else:
                cmd, parent_span = msg, None
            if cmd == "step":
                conn.send(runner.run_step(
                    f_arrs, post_arrs, parent_span, barrier
                ))
            else:
                per_rank, transfers, spans = runner.run(
                    cmd, f_arrs, post_arrs, parent_span
                )
                conn.send((per_rank, transfers, spans))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        # Views must die before the mapped buffers can be closed.
        f_arrs.clear()
        post_arrs.clear()
        pairs.clear()
        for shm in segments:
            shm.close()
        conn.close()


def _shutdown_workers(procs, conns) -> None:
    for conn in conns:
        try:
            conn.send("stop")
        except (OSError, BrokenPipeError):
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        conn.close()


class ProcessExecutor:
    """Persistent ``multiprocessing`` pool over shared-memory rank blocks.

    Workers are pinned to contiguous rank chunks at start and keep their
    collision scratch hot across steps; each phase costs one tiny pipe
    round-trip per worker, with the lattice data itself never crossing
    the pipe (it lives in the shared segments).
    """

    backend = "processes"

    def __init__(self, blocks: RankBlocks, tau: float, n_workers: int,
                 halo_mode: str = "exchange", pack: bool = False,
                 solid: dict[int, np.ndarray] | None = None):
        if not blocks.shared:
            raise ValueError("processes backend requires shared rank blocks")
        self.blocks = blocks
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        chunks = _chunk_ranks(blocks.decomp.n_tasks, n_workers)
        self.n_workers = len(chunks)
        #: Every Pipe command name issued, in order — the round-trip
        #: ledger the fused-pipeline acceptance check reads (3 commands
        #: per barriered step vs 1 per fused step).
        self.command_log: list[str] = []
        self._barrier = ctx.Barrier(self.n_workers)
        self._pending: int = 0
        self._procs = []
        self._conns = []
        for ranks in chunks:
            parent_conn, child_conn = ctx.Pipe()
            chunk_solid = (
                None if solid is None
                else {r: solid[r] for r in ranks if r in solid}
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, ranks, blocks.segment_names,
                      blocks.decomp, tau, blocks.dtype,
                      halo_mode, pack, chunk_solid, self._barrier),
                daemon=True,
                name=f"repro-rank-{ranks[0]}-{ranks[-1]}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._procs, self._conns
        )

    def begin_phase(self, phase: str,
                    parent_span: int | None = None) -> None:
        """Issue the phase command to every worker without blocking.

        All pipe sends go out before any reply is read, so the workers
        run the phase concurrently; :meth:`finish_phase` collects.
        """
        if self._pending:
            raise RuntimeError("a phase is already in flight")
        msg = phase if parent_span is None else (phase, parent_span)
        self.command_log.append(phase)
        for conn in self._conns:
            conn.send(msg)
        self._pending = len(self._conns)
        self._pending_phase = phase

    def finish_phase(self) -> PhaseResult:
        if not self._pending:
            raise RuntimeError("no phase in flight")
        result = PhaseResult()
        for conn in self._conns:  # reply collection is the phase barrier
            reply = conn.recv()
            if self._pending_phase == "step":
                _merge_step_reply(result, reply)
            else:
                per_rank, transfers, spans = reply
                result.seconds_by_rank.update(per_rank)
                result.transfers.extend(transfers)
                result.spans.extend(spans)
        self._pending = 0
        return result

    def run_phase(self, phase: str,
                  parent_span: int | None = None) -> PhaseResult:
        self.begin_phase(phase, parent_span)
        return self.finish_phase()

    def close(self) -> None:
        self._finalizer()


def make_executor(
    backend: str,
    blocks: RankBlocks,
    tau: float,
    n_workers: int,
    halo_mode: str = "exchange",
    pack: bool = False,
    solid: dict[int, np.ndarray] | None = None,
):
    """Build the executor for a resolved backend name."""
    kw = dict(halo_mode=halo_mode, pack=pack, solid=solid)
    if backend == "serial":
        return SerialExecutor(blocks, tau, **kw)
    if backend == "threads":
        return ThreadExecutor(blocks, tau, n_workers, **kw)
    if backend == "processes":
        return ProcessExecutor(blocks, tau, n_workers, **kw)
    raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
