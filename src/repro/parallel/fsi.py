"""Executor-backed runtime for the cell-laden FSI step.

The window task's hot loop is the :class:`~repro.fsi.stepper.FSIStepper`
sequence — membrane forces, IBM spread, collide/stream, IBM interpolate —
and all of it except collide/stream is embarrassingly parallel over cells
or markers.  This module shards those phases across the same
``serial`` | ``threads`` | ``processes`` backends the distributed LBM
solver uses (:mod:`repro.parallel.executor`), with one extra constraint
the LBM phases never had: every backend must be **bitwise identical** to
the serial step, because the golden-trajectory tests pin the stepper to a
literal reference implementation.

Sharding scheme (each stage is race-free and order-preserving):

* ``forces``  — membrane force kernels are per-cell independent with a
  fixed within-cell reduction order, so chunking group slots across
  workers and writing disjoint packed rows reproduces the serial batch
  evaluation exactly.
* ``stencil`` — kernel weights are per-marker elementwise work; each
  worker builds the :class:`~repro.ibm.coupling.Stencil` for a contiguous
  marker chunk and publishes its flattened node indices.
* ``spread``  — runs in two barriered stages.  Stage one multiplies
  weights by marker forces per marker chunk (elementwise, exact).  Stage
  two shards the *scatter* by disjoint lattice-node ranges: each worker
  masks the full flat-index array for its range and ``bincount``-reduces
  into its own slice of the force field.  ``np.bincount`` sums weights in
  position order, and masking preserves that order per node, so the
  result is bit-for-bit the single full bincount of the serial path —
  per-worker partial accumulators summed across workers would not be
  (floating-point association differs at chunk-straddling nodes), which
  is why the reduction is sharded by output node instead of by marker.
* ``interp``  — the velocity einsum reduces over the kernel support per
  marker, independent of how markers are chunked.

For the ``processes`` backend the packed vertex/force arrays, flat
indices, spread contributions and the Eulerian field all live in
:mod:`multiprocessing.shared_memory` segments refreshed when the
:class:`~repro.fsi.cell_manager.CellManager` generation changes; workers
attach by name and never ship array data over the command pipe.  Segment
lifetime matches the PR 3 executor guarantees: explicit :meth:`close`,
with a GC finalizer as the safety net.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from ..ibm.coupling import interpolate_with_stencil, make_stencil
from ..ibm.kernels import KERNELS, DeltaKernel
from ..membrane.bending import bending_forces
from ..membrane.constraints import area_volume_forces
from ..membrane.skalak import skalak_forces
from ..telemetry import get_telemetry
from .executor import BACKENDS, _shutdown_workers, _unlink_segments

#: Parallel FSI phases, in per-step execution order.
FSI_PHASES = ("forces", "stencil", "contrib", "scatter", "interp")


def resolve_fsi_backend(
    backend: str | None, n_workers: int | None
) -> tuple[str, int]:
    """Resolve the FSI backend/worker-count against env and hardware.

    Same contract as :func:`repro.parallel.executor.resolve_backend`
    (``REPRO_PARALLEL_BACKEND`` / ``REPRO_PARALLEL_WORKERS`` fallbacks)
    but without a rank-count cap: the FSI step shards cells and markers,
    whose counts change at runtime, so the worker count is capped only by
    the CPU count.
    """
    if backend is None:
        backend = os.environ.get("REPRO_PARALLEL_BACKEND", "serial")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    if n_workers is None:
        env = os.environ.get("REPRO_PARALLEL_WORKERS")
        n_workers = int(env) if env else (os.cpu_count() or 1)
    n_workers = max(1, int(n_workers))
    if backend == "serial":
        n_workers = 1
    return backend, n_workers


# ----------------------------------------------------------------------
# Work decomposition


@dataclass(frozen=True)
class GroupSpec:
    """Picklable description of one packed cell-group segment.

    Mirrors the ``(group, slots, start, stop)`` segments of the packed
    cache: ``start`` is the segment's first packed vertex row, and cell
    ``c`` of the group owns rows ``start + c*n_vertices`` onward.  The
    :class:`~repro.membrane.reference.ReferenceState` is a frozen bundle
    of ndarrays shared by every cell of the group.
    """

    start: int
    n_cells: int
    n_vertices: int
    reference: object
    shear_modulus: float
    skalak_C: float
    k_bend: float
    k_area: float
    k_volume: float


def _split_range(n: int, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous near-even half-open chunks of ``range(n)``."""
    base, extra = divmod(n, k)
    out = []
    start = 0
    for w in range(k):
        size = base + (1 if w < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def _cell_chunks(
    specs: list[GroupSpec], n_workers: int
) -> list[list[tuple[int, int, int]]]:
    """Per-worker ``(spec index, first cell, last cell)`` task lists.

    Cells are flattened across segments and split into contiguous
    near-even runs so workers stay balanced even when one group holds
    most of the population.
    """
    total = sum(s.n_cells for s in specs)
    tasks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_workers)]
    if total == 0:
        return tasks
    bounds = _split_range(total, n_workers)
    offset = 0  # flat cell ordinal of the current segment's first cell
    for si, spec in enumerate(specs):
        for w, (lo, hi) in enumerate(bounds):
            c0 = max(lo, offset) - offset
            c1 = min(hi, offset + spec.n_cells) - offset
            if c1 > c0:
                tasks[w].append((si, c0, c1))
        offset += spec.n_cells
    return tasks


# ----------------------------------------------------------------------
# The per-worker compute core (shared by every backend)


class FSIWorker:
    """Executes the sharded FSI stages for one worker's chunk.

    The same object runs inline (serial), inside a thread pool (threads)
    and inside a child process bound to shared-memory arrays (processes);
    the arrays it reads and writes are handed in per call, so the class
    itself holds only the decomposition and the cached marker stencil.
    """

    def __init__(self, kernel: DeltaKernel | str, mode: str,
                 grid_shape: tuple[int, int, int],
                 origin: np.ndarray, spacing: float):
        self.kernel = KERNELS[kernel] if isinstance(kernel, str) else kernel
        self.mode = mode
        self.grid_shape = tuple(grid_shape)
        self.origin = np.asarray(origin, dtype=np.float64)
        self.spacing = float(spacing)
        self.force_tasks: list[tuple[GroupSpec, int, int]] = []
        self.marker_range = (0, 0)
        self.node_range = (0, 0)
        self._stencil = None
        self._w_buf: np.ndarray | None = None

    def set_population(
        self,
        specs: list[GroupSpec],
        force_tasks: list[tuple[int, int, int]],
        marker_range: tuple[int, int],
        node_range: tuple[int, int],
    ) -> None:
        self.force_tasks = [(specs[si], c0, c1) for si, c0, c1 in force_tasks]
        self.marker_range = tuple(marker_range)
        self.node_range = tuple(node_range)
        self._stencil = None
        self._w_buf = None

    # -- stage kernels -------------------------------------------------
    def membrane_forces(self, verts: np.ndarray, out: np.ndarray) -> None:
        """Evaluate membrane forces for this worker's cell chunks.

        Writes disjoint packed rows of ``out``; per-cell arithmetic is
        identical to ``CellManager._group_membrane_forces`` (the packed
        vertex rows are bitwise copies of the pool gather it uses).
        """
        for spec, c0, c1 in self.force_tasks:
            ref = spec.reference
            lo = spec.start + c0 * spec.n_vertices
            hi = spec.start + c1 * spec.n_vertices
            batch = verts[lo:hi].reshape(c1 - c0, spec.n_vertices, 3)
            f = skalak_forces(batch, ref, spec.shear_modulus, spec.skalak_C)
            f += bending_forces(batch, ref.quads, ref.theta0, spec.k_bend)
            f += area_volume_forces(
                batch, ref.faces, ref.area0, ref.volume0,
                spec.k_area, spec.k_volume,
            )
            out[lo:hi] = f.reshape(-1, 3)

    def build_stencil(self, verts: np.ndarray, flat_out: np.ndarray) -> int:
        """Build the stencil for this worker's marker chunk.

        Publishes the chunk's flattened node indices into ``flat_out``
        (the scatter stage reads the *full* array) and returns the number
        of boundary-clipped markers in the chunk.
        """
        m0, m1 = self.marker_range
        if m1 <= m0:
            self._stencil = None
            return 0
        frac = (verts[m0:m1] - self.origin) / self.spacing
        n, s = m1 - m0, self.kernel.support
        if self._w_buf is None or self._w_buf.shape[0] != n:
            self._w_buf = np.empty((n, s, s, s), dtype=np.float64)
        st = make_stencil(frac, self.grid_shape, self.kernel, self.mode,
                          w_out=self._w_buf)
        s3 = s ** 3
        flat_out[m0 * s3:m1 * s3] = st.flat_indices()
        self._stencil = st
        return st.n_clipped

    def spread_contrib(self, forces_lat: np.ndarray,
                       contrib_out: np.ndarray) -> None:
        """Stage one of the spread: weights x forces per marker chunk."""
        m0, m1 = self.marker_range
        st = self._stencil
        if st is None or m1 <= m0:
            return
        s3 = self.kernel.support ** 3
        for d in range(3):
            np.multiply(
                st.w, forces_lat[m0:m1, d][:, None, None, None],
                out=contrib_out[d, m0 * s3:m1 * s3].reshape(st.w.shape),
            )

    def spread_scatter(self, flat: np.ndarray, contrib: np.ndarray,
                       field_flat: np.ndarray) -> None:
        """Stage two of the spread: bincount-reduce this node range.

        Masking the full flat array keeps the per-node summation order
        identical to one global ``bincount`` (positions stay sorted), so
        the sharded scatter is bitwise equal to the serial spread.
        """
        lo, hi = self.node_range
        if hi <= lo:
            return
        mask = (flat >= lo) & (flat < hi)
        idx = flat[mask] - lo
        for d in range(3):
            field_flat[d, lo:hi] += np.bincount(
                idx, weights=contrib[d][mask], minlength=hi - lo
            )

    def interpolate(self, field: np.ndarray, out: np.ndarray) -> None:
        """Interpolate the field at this worker's marker chunk."""
        m0, m1 = self.marker_range
        if self._stencil is None or m1 <= m0:
            return
        out[m0:m1] = interpolate_with_stencil(field, self._stencil)


# ----------------------------------------------------------------------
# Process-backend worker loop


def _attach_arrays(
    segments: dict[str, shared_memory.SharedMemory],
    n_markers: int,
    s3: int,
    grid_shape: tuple[int, int, int],
) -> dict[str, np.ndarray]:
    return {
        "verts": np.ndarray((n_markers, 3), np.float64,
                            buffer=segments["verts"].buf),
        "io": np.ndarray((n_markers, 3), np.float64,
                         buffer=segments["io"].buf),
        "flat": np.ndarray((n_markers * s3,), np.int64,
                           buffer=segments["flat"].buf),
        "contrib": np.ndarray((3, n_markers * s3), np.float64,
                              buffer=segments["contrib"].buf),
        "field": np.ndarray((3,) + tuple(grid_shape), np.float64,
                            buffer=segments["field"].buf),
    }


def _fsi_worker_main(conn, kernel_name, mode, grid_shape, origin,
                     spacing) -> None:
    """Process-backend worker loop: attach segments, serve stage commands.

    The parent acts as the barrier between stages by collecting every
    worker's reply before issuing the next command; array data never
    crosses the pipe (it lives in the shared segments).

    Stage replies travel as ``(payload, t0, t1)`` with the interval
    stamped on ``time.perf_counter`` — system-wide ``CLOCK_MONOTONIC``
    on Linux — so the parent can fold per-worker seconds into the
    rank-balance rollup and, under tracing, merge the intervals into
    the driver's span timeline.
    """
    from time import perf_counter

    worker = FSIWorker(kernel_name, mode, grid_shape, origin, spacing)
    segments: dict[str, shared_memory.SharedMemory] = {}
    arrays: dict[str, np.ndarray] = {}
    try:
        while True:
            msg = conn.recv()
            # _shutdown_workers sends the bare "stop" string; stage
            # commands arrive as tuples.
            cmd = msg if isinstance(msg, str) else msg[0]
            if cmd == "stop":
                break
            if cmd == "population":
                _, specs, tasks, m_range, n_range, n_markers, names = msg
                arrays.clear()  # views must die before segment close
                for shm in segments.values():
                    shm.close()
                segments = {
                    key: shared_memory.SharedMemory(name=name)
                    for key, name in names.items()
                }
                arrays = _attach_arrays(
                    segments, n_markers, worker.kernel.support ** 3,
                    grid_shape,
                )
                worker.set_population(specs, tasks, m_range, n_range)
                conn.send("ok")
                continue
            t0 = perf_counter()
            if cmd == "forces":
                worker.membrane_forces(arrays["verts"], arrays["io"])
                payload = "ok"
            elif cmd == "stencil":
                payload = worker.build_stencil(
                    arrays["verts"], arrays["flat"]
                )
            elif cmd == "contrib":
                worker.spread_contrib(arrays["io"], arrays["contrib"])
                payload = "ok"
            elif cmd == "scatter":
                worker.spread_scatter(
                    arrays["flat"], arrays["contrib"],
                    arrays["field"].reshape(3, -1),
                )
                payload = "ok"
            elif cmd == "interp":
                worker.interpolate(arrays["field"], arrays["io"])
                payload = "ok"
            else:
                raise ValueError(f"unknown FSI worker command {cmd!r}")
            conn.send((payload, t0, perf_counter()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        arrays.clear()
        for shm in segments.values():
            shm.close()
        conn.close()


def _timed_call(fn, args) -> tuple:
    """Run ``fn(*args)`` stamping its wall interval (in-process paths)."""
    from time import perf_counter

    t0 = perf_counter()
    reply = fn(*args)
    return reply, t0, perf_counter()


def _finalize_runtime(procs, conns, segments) -> None:
    """GC safety net: stop workers, then unlink shared segments."""
    if procs:
        _shutdown_workers(procs, conns)
        procs.clear()
        conns.clear()
    _unlink_segments(segments)
    segments.clear()


# ----------------------------------------------------------------------
# The runtime facade


class ParallelFSIRuntime:
    """Sharded membrane-force + IBM coupling engine for one lattice.

    Owned by an :class:`~repro.fsi.stepper.FSIStepper`; every backend —
    including ``serial`` — routes through it, and every backend is
    bitwise identical to the pre-runtime serial stepper (see the module
    docstring for the determinism argument).

    Call order per step::

        total_forces(manager)   # fsi/forces (+ serial contact pass)
        begin_step(verts)       # fsi/stencil, once per marker position
        spread(forces_lat, F)   # fsi/spread (two barriered stages)
        interpolate(u)          # fsi/interp (reuses the cached stencil)
        end_step()

    ``sync_population`` is generation-keyed: shared-memory segments and
    the cell/marker/node decomposition refresh only when the population
    changes.
    """

    def __init__(
        self,
        grid,
        kernel: DeltaKernel | str = "cosine4",
        mode: str = "clip",
        backend: str | None = None,
        n_workers: int | None = None,
    ):
        self.backend, self.n_workers = resolve_fsi_backend(backend, n_workers)
        self.kernel = KERNELS[kernel] if isinstance(kernel, str) else kernel
        if self.backend == "processes" and self.kernel.name not in KERNELS:
            # Worker processes rebuild the kernel by name (callables may
            # not survive pickling under the spawn start method).
            raise ValueError(
                f"processes backend needs a registered kernel, got "
                f"{self.kernel.name!r}"
            )
        self.mode = mode
        self.grid = grid
        self.grid_shape = tuple(grid.shape)
        self.grid_size = int(np.prod(self.grid_shape))
        self.origin = np.asarray(grid.origin, dtype=np.float64).copy()
        self.spacing = float(grid.spacing)
        self._generation = -1
        self._n_markers = 0
        self._specs: list[GroupSpec] = []
        self._stencil_valid = False
        self._closed = False

        # In-process workers (serial/threads) and their plain buffers.
        self._workers: list[FSIWorker] = []
        self._pool: ThreadPoolExecutor | None = None
        self._flat_buf: np.ndarray | None = None
        self._contrib_buf: np.ndarray | None = None

        # Process backend: persistent worker pool + shared segments.
        self._procs: list = []
        self._conns: list = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._shm_names: dict[str, str] = {}
        self._shm_arrays: dict[str, np.ndarray] = {}
        self._warned_clip = False

        if self.backend == "processes":
            self._start_processes()
        else:
            self._workers = [
                FSIWorker(self.kernel, mode, self.grid_shape,
                          self.origin, self.spacing)
                for _ in range(self.n_workers)
            ]
            if self.backend == "threads":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-fsi",
                )
        self._finalizer = weakref.finalize(
            self, _finalize_runtime, self._procs, self._conns, self._segments
        )
        if self._pool is not None:
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, False
            )

    # -- lifecycle -----------------------------------------------------
    def _start_processes(self) -> None:
        # Unlike the LBM executor, segments are created *after* the pool
        # (their size tracks the cell population), so the parent tracker
        # must already be running when workers fork — otherwise each
        # child's attach-time register spawns a private tracker that
        # never sees the parent's unlink and warns about leaks at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        for w in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_fsi_worker_main,
                args=(child_conn, self.kernel.name, self.mode,
                      self.grid_shape, self.origin, self.spacing),
                daemon=True,
                name=f"repro-fsi-{w}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def close(self) -> None:
        """Stop workers and unlink shared segments (idempotent)."""
        self._closed = True
        self._shm_arrays.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool_finalizer.detach()
            self._pool = None
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- population sync -----------------------------------------------
    def sync_population(self, manager) -> None:
        """Refresh the decomposition when the cell population changed."""
        if manager.generation == self._generation:
            return
        specs = [
            GroupSpec(
                start=start,
                n_cells=n_cells,
                n_vertices=n_vertices,
                reference=reference,
                shear_modulus=sample.shear_modulus,
                skalak_C=sample.skalak_C,
                k_bend=sample.k_bend,
                k_area=sample.k_area,
                k_volume=sample.k_volume,
            )
            for reference, sample, start, n_cells, n_vertices
            in manager.packed_segments()
        ]
        n_markers = sum(s.n_cells * s.n_vertices for s in specs)
        self._specs = specs
        self._stencil_valid = False
        tasks = _cell_chunks(specs, self.n_workers)
        marker_ranges = _split_range(n_markers, self.n_workers)
        node_ranges = _split_range(self.grid_size, self.n_workers)
        if self.backend == "processes":
            if n_markers != self._n_markers or not self._segments:
                self._remap_segments(n_markers)
            for w, conn in enumerate(self._conns):
                conn.send(("population", specs, tasks[w], marker_ranges[w],
                           node_ranges[w], n_markers, self._shm_names))
            for conn in self._conns:
                conn.recv()
        else:
            s3 = self.kernel.support ** 3
            if n_markers != self._n_markers:
                self._flat_buf = np.empty(n_markers * s3, dtype=np.int64)
                self._contrib_buf = np.empty(
                    (3, n_markers * s3), dtype=np.float64
                )
            for w, worker in enumerate(self._workers):
                worker.set_population(specs, tasks[w], marker_ranges[w],
                                      node_ranges[w])
        self._n_markers = n_markers
        self._generation = manager.generation
        get_telemetry().gauge("fsi.workers").set(self.n_workers)

    def _remap_segments(self, n_markers: int) -> None:
        """Recreate marker-sized shared segments for a new population.

        Mutates ``self._segments`` in place so the GC finalizer keeps
        tracking the live set.
        """
        self._shm_arrays.clear()
        _unlink_segments(self._segments)
        self._segments.clear()
        self._shm_names.clear()
        s3 = self.kernel.support ** 3
        n = max(1, n_markers)  # zero-byte segments are not allowed
        sizes = {
            "verts": n * 3 * 8,
            "io": n * 3 * 8,
            "flat": n * s3 * 8,
            "contrib": 3 * n * s3 * 8,
            "field": 3 * self.grid_size * 8,
        }
        shms = {}
        for key, nbytes in sizes.items():
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segments.append(shm)
            self._shm_names[key] = shm.name
            shms[key] = shm
        self._shm_arrays = _attach_arrays(shms, n_markers, s3,
                                          self.grid_shape)

    # -- stage dispatch ------------------------------------------------
    def _run(self, stage: str, *args, label: str | None = None) -> list:
        """Run one stage on every worker; returns per-worker replies.

        Collecting every reply before returning is the barrier between
        stages (the scatter must not start until all contribs landed).

        When a live telemetry backend is installed and ``label`` is set,
        each worker's wall interval is folded into the per-rank balance
        accounting under ``fsi/<label>``, and — under tracing — merged
        into the driver timeline as a child span of the enclosing phase.
        The :class:`~repro.telemetry.backend.NullTelemetry` path takes
        none of these branches, so the hot path is unchanged when
        observability is off.
        """
        tel = get_telemetry()
        record = tel.enabled and label is not None
        if self.backend == "processes":
            for conn in self._conns:
                conn.send((stage,) if not args else (stage, *args))
            raw = [conn.recv() for conn in self._conns]
            if record:
                self._record_stage(tel, label, raw)
            return [reply for reply, _, _ in raw]
        if self.backend == "threads" and len(self._workers) > 1:
            if record:
                futures = [
                    self._pool.submit(_timed_call, getattr(w, stage), args)
                    for w in self._workers
                ]
                raw = [f.result() for f in futures]
                self._record_stage(tel, label, raw)
                return [reply for reply, _, _ in raw]
            futures = [
                self._pool.submit(getattr(w, stage), *args)
                for w in self._workers
            ]
            return [f.result() for f in futures]
        if record:
            raw = [
                _timed_call(getattr(w, stage), args) for w in self._workers
            ]
            self._record_stage(tel, label, raw)
            return [reply for reply, _, _ in raw]
        return [getattr(w, stage)(*args) for w in self._workers]

    def _record_stage(self, tel, label: str, raw: list[tuple]) -> None:
        """Fold ``(reply, t0, t1)`` worker intervals into telemetry."""
        tel.record_rank_seconds(
            f"fsi/{label}", {w: t1 - t0 for w, (_, t0, t1) in enumerate(raw)}
        )
        tracer = tel.tracer
        if tracer is not None:
            parent = tracer.current_id
            for w, (_, t0, t1) in enumerate(raw):
                tracer.add(label, t0, t1, parent_id=parent, rank=w,
                           category="worker")

    # -- step operations -----------------------------------------------
    def total_forces(self, manager):
        """Membrane (sharded) + contact (serial) forces, packed order.

        Drop-in replacement for ``CellManager.total_forces``: returns the
        manager-owned packed force/vertex arrays and the cell list.
        """
        from ..fsi.contact import contact_forces  # deferred: scipy cost

        tel = get_telemetry()
        self.sync_population(manager)
        verts, forces, ordinals, cells = manager.packed_arrays()
        with tel.phase("fsi/forces"):
            if self.backend == "processes":
                np.copyto(self._shm_arrays["verts"], verts)
                self._run("forces", label="forces")
                np.copyto(forces, self._shm_arrays["io"])
            else:
                self._run("membrane_forces", verts, forces, label="forces")
        forces += contact_forces(
            verts, ordinals, manager.contact_cutoff,
            manager.contact_stiffness,
        )
        return forces, verts, cells

    def begin_step(self, verts: np.ndarray) -> None:
        """Build the sharded marker stencil for the current positions."""
        tel = get_telemetry()
        with tel.phase("fsi/stencil"):
            if self.backend == "processes":
                np.copyto(self._shm_arrays["verts"], verts)
                replies = self._run("stencil", label="stencil")
            else:
                replies = self._run("build_stencil", verts, self._flat_buf,
                                    label="stencil")
        n_clipped = int(sum(replies))
        if self.mode == "clip" and n_clipped:
            self._record_clipped(n_clipped)
        self._stencil_valid = True

    def end_step(self) -> None:
        """Invalidate the cached stencil (markers are about to move)."""
        self._stencil_valid = False

    def spread(self, forces_lat: np.ndarray, out_field: np.ndarray) -> None:
        """Spread marker forces into ``out_field`` (adds in place)."""
        if not self._stencil_valid:
            raise RuntimeError("spread() requires begin_step() first")
        tel = get_telemetry()
        with tel.phase("fsi/spread"):
            if self.backend == "processes":
                np.copyto(self._shm_arrays["io"], forces_lat)
                self._run("contrib", label="spread_contrib")
                field = self._shm_arrays["field"]
                field.fill(0.0)
                self._run("scatter", label="spread_scatter")
                out_field += field
            else:
                self._run("spread_contrib", forces_lat, self._contrib_buf,
                          label="spread_contrib")
                self._run("spread_scatter", self._flat_buf,
                          self._contrib_buf, out_field.reshape(3, -1),
                          label="spread_scatter")

    def interpolate(self, field: np.ndarray) -> np.ndarray:
        """Interpolate ``field`` at the markers of the cached stencil."""
        if not self._stencil_valid:
            raise RuntimeError("interpolate() requires begin_step() first")
        tel = get_telemetry()
        with tel.phase("fsi/interp"):
            if self.backend == "processes":
                np.copyto(self._shm_arrays["field"], field)
                self._run("interp", label="interp")
                return self._shm_arrays["io"][:self._n_markers].copy()
            out = np.empty((self._n_markers, 3), dtype=np.float64)
            self._run("interpolate", field, out, label="interp")
            return out

    def _record_clipped(self, n_clipped: int) -> None:
        get_telemetry().inc("ibm.clipped_markers", n_clipped)
        if not self._warned_clip:
            import warnings

            warnings.warn(
                f"{n_clipped} IBM marker(s) have kernel support outside "
                "the lattice; mode='clip' clamps their weights onto "
                "boundary nodes, which distorts the spread force field "
                "near the window edge (tracked by the "
                "'ibm.clipped_markers' telemetry counter)",
                RuntimeWarning,
                stacklevel=4,
            )
            self._warned_clip = True
