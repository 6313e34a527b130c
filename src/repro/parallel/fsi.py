"""Sharded runtime for the cell-laden FSI step.

The window task's hot loop is the :class:`~repro.fsi.stepper.FSIStepper`
sequence — membrane forces, IBM spread, collide/stream, IBM interpolate —
and all of it except collide/stream is embarrassingly parallel over cells
or markers.  This module shards those phases over the same ``serial`` |
``processes`` backends the distributed LBM solver uses
(:mod:`repro.parallel.pool`), with one extra constraint the LBM phases
never had: both backends must be **bitwise identical** to the serial
step, because the golden-trajectory tests pin the stepper to a literal
reference implementation.

Sharding scheme (each stage is race-free and order-preserving):

* ``forces``  — membrane force kernels are per-cell independent with a
  fixed within-cell reduction order, so chunking group slots across
  workers and writing disjoint packed rows reproduces the serial batch
  evaluation exactly.
* ``stencil`` — kernel weights are per-marker elementwise work; each
  worker builds the :class:`~repro.ibm.coupling.Stencil` for a contiguous
  marker chunk, writing its weights straight into the population-wide
  array and repairing its rows of the population-wide flat node indices,
  which persist between steps (a
  :class:`~repro.ibm.coupling.StencilBuilder` per worker rewrites only
  the markers that changed lattice cell).  Together the chunks are the
  CSR operator ``S`` (markers x lattice nodes) of the whole population.
* ``spread``  — ``S.T @ F``, sharded by disjoint lattice-node ranges:
  each worker masks ``S`` down to the columns of its range and multiplies
  the transpose of that sub-matrix into its own slice of the force
  field.  The sparse product accumulates each node's contributions in
  row (marker) order and masking keeps that order, so the result is
  bit-for-bit the unsharded product — per-worker partial fields over
  marker chunks summed across workers would not be (floating-point
  association differs at chunk-straddling nodes), which is why the
  reduction is sharded by output node instead of by marker.
* ``interp``  — ``S @ u`` reduces over the kernel support per marker
  row, independent of how marker rows are chunked.

The ``serial`` backend runs one :class:`FSIWorker` inline on the
caller's arrays.  For the ``processes`` backend the packed vertex/force
arrays, stencil weights and indices and the Eulerian field all
live in shared-memory segments refreshed when the
:class:`~repro.fsi.cell_manager.CellManager` generation changes; workers
attach by name and never ship array data over the command pipe.  Pool
and segments are released by an explicit :meth:`ParallelFSIRuntime.close`,
with GC finalizers as the safety net.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..ibm.coupling import (
    INDEX_DTYPE,
    Stencil,
    StencilBuilder,
    interpolate_with_stencil,
    spread_with_stencil,
)
from ..ibm.kernels import KERNELS, DeltaKernel
from ..membrane.forces import membrane_forces
from ..telemetry import get_telemetry
from .pool import (
    ProcessPool,
    attach_segment,
    create_segment,
    resolve_backend,
    serve,
    split_range,
    unlink_segments,
)

#: Parallel FSI phases, in per-step execution order.
FSI_PHASES = ("forces", "stencil", "spread", "interp")


def resolve_fsi_backend(
    backend: str | None, n_workers: int | None
) -> tuple[str, int]:
    """:func:`repro.parallel.pool.resolve_backend` without a rank cap."""
    return resolve_backend(backend, n_workers)


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
    bounds = split_range(total, n_workers)
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

    The same object runs inline (serial) and inside a child process bound
    to shared-memory arrays (processes); the arrays it reads and writes
    are handed in per call, so the class itself holds only the
    decomposition and the cached marker stencil.
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
        self._builder = StencilBuilder(self.grid_shape, self.kernel, mode)
        self._stencil: Stencil | None = None

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
        # The flat buffer may have been re-created for the new population.
        self._builder.reset()
        self._stencil = None

    # -- stage kernels -------------------------------------------------
    def membrane_forces(self, verts: np.ndarray, out: np.ndarray) -> None:
        """Evaluate membrane forces for this worker's cell chunks.

        Writes disjoint packed rows of ``out``.  The force function's
        per-cell result does not depend on its batch, and the packed
        vertex rows are bitwise copies of the pool gather
        ``CellManager.total_forces`` evaluates, so chunks reproduce the
        whole-group evaluation exactly.
        """
        for spec, c0, c1 in self.force_tasks:
            lo = spec.start + c0 * spec.n_vertices
            hi = spec.start + c1 * spec.n_vertices
            out[lo:hi] = membrane_forces(
                verts[lo:hi].reshape(c1 - c0, spec.n_vertices, 3),
                spec.reference, spec.shear_modulus, spec.skalak_C,
                spec.k_bend, spec.k_area, spec.k_volume,
            ).reshape(-1, 3)

    def build_stencil(self, verts: np.ndarray, flat: np.ndarray,
                      w: np.ndarray) -> tuple[int, int]:
        """Build the stencil for this worker's marker chunk.

        Writes the chunk's weights into its rows of the population-wide
        ``w`` and repairs its rows of ``flat`` (the spread stage reads
        *all* rows; ``flat`` persists between steps, so only markers
        whose base cell moved are re-indexed).  Returns ``(boundary-
        clipped markers, rows re-indexed)``.
        """
        m0, m1 = self.marker_range
        if m1 <= m0:
            self._stencil = None
            return 0, 0
        frac = (verts[m0:m1] - self.origin) / self.spacing
        st = self._builder.build(frac, w[m0:m1], flat[m0:m1])
        self._stencil = st
        return st.n_clipped, self._builder.rows_reindexed

    def spread(self, forces_lat: np.ndarray, flat: np.ndarray,
               w: np.ndarray, field: np.ndarray) -> None:
        """Spread every marker's force onto this worker's node range.

        Column-masking the population-wide operator keeps each node's
        accumulation order, so node-range shards are bitwise equal to
        the one unsharded ``S.T @ F`` of the serial path.
        """
        lo, hi = self.node_range
        if hi <= lo or not len(forces_lat):
            return
        spread_with_stencil(
            forces_lat, Stencil(None, w, flat, self.grid_shape), field,
            node_range=(lo, hi),
        )

    def interpolate(self, field: np.ndarray, out: np.ndarray) -> None:
        """Interpolate the field at this worker's marker chunk."""
        m0, m1 = self.marker_range
        if self._stencil is None or m1 <= m0:
            return
        out[m0:m1] = interpolate_with_stencil(field, self._stencil)


# ----------------------------------------------------------------------
# Stage vocabulary and the process-backend worker

#: Stage command -> (:class:`FSIWorker` method, the shared arrays a pool
#: worker hands it).  The serial backend calls the same method on the
#: caller's own arrays.
_STAGES = {
    "forces": ("membrane_forces", ("verts", "io")),
    "stencil": ("build_stencil", ("verts", "flat", "w")),
    "spread": ("spread", ("io", "flat", "w", "field")),
    "interp": ("interpolate", ("field", "io")),
}


def _attach_arrays(
    segments: dict,
    n_markers: int,
    support: int,
    grid_shape: tuple[int, int, int],
) -> dict[str, np.ndarray]:
    return {
        "verts": np.ndarray((n_markers, 3), np.float64,
                            buffer=segments["verts"].buf),
        "io": np.ndarray((n_markers, 3), np.float64,
                         buffer=segments["io"].buf),
        "flat": np.ndarray((n_markers, support ** 3), INDEX_DTYPE,
                           buffer=segments["flat"].buf),
        "w": np.ndarray((n_markers,) + (support,) * 3, np.float64,
                        buffer=segments["w"].buf),
        "field": np.ndarray((3,) + tuple(grid_shape), np.float64,
                            buffer=segments["field"].buf),
    }


def _fsi_worker_main(conn, kernel_name, mode, grid_shape, origin,
                     spacing) -> None:
    """Worker process: attach segments, serve stage commands.

    ``("population", ...)`` re-attaches the segments and installs the
    worker's share of the decomposition.  Every other command is a
    :data:`_STAGES` key; its reply is ``(payload, t0, t1)`` with the
    interval stamped on ``time.perf_counter`` — system-wide
    ``CLOCK_MONOTONIC`` on Linux — so the parent can fold per-worker
    seconds into the rank-balance rollup and, under tracing, merge the
    intervals into the driver's span timeline.  Array data never crosses
    the pipe (it lives in the shared segments).
    """
    worker = FSIWorker(kernel_name, mode, grid_shape, origin, spacing)
    segments: dict = {}
    arrays: dict[str, np.ndarray] = {}

    def detach() -> None:
        arrays.clear()  # views must die before segment close
        for shm in segments.values():
            shm.close()
        segments.clear()

    def handle(msg):
        if msg[0] == "population":
            _, specs, tasks, m_range, n_range, n_markers, names = msg
            detach()
            segments.update(
                (key, attach_segment(name)) for key, name in names.items()
            )
            arrays.update(_attach_arrays(
                segments, n_markers, worker.kernel.support, grid_shape
            ))
            worker.set_population(specs, tasks, m_range, n_range)
            return "ok"
        method, keys = _STAGES[msg[0]]
        t0 = perf_counter()
        payload = getattr(worker, method)(*(arrays[k] for k in keys))
        return payload, t0, perf_counter()

    try:
        serve(conn, handle)
    finally:
        detach()


# ----------------------------------------------------------------------
# The runtime facade


class ParallelFSIRuntime:
    """Sharded membrane-force + IBM coupling engine for one lattice.

    Owned by an :class:`~repro.fsi.stepper.FSIStepper`; both backends
    route through it, and both are bitwise identical to the pre-runtime
    serial stepper (see the module docstring for the determinism
    argument).

    Call order per step::

        total_forces(manager)   # fsi/forces (+ the manager's contact list)
        begin_step(verts)       # fsi/stencil, once per marker position
        spread(forces_lat, F)   # fsi/spread (sharded by node range)
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
        self._stencil_valid = False
        self._warned_clip = False

        # Serial backend: one inline worker on plain buffers.
        self._worker: FSIWorker | None = None
        self._flat_buf: np.ndarray | None = None
        self._w_buf: np.ndarray | None = None

        # Processes backend: persistent pool + shared segments.
        self._pool: ProcessPool | None = None
        self._segments: list = []
        self._shm_names: dict[str, str] = {}
        self._shm_arrays: dict[str, np.ndarray] = {}
        self._finalizer = weakref.finalize(
            self, unlink_segments, self._segments
        )

        geometry = (mode, self.grid_shape, self.origin, self.spacing)
        if self.backend == "processes":
            self._pool = ProcessPool(
                _fsi_worker_main,
                [(self.kernel.name, *geometry)] * self.n_workers,
                name="repro-fsi",
            )
        else:
            self._worker = FSIWorker(self.kernel, *geometry)

    @property
    def _procs(self) -> list:
        return self._pool.procs if self._pool is not None else []

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink shared segments (idempotent)."""
        self._shm_arrays.clear()
        if self._pool is not None:
            self._pool.close()
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
        self._stencil_valid = False
        tasks = _cell_chunks(specs, self.n_workers)
        marker_ranges = split_range(n_markers, self.n_workers)
        node_ranges = split_range(self.grid_size, self.n_workers)
        if self._pool is not None:
            if n_markers != self._n_markers or not self._segments:
                self._remap_segments(n_markers)
            self._pool.request([
                ("population", specs, tasks[w], marker_ranges[w],
                 node_ranges[w], n_markers, self._shm_names)
                for w in range(self.n_workers)
            ])
        else:
            s = self.kernel.support
            if n_markers != self._n_markers:
                self._flat_buf = np.empty((n_markers, s ** 3), INDEX_DTYPE)
                self._w_buf = np.empty((n_markers, s, s, s), np.float64)
            self._worker.set_population(specs, tasks[0], marker_ranges[0],
                                        node_ranges[0])
        self._n_markers = n_markers
        self._generation = manager.generation
        get_telemetry().gauge("fsi.workers").set(self.n_workers)

    def _remap_segments(self, n_markers: int) -> None:
        """Recreate marker-sized shared segments for a new population.

        Mutates ``self._segments`` in place so the GC finalizer keeps
        tracking the live set.
        """
        self._shm_arrays.clear()
        unlink_segments(self._segments)
        self._shm_names.clear()
        s3 = self.kernel.support ** 3
        n = max(1, n_markers)  # zero-byte segments are not allowed
        sizes = {
            "verts": n * 3 * 8,
            "io": n * 3 * 8,
            "flat": n * s3 * np.dtype(INDEX_DTYPE).itemsize,
            "w": n * s3 * 8,
            "field": 3 * self.grid_size * 8,
        }
        shms = {}
        for key, nbytes in sizes.items():
            shm = create_segment(nbytes)
            self._segments.append(shm)
            self._shm_names[key] = shm.name
            shms[key] = shm
        self._shm_arrays = _attach_arrays(shms, n_markers,
                                          self.kernel.support,
                                          self.grid_shape)

    # -- stage dispatch ------------------------------------------------
    def _run(self, stage: str, *args) -> list:
        """Run one stage on every worker; returns per-worker replies.

        The pool workers read and write the shared segments (``args`` is
        empty); the serial worker is handed the caller's arrays.
        Collecting every reply before returning is the barrier between
        stages (the spread must not start until every stencil chunk
        landed).

        When a live telemetry backend is installed, each worker's wall
        interval is folded into the per-rank balance accounting under
        ``fsi/<stage>``, and — under tracing — merged into the driver
        timeline as a child span of the enclosing phase.
        """
        if self._pool is not None:
            raw = self._pool.broadcast((stage,))
        else:
            t0 = perf_counter()
            reply = getattr(self._worker, _STAGES[stage][0])(*args)
            raw = [(reply, t0, perf_counter())]
        tel = get_telemetry()
        if tel.enabled:
            tel.record_rank_seconds(
                f"fsi/{stage}",
                {w: t1 - t0 for w, (_, t0, t1) in enumerate(raw)},
            )
            tracer = tel.tracer
            if tracer is not None:
                parent = tracer.current_id
                for w, (_, t0, t1) in enumerate(raw):
                    tracer.add(stage, t0, t1, parent_id=parent, rank=w,
                               category="worker")
        return [reply for reply, _, _ in raw]

    # -- step operations -----------------------------------------------
    def total_forces(self, manager):
        """Membrane (sharded) + contact (serial) forces, packed order.

        Drop-in replacement for ``CellManager.total_forces``: returns the
        manager-owned packed force/vertex arrays and the cell list.
        """
        tel = get_telemetry()
        self.sync_population(manager)
        verts, forces, _, cells = manager.packed_arrays()
        with tel.phase("fsi/forces"):
            if self._pool is not None:
                np.copyto(self._shm_arrays["verts"], verts)
                self._run("forces")
                np.copyto(forces, self._shm_arrays["io"])
            else:
                self._run("forces", verts, forces)
        forces += manager.contact_forces()
        return forces, verts, cells

    def begin_step(self, verts: np.ndarray) -> None:
        """Build the sharded marker stencil for the current positions."""
        tel = get_telemetry()
        with tel.phase("fsi/stencil"):
            if self._pool is not None:
                np.copyto(self._shm_arrays["verts"], verts)
                replies = self._run("stencil")
            else:
                replies = self._run("stencil", verts, self._flat_buf,
                                    self._w_buf)
        n_clipped, n_reindexed = (int(sum(r)) for r in zip(*replies))
        tel.inc("ibm.stencil.rows_reindexed", n_reindexed)
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
            if self._pool is not None:
                np.copyto(self._shm_arrays["io"], forces_lat)
                field = self._shm_arrays["field"]
                field.fill(0.0)
                self._run("spread")
                out_field += field
            else:
                self._run("spread", forces_lat, self._flat_buf, self._w_buf,
                          out_field)

    def interpolate(self, field: np.ndarray) -> np.ndarray:
        """Interpolate ``field`` at the markers of the cached stencil."""
        if not self._stencil_valid:
            raise RuntimeError("interpolate() requires begin_step() first")
        tel = get_telemetry()
        with tel.phase("fsi/interp"):
            if self._pool is not None:
                np.copyto(self._shm_arrays["field"], field)
                self._run("interp")
                return self._shm_arrays["io"][:self._n_markers].copy()
            out = np.empty((self._n_markers, 3), dtype=np.float64)
            self._run("interp", field, out)
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
