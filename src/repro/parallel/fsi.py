"""The cell-side half of one FSI step, on the caller's arrays.

The window task's hot loop is the :class:`~repro.fsi.stepper.FSIStepper`
sequence — membrane forces, IBM spread, collide/stream, IBM interpolate.
:class:`ParallelFSIRuntime` owns everything of it except collide/stream:

* ``forces``  — :meth:`CellManager.total_forces
  <repro.fsi.cell_manager.CellManager.total_forces>`: one batched
  membrane-force evaluation per packed cell group, plus the carried
  contact list;
* ``stencil`` — one :class:`~repro.ibm.coupling.StencilBuilder` writes
  the population's kernel weights and repairs its flat node indices in
  two persistent buffers, so only the markers that changed lattice cell
  are re-indexed.  Together they are the CSR operator ``S`` (markers x
  lattice nodes);
* ``spread``  — ``S.T @ F`` into the force field;
* ``interp``  — ``S @ u`` at the markers, on the same ``S``.

Each stage runs under its ``fsi/<stage>`` phase timer.  The forces run
inline.  From :data:`~repro.ibm.coupling.SPLIT_MARKERS` markers the
three IBM passes each run in two halves, one on the calling thread and
one on the lattice-halves helper (:mod:`repro.lbm.halves`) when the
process may use two CPUs: the weights and the interpolation by marker
rows, the spread by force component.  The result is the same bits
either way (docs/performance.md §1).  The module keeps its name from
the time the stages could also run on a process pool; docs/performance.md
("Backend decisions → FSI process pool") records why that pool was
removed and what would bring it back.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..ibm.coupling import (
    INDEX_DTYPE,
    Stencil,
    StencilBuilder,
    interpolate_with_stencil,
    spread_with_stencil,
)
from ..ibm.kernels import KERNELS
from ..telemetry import get_telemetry


def resolve_fsi_backend(
    backend: str | None = None, n_workers: int | None = None
) -> tuple[str, int]:
    """The cell side's executor: always ``("serial", 1)``.

    Any other request raises — there is nothing to select (see
    docs/performance.md, "Backend decisions → FSI process pool").
    """
    if backend not in (None, "serial") or n_workers not in (None, 1):
        raise ValueError(
            f"unknown FSI backend {backend!r} x {n_workers!r}; the FSI "
            "process pool was removed and the cell side runs serial"
        )
    return "serial", 1


class ParallelFSIRuntime:
    """Membrane-force + IBM coupling engine for one lattice.

    Owned by an :class:`~repro.fsi.stepper.FSIStepper`.  Call order per
    step::

        total_forces(manager)   # fsi/forces (membrane + contact)
        begin_step(verts)       # fsi/stencil, once per marker position
        marker_cells()          # the markers' cells, for the wall pass
        lattice_forces(...)     # (forces + wall) * scale, pooled
        spread(forces_lat, F, body)  # fsi/spread
        interpolate(u)          # fsi/interp (reuses the cached stencil)
        end_step()

    ``sync_population`` is generation-keyed: the carried node indices
    are forgotten only when the population changes.  The stencil buffers
    and the lattice-unit marker forces are pooled: they grow to the
    largest marker count seen, and a population takes their leading rows.
    """

    def __init__(self, grid, mode: str = "clip"):
        #: The paper's 4-point cosine delta (Section 2.3).
        self.kernel = KERNELS["cosine4"]
        self.mode = mode
        self.grid_shape = tuple(grid.shape)
        self.origin = np.asarray(grid.origin, dtype=np.float64).copy()
        self.spacing = float(grid.spacing)
        self._builder = StencilBuilder(self.grid_shape, self.kernel, mode)
        self._generation = -1
        s = self.kernel.support
        #: Column of a marker's own cell (offset 0, 0, 0) in ``flat``.
        h = int(np.flatnonzero(self.kernel.offsets() == 0)[0])
        self._cell_column = (h * s + h) * s + h
        #: Pooled stencil and force buffers and the current population's
        #: rows.  The forces are ``(markers, 3)`` in column-major order:
        #: each component is a contiguous vector for the spread.
        self._flat = self._flat_pool = np.empty((0, s ** 3), INDEX_DTYPE)
        self._w = self._w_pool = np.empty((0, s, s, s), np.float64)
        self._forces_pool = np.empty(0, np.float64)
        self._forces = self._forces_pool.reshape(3, 0).T
        self._stencil: Stencil | None = None
        self._warned_clip = False

    # -- population sync -----------------------------------------------
    def sync_population(self, manager) -> None:
        """Fit the stencil buffers to the population when it changed."""
        if manager.generation == self._generation:
            return
        n_markers = sum(
            n_cells * n_vertices
            for _, _, _, n_cells, n_vertices in manager.packed_segments()
        )
        if n_markers > len(self._flat_pool):
            s = self.kernel.support
            # The outgrown pool goes before the new one is allocated.
            self._stencil = self._flat = self._w = self._forces = None
            self._flat_pool = self._w_pool = self._forces_pool = None
            self._flat_pool = np.empty((n_markers, s ** 3), INDEX_DTYPE)
            self._w_pool = np.empty((n_markers, s, s, s), np.float64)
            self._forces_pool = np.empty(3 * n_markers, np.float64)
        self._flat = self._flat_pool[:n_markers]
        self._w = self._w_pool[:n_markers]
        self._forces = self._forces_pool[:3 * n_markers].reshape(3, -1).T
        # The rows of ``flat`` now belong to other markers.
        self._builder.reset()
        self._stencil = None
        self._generation = manager.generation

    # -- step operations -----------------------------------------------
    def total_forces(self, manager):
        """Membrane + contact forces, packed order.

        Returns the manager-owned packed force/vertex arrays and the cell
        list of :meth:`CellManager.total_forces
        <repro.fsi.cell_manager.CellManager.total_forces>`.
        """
        self.sync_population(manager)
        with get_telemetry().phase("fsi/forces"):
            return manager.total_forces()

    def lattice_forces(self, forces: np.ndarray, scale: float,
                       wall: np.ndarray | None = None,
                       rows: np.ndarray | None = None) -> np.ndarray:
        """``forces * scale`` in the runtime's pooled ``(markers, 3)``
        buffer, which the returned array is until the next call, and
        ``(forces + wall) * scale`` at ``rows`` when ``wall`` (the wall
        forces of those rows) is given.  The same operations as forming
        the sum and the product as new arrays, so the same bits, without
        marker-sized transients."""
        out = np.multiply(forces, scale, out=self._forces)
        if wall is not None:
            out[rows] = (forces[rows] + wall) * scale
        return out

    def begin_step(self, verts: np.ndarray) -> None:
        """Build the marker stencil for the current positions."""
        tel = get_telemetry()
        with tel.phase("fsi/stencil"):
            frac = (verts - self.origin) / self.spacing
            stencil = self._builder.build(frac, self._w, self._flat)
        tel.inc("ibm.stencil.rows_reindexed", self._builder.rows_reindexed)
        if self.mode == "clip" and stencil.n_clipped:
            self._record_clipped(stencil.n_clipped)
        self._stencil = stencil

    def marker_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Each marker's lattice cell as read off the cached stencil: the
        flat index of its floor node, and the rows whose floor node lies
        outside the lattice (their index is some other node's)."""
        if self._stencil is None:
            raise RuntimeError("marker_cells() requires begin_step() first")
        return (self._flat[:, self._cell_column],
                self._builder.outside_rows())

    def end_step(self) -> None:
        """Drop the cached stencil (markers are about to move)."""
        self._stencil = None

    def spread(self, forces_lat: np.ndarray, out_field: np.ndarray,
               base: np.ndarray | None = None) -> None:
        """Spread marker forces into ``out_field``: added in place, or
        with ``base`` (one value per component) written over it as
        ``base + S.T F`` (:func:`~repro.ibm.coupling.spread_with_stencil`)."""
        if self._stencil is None:
            raise RuntimeError("spread() requires begin_step() first")
        with get_telemetry().phase("fsi/spread"):
            spread_with_stencil(forces_lat, self._stencil, out_field, base)

    def interpolate(self, field: np.ndarray) -> np.ndarray:
        """Interpolate ``field`` at the markers of the cached stencil."""
        if self._stencil is None:
            raise RuntimeError("interpolate() requires begin_step() first")
        with get_telemetry().phase("fsi/interp"):
            return interpolate_with_stencil(field, self._stencil)

    def _record_clipped(self, n_clipped: int) -> None:
        get_telemetry().inc("ibm.clipped_markers", n_clipped)
        if not self._warned_clip:
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
