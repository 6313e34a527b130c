"""The cell-side half of one FSI step, run inline on the caller's arrays.

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

Each stage runs under its ``fsi/<stage>`` phase timer.  The module keeps
its name from the time the stages could also run on a process pool;
docs/performance.md ("Backend decisions → FSI process pool") records why
that pool was removed and what would bring it back.
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
        lattice_forces(...)     # (forces + wall) * scale, pooled
        begin_step(verts)       # fsi/stencil, once per marker position
        spread(forces_lat, F)   # fsi/spread
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
        #: Pooled stencil and force buffers and the current population's
        #: rows.
        self._flat = self._flat_pool = np.empty((0, s ** 3), INDEX_DTYPE)
        self._w = self._w_pool = np.empty((0, s, s, s), np.float64)
        self._forces = self._forces_pool = np.empty((0, 3), np.float64)
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
            self._forces_pool = np.empty((n_markers, 3), np.float64)
        self._flat = self._flat_pool[:n_markers]
        self._w = self._w_pool[:n_markers]
        self._forces = self._forces_pool[:n_markers]
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
                       wall: np.ndarray | None = None) -> np.ndarray:
        """``(forces + wall) * scale`` (``forces * scale`` without
        ``wall``) in the runtime's pooled ``(markers, 3)`` buffer, which
        the returned array is until the next call.  The same operations
        as forming the sum and the product as new arrays, so the same
        bits, without two marker-sized transients per step."""
        out = self._forces
        if wall is not None:
            forces = np.add(forces, wall, out=out)
        return np.multiply(forces, scale, out=out)

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

    def end_step(self) -> None:
        """Drop the cached stencil (markers are about to move)."""
        self._stencil = None

    def spread(self, forces_lat: np.ndarray, out_field: np.ndarray) -> None:
        """Spread marker forces into ``out_field`` (adds in place)."""
        if self._stencil is None:
            raise RuntimeError("spread() requires begin_step() first")
        with get_telemetry().phase("fsi/spread"):
            spread_with_stencil(forces_lat, self._stencil, out_field)

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
