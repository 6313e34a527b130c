"""Coupled LBM + IBM + membrane time stepper (the eFSI model).

One :class:`FSIStepper` step performs the paper's Section 2.3 sequence on
a single lattice:

1. evaluate membrane + contact forces at the current cell shapes,
2. spread them onto the fluid with the delta kernel (Eq. 6),
3. advance the LBM with Guo forcing (Eq. 1),
4. interpolate the new fluid velocity at the vertices (Eq. 4),
5. advect the vertices with the no-slip update (Eq. 5).

The same stepper drives the fine window inside the APR model; the eFSI
reference simply uses it over the whole domain.

Between steps ``grid.force`` holds the body force alone.  The spread
adds the cell forces onto it, the collide reads the total, and the
advection then forms the velocity ``(mom + F/2) / rho`` in the force
field's own memory, since the Guo shift is the step's last read of the
force, interpolates it at the markers and resets the field to the body
force.  So a step allocates no lattice-sized velocity or density floor.

The cell-side phases (1, 2 and 4) run on a
:class:`~repro.parallel.fsi.ParallelFSIRuntime`, inline on the
manager's packed arrays: one batched force pass per cell group, one IBM
stencil per step shared by the spread and the interpolation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..constants import OVERLAP_CUTOFF, REPULSION_STIFFNESS
from ..lbm.collision import density, velocity_from_moments
from ..lbm.grid import Grid
from ..lbm.solver import BoundaryHandler, LBMSolver
from ..parallel.fsi import ParallelFSIRuntime
from ..telemetry import get_telemetry
from ..units import UnitSystem
from .cell_manager import CellManager
from .walls import WallProximityPrefilter


class FSIStepper:
    """Cell-laden flow on one lattice level.

    Parameters
    ----------
    grid:
        Fluid lattice (its ``tau`` sets the suspending-fluid viscosity —
        plasma for cell-resolved regions).
    units:
        Physical<->lattice conversion for this lattice level.
    cells:
        The cell population (may start empty).
    boundaries:
        LBM boundary handlers (walls, inlets, ...).
    mode:
        'clip' for bounded windows, 'wrap' for fully periodic domains.
    body_force:
        Constant physical body-force density [N/m^3] driving the flow
        (e.g. the pressure-gradient equivalent for tube flow).
    wall_geometry:
        Optional SDF geometry: vertices within ``wall_cutoff`` of the
        wall receive a short-range repulsion keeping cells out of the
        unresolved lubrication layer (see :mod:`repro.fsi.walls`), of
        peak force :data:`~repro.constants.REPULSION_STIFFNESS`.

    The IBM delta kernel is the paper's 4-point cosine (Section 2.3).
    """

    def __init__(
        self,
        grid: Grid,
        units: UnitSystem,
        cells: CellManager | None = None,
        boundaries: Sequence[BoundaryHandler] = (),
        mode: str = "clip",
        body_force: np.ndarray | None = None,
        wall_geometry=None,
        wall_cutoff: float = OVERLAP_CUTOFF,
    ) -> None:
        self.grid = grid
        self.units = units
        self.cells = cells if cells is not None else CellManager()
        self.solver = LBMSolver(grid, boundaries)
        self.mode = mode
        self.wall_geometry = wall_geometry
        self.wall_cutoff = wall_cutoff
        self.runtime = ParallelFSIRuntime(grid, mode=mode)
        self._wall_prefilter: WallProximityPrefilter | None = None
        self.body_force_lattice = np.zeros(3)
        if body_force is not None:
            self.body_force_lattice = np.array(
                [units.force_density_to_lattice(f) for f in body_force]
            )
        self.step_count = 0
        self._reset_force()

    # ------------------------------------------------------------------
    def step(self, n: int = 1) -> None:
        """Advance fluid and cells by ``n`` steps of this level's dt."""
        tel = get_telemetry()
        for _ in range(n):
            if self.cells.n_cells:
                # Advection reads the moments again after the stream, so
                # the grid caches them: formed here (current already when
                # only the ghost shell was written since), before the
                # spread, which writes only the force, and reused by the
                # collide.  Allocating the cache before the step's
                # transients keeps it out of the space they reuse: made
                # mid-step, it raised channel_efsi's peak RSS by 3-4 MiB.
                self.grid.moments()
            self._spread_forces(tel)
            with tel.phase("collide_stream"):
                self.solver.step()
            self._advect_cells(tel)
            with tel.phase("reset"):
                self._reset_force()
            self.step_count += 1

    def _reset_force(self) -> None:
        """Write the body force over the force field (see the module
        docstring: the field's state between steps)."""
        self.grid.force[:] = self.body_force_lattice[:, None, None, None]

    def _wall_forces(self, verts: np.ndarray) -> np.ndarray:
        """Wall repulsion via the cached per-window SDF prefilter."""
        pf = self._wall_prefilter
        if pf is None or not pf.matches(self.grid):
            pf = self._wall_prefilter = WallProximityPrefilter(
                self.wall_geometry, self.grid, self.wall_cutoff
            )
        return pf.forces(verts, REPULSION_STIFFNESS)

    def _spread_forces(self, tel=None) -> None:
        if self.cells.n_cells == 0:
            return
        if tel is None:
            tel = get_telemetry()
        rt = self.runtime
        with tel.phase("forces"):
            forces, verts, _ = rt.total_forces(self.cells)
            with tel.phase("wall"):
                forces_lat = rt.lattice_forces(
                    forces, self.units.force_to_lattice(1.0),
                    None if self.wall_geometry is None
                    else self._wall_forces(verts),
                )
        with tel.phase("spread"):
            rt.begin_step(verts)
            rt.spread(forces_lat, self.grid.force)

    def _advect_cells(self, tel=None) -> None:
        if self.cells.n_cells == 0:
            return
        if tel is None:
            tel = get_telemetry()
        rt = self.runtime
        g = self.grid
        with tel.phase("advect"):
            # The moment sums are shared with the next collide through
            # the grid's cache; only ``velocity`` is advection's own.
            with tel.phase("moments"):
                rho, mom = g.moments()
            # In the force field: it has no reader left this step, and
            # ``step`` resets it to the body force afterwards.
            with tel.phase("velocity"):
                u = velocity_from_moments(rho, mom, g.force, out=g.force)
            # On the stencil of this step's spread: only the lattice step
            # ran since, and it moves no marker and changes no cell.
            v_lat = rt.interpolate(u)
            # Vertices move now — the cached stencil must not outlive them.
            rt.end_step()
            # One lattice time step: dx_lat = u_lat * 1, physical = u_lat * dx.
            with tel.phase("move"):
                self.cells.update_vertices(v_lat * self.units.dx)
                self.cells.set_velocities(
                    v_lat * (self.units.dx / self.units.dt)
                )

    # ------------------------------------------------------------------
    def pressure_drop(self, axis: int = 2) -> float:
        """Mean physical pressure difference between the first and last
        fluid slabs along ``axis`` [Pa] (used with Eq. 12)."""
        rho = density(self.grid.f)
        fluid = ~self.grid.solid
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = 0
        sl_hi[axis] = self.grid.shape[axis] - 1
        lo_mask = fluid[tuple(sl_lo)]
        hi_mask = fluid[tuple(sl_hi)]
        p_lo = rho[tuple(sl_lo)][lo_mask].mean()
        p_hi = rho[tuple(sl_hi)][hi_mask].mean()
        cs2 = 1.0 / 3.0
        return self.units.pressure_to_physical(cs2 * (p_lo - p_hi))
