#!/usr/bin/env python
"""Quickstart: a cell-laden APR window coupled to a bulk flow.

Builds the smallest meaningful APR setup — a periodic whole-blood box with
a body-force-driven flow, a finely-resolved plasma window at its center
populated with deformable RBCs at 12% hematocrit — runs a handful of
coupled steps, and reports what happened.

Runtime: ~1 minute on a laptop.
"""

import numpy as np

from repro import APRConfig, APRSimulation, UnitSystem, WindowSpec
from repro.lbm import Grid, LBMSolver

RHO = 1025.0  # blood density [kg/m^3]
NU_BULK = 4e-3 / RHO  # whole blood, 4 cP
NU_PLASMA = 1.2e-3 / RHO  # plasma, 1.2 cP


def main() -> None:
    # ------------------------------------------------------------------
    # Coarse bulk lattice: a periodic box of whole blood, driven by a
    # body force (the pressure-gradient equivalent).
    # ------------------------------------------------------------------
    dx_coarse = 2.5e-6  # 2.5 um coarse spacing
    tau_coarse = 1.0
    dt_coarse = (tau_coarse - 0.5) / 3.0 * dx_coarse**2 / NU_BULK
    units = UnitSystem(dx_coarse, dt_coarse, RHO)

    box_cells = 24
    grid = Grid((box_cells,) * 3, tau=tau_coarse, spacing=dx_coarse)
    force = 3.0e4  # N/m^3
    grid.force[0] = units.force_density_to_lattice(force)
    coarse = LBMSolver(grid, [])

    # ------------------------------------------------------------------
    # APR window: plasma + explicit RBCs, refinement ratio 2.
    # ------------------------------------------------------------------
    spec = WindowSpec(
        proper_side=15e-6, onramp_width=5e-6, insertion_width=5e-6
    )
    config = APRConfig(
        window_spec=spec,
        refinement=2,
        nu_bulk=NU_BULK,
        nu_window=NU_PLASMA,
        hematocrit=0.12,
        rbc_diameter=5.5e-6,  # toy-scale cells for a fast demo
        rbc_subdivisions=2,
        tile_side=14e-6,
        maintain_interval=5,
        seed=0,
    )
    center = dx_coarse * (box_cells - 1) / 2.0 * np.ones(3)
    sim = APRSimulation(
        config,
        coarse,
        window_center=center,
        coarse_units=units,
        window_body_force=np.array([force, 0.0, 0.0]),
    )

    n_cells = sim.fill_window()
    print(f"window: {spec.total_side * 1e6:.0f} um cube, "
          f"fine spacing {sim.units_fine.dx * 1e9:.0f} nm")
    print(f"tau_coarse = {coarse.grid.tau:.3f}, tau_fine = {sim.tau_fine:.3f} "
          f"(Eq. 7 with lambda = {config.viscosity_contrast:.2f})")
    print(f"seeded {n_cells} RBCs, window Ht = {sim.window_hematocrit():.3f}")

    # ------------------------------------------------------------------
    # Run 30 coupled coarse steps (each runs 2 fine FSI sub-steps).
    # ------------------------------------------------------------------
    for chunk in range(3):
        sim.step(10)
        _, u = sim.fine.solver.macroscopic()
        u_phys = np.abs(u[0]).max() * units.dx / units.dt
        print(
            f"t = {sim.time * 1e6:7.2f} us   "
            f"cells = {sim.cells.n_cells:3d}   "
            f"Ht = {sim.window_hematocrit():.3f}   "
            f"max |u| = {u_phys * 1e3:.2f} mm/s"
        )

    ctrl = sim.controller
    print(f"controller inserted {ctrl.n_inserted} and removed "
          f"{ctrl.n_removed} cells to hold the target hematocrit")


if __name__ == "__main__":
    main()
