"""APR run diagnostics."""

import numpy as np
import pytest

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.core.diagnostics import (
    health_report,
    interface_velocity_mismatch,
    region_cell_counts,
    window_density_deviation,
)
from repro.geometry.primitives import Tube
from repro.geometry.voxelize import solid_mask_from_sdf
from repro.lbm import BounceBackWalls, Grid, LBMSolver
from repro.lbm.collision import macroscopic
from repro.membrane import make_rbc
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


@pytest.fixture()
def sim():
    dx_c = 2e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    cg = Grid((18,) * 3, tau=tau_c, spacing=dx_c)
    coarse = LBMSolver(cg, [])
    spec = WindowSpec(proper_side=8e-6, onramp_width=2e-6, insertion_width=2e-6)
    cfg = APRConfig(
        window_spec=spec, refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA,
        hematocrit=None,
    )
    center = dx_c * 8.5 * np.ones(3)
    return APRSimulation(cfg, coarse, center, units)


def test_interface_mismatch_small_for_uniform_flow(sim):
    vel = np.zeros((3,) + sim.coarse.grid.shape)
    vel[0] = 0.02
    sim.coarse.grid.init_equilibrium(1.0, vel)
    sim.coupling.initialize_fine_from_coarse()
    sim.step(2)
    assert interface_velocity_mismatch(sim.coupling) < 1e-10


def test_density_deviation_zero_at_rest(sim):
    assert window_density_deviation(sim) < 1e-12


def test_region_counts_classify_cells(sim):
    w = sim.window
    # One cell in each region (centroids placed by Chebyshev distance).
    for offset, expect in (
        (0.0, "proper"),
        (0.5 * (w.spec.proper_side + w.spec.interior_side) / 2, "onramp"),
    ):
        cell = make_rbc(
            w.center + np.array([offset, 0, 0]),
            global_id=sim.cells.allocate_id(),
            diameter=4e-6,
            subdivisions=1,
        )
        sim.cells.add(cell)
    counts = region_cell_counts(sim)
    assert counts["proper"] >= 1
    assert sum(counts.values()) == 2


def test_health_report_keys(sim):
    rep = health_report(sim)
    for key in (
        "interface_velocity_mismatch",
        "window_density_deviation",
        "window_hematocrit",
        "cells_proper",
        "window_moves",
        "time",
    ):
        assert key in rep
    assert rep["window_moves"] == 0.0


def _tube_sim():
    """A small cell-laden tube: walls, a body force, a cell in the window."""
    dx_c = 2e-6
    dt_c = 0.5 / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    shape = (17, 17, 24)
    origin = np.array([-8 * dx_c, -8 * dx_c, 0.0])
    tube = Tube(radius=14e-6, axis=2, center=(0.0, 0.0))
    cg = Grid(shape, tau=1.0, origin=origin, spacing=dx_c)
    cg.solid = solid_mask_from_sdf(tube, shape, origin, dx_c)
    cg.force[2] = 1e-5
    w = 9e-6
    cfg = APRConfig(
        window_spec=WindowSpec(proper_side=w, onramp_width=w / 6,
                               insertion_width=w / 3),
        refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA,
        hematocrit=None,
    )
    center = np.array([0.0, 0.0, 11.5 * dx_c])
    sim = APRSimulation(
        cfg, LBMSolver(cg, [BounceBackWalls(cg.solid)]),
        window_center=center, coarse_units=units, geometry=tube,
    )
    sim.cells.add(make_rbc(center, global_id=sim.cells.allocate_id(),
                           diameter=4e-6, subdivisions=1))
    sim.step(2)
    return sim


def test_diagnostics_equal_their_full_lattice_forms():
    """``mass()``, the density deviation and the interface mismatch form
    only what they read, and return the floats the full-lattice
    ``macroscopic`` gives."""
    sim = _tube_sim()
    assert sim.cells.n_cells > 0
    fine, coarse = sim.fine.solver, sim.coupling.coarse
    for solver in (fine, coarse):
        rho, _ = macroscopic(solver.grid.f)
        assert solver.mass() == float(rho[~solver.grid.solid].sum())

    fg = fine.grid
    rho_f, u_f = macroscopic(fg.f)
    want = float(np.abs(rho_f[~fg.solid] - 1.0).max())
    assert window_density_deviation(sim) == want

    _, u_c = macroscopic(coarse.grid.f)
    ci = sim.coupling.restriction_coarse_indices
    fi = sim.coupling.restriction_fine_indices
    assert len(ci[0]) > 0
    diff = u_c[(slice(None),) + ci] - u_f[(slice(None),) + fi]
    want = float(np.abs(diff).max())
    assert interface_velocity_mismatch(sim.coupling) == want
