"""End-to-end eFSI behavior: deformation, advection, stability."""

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.lbm import BounceBackWalls, Grid
from repro.membrane import make_rbc
from repro.units import UnitSystem

RHO = 1025.0
NU_PLASMA = 1.2e-3 / RHO


def _shear_box(ny=24, u_wall=0.04):
    """Plate-shear cell with one RBC at the center."""
    dx = 0.65e-6
    dt = (1.0 / 6.0) * dx**2 / NU_PLASMA
    units = UnitSystem(dx, dt, RHO)
    shape = (20, ny, 20)
    g = Grid(shape, tau=1.0, spacing=dx)
    g.solid[:, 0, :] = True
    g.solid[:, -1, :] = True
    uw = np.zeros((3,) + shape)
    uw[0, :, -2, :] = u_wall
    uw[0, :, 1, :] = -u_wall
    walls = BounceBackWalls(g.solid, wall_velocity=uw)
    cm = CellManager()
    center = dx * (np.array(shape) - 1) / 2.0
    cell = make_rbc(center, global_id=cm.allocate_id(), subdivisions=2)
    cm.add(cell)
    st = FSIStepper(g, units, cm, [walls], mode="clip")
    # Pre-develop the linear shear profile so the cell sees flow at once.
    y = g.axis_coords(1) / dx
    prof = np.zeros((3,) + shape)
    mid = (ny - 1) / 2.0
    prof[0] = (u_wall * (y - mid) / (mid - 0.5))[None, :, None]
    prof[0, :, 0, :] = 0
    prof[0, :, -1, :] = 0
    g.init_equilibrium(1.0, prof)
    return st, cell, units


@pytest.mark.slow
def test_rbc_deforms_in_shear():
    st, cell, _ = _shear_box()
    from repro.membrane import skalak_energy

    e0 = float(skalak_energy(cell.vertices - cell.centroid(), cell.reference,
                             cell.shear_modulus, cell.skalak_C))
    st.step(300)
    e1 = float(skalak_energy(cell.vertices - cell.centroid(), cell.reference,
                             cell.shear_modulus, cell.skalak_C))
    assert e1 > e0  # strain energy stored as the cell deforms
    assert np.isfinite(cell.vertices).all()


@pytest.mark.slow
def test_rbc_volume_area_stable_in_shear():
    """Volume is tightly conserved; area strain stays bounded while the
    cell elongates (the toy-scale shear rate here is far above capillary
    rates, so a few percent of area strain is expected)."""
    st, cell, _ = _shear_box(u_wall=0.02)
    v0, a0 = cell.volume(), cell.area()
    st.step(300)
    assert abs(cell.volume() - v0) / v0 < 0.01
    assert abs(cell.area() - a0) / a0 < 0.08


@pytest.mark.slow
def test_rbc_stays_near_midplane_in_symmetric_shear():
    st, cell, units = _shear_box()
    y0 = cell.centroid()[1]
    st.step(300)
    # Symmetric shear: no systematic lateral drift beyond a cell radius.
    assert abs(cell.centroid()[1] - y0) < 4e-6


def test_two_cell_contact_keeps_separation():
    """Two cells pressed together by initial overlap-adjacent placement
    separate instead of interpenetrating (contact + membrane forces)."""
    dx = 0.65e-6
    dt = (1.0 / 6.0) * dx**2 / NU_PLASMA
    units = UnitSystem(dx, dt, RHO)
    shape = (32, 24, 24)
    g = Grid(shape, tau=1.0, spacing=dx)
    cm = CellManager(contact_cutoff=0.5e-6)
    c1 = make_rbc(np.array([9e-6, 7.5e-6, 7.5e-6]), global_id=0, subdivisions=2)
    c2 = make_rbc(np.array([13e-6, 7.5e-6, 7.5e-6]), global_id=1, subdivisions=2)
    cm.add(c1)
    cm.add(c2)
    st = FSIStepper(g, units, cm, mode="wrap")
    st.step(60)
    d = np.linalg.norm(c2.centroid() - c1.centroid())
    assert d > 3.5e-6  # no collapse into each other
    assert np.isfinite(c1.vertices).all() and np.isfinite(c2.vertices).all()
