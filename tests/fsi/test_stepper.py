"""Coupled FSI stepper: advection, conservation, pressure drop."""

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.units import UnitSystem


def _setup(shape=(20, 20, 20), with_cell=True, force=None):
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    g = Grid(shape, tau=1.0, origin=np.zeros(3), spacing=dx)
    cm = CellManager()
    if with_cell:
        center = dx * (np.array(shape) - 1) / 2.0
        cm.add(make_rbc(center, global_id=cm.allocate_id(), subdivisions=2))
    st = FSIStepper(g, units, cm, mode="wrap", body_force=force)
    return st, units


def test_fluid_only_step_runs():
    st, _ = _setup(with_cell=False)
    st.step(3)
    assert st.step_count == 3


def test_only_a_cell_laden_lattice_keeps_a_moment_cache():
    """Advection reads the post-stream moments the next collide reuses:
    a lattice with cells keeps them cached, one without does not."""
    laden, _ = _setup(with_cell=True)
    laden.step(1)
    assert laden.grid.current_moments() is not None
    bare, _ = _setup(with_cell=False)
    bare.step(1)
    assert bare.grid._moments is None


def test_cell_volume_conserved_in_uniform_flow():
    st, _ = _setup(force=np.array([500.0, 0, 0]))
    cell = st.cells.cells[0]
    v0 = cell.volume()
    st.step(100)
    assert abs(cell.volume() - v0) / v0 < 1e-3


def test_cell_advects_with_flow():
    st, units = _setup(force=np.array([2000.0, 0, 0]))
    cell = st.cells.cells[0]
    x0 = cell.centroid()[0]
    st.step(150)
    _, u = st.solver.macroscopic()
    assert cell.centroid()[0] > x0
    # displacement consistent with the mean flow to ~20%
    expected = u[0].mean() * units.dx * 150
    moved = cell.centroid()[0] - x0
    assert 0.5 * expected < moved < 1.5 * expected


def test_velocities_recorded_on_cells():
    st, _ = _setup(force=np.array([1000.0, 0, 0]))
    st.step(5)
    cell = st.cells.cells[0]
    assert cell.velocities.shape == cell.vertices.shape
    assert np.abs(cell.velocities).max() > 0


def test_momentum_conserved_with_internal_forces_only():
    """Membrane forces are internal: fluid+cell momentum change is zero."""
    st, _ = _setup()
    cell = st.cells.cells[0]
    # deform the cell so membrane forces are nonzero
    c = cell.centroid()
    cell.vertices[:] = c + (cell.vertices - c) * 1.04
    st.step(20)
    mom = st.solver.momentum()
    assert np.abs(mom).max() < 1e-6  # lattice units; forcing-free total


def test_pressure_drop_sign_with_body_force():
    # Flow along +z driven by body force in a periodic domain has a flat
    # density; impose a gradient manually to exercise the measurement.
    st, units = _setup(with_cell=False)
    rho = np.ones(st.grid.shape)
    rho[:, :, 0] = 1.01
    st.grid.init_equilibrium(rho, None)
    dp = st.pressure_drop(axis=2)
    assert dp > 0


def _pressure_drop_from_macroscopic(st, axis):
    """``pressure_drop`` as it read the full ``macroscopic()`` density."""
    rho, _ = st.solver.macroscopic()
    fluid = ~st.grid.solid
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis], hi[axis] = 0, st.grid.shape[axis] - 1
    lo, hi = tuple(lo), tuple(hi)
    p_lo = rho[lo][fluid[lo]].mean()
    p_hi = rho[hi][fluid[hi]].mean()
    return st.units.pressure_to_physical(1.0 / 3.0 * (p_lo - p_hi))


@pytest.mark.parametrize("with_cell", [True, False])
def test_pressure_drop_reads_density_alone_bitwise(with_cell):
    """From ``density(f)``, without the moment rows and velocity: the
    value ``macroscopic()`` gave, exactly, with a cache or without."""
    st, _ = _setup(with_cell=with_cell, force=np.array([0.0, 0.0, 800.0]))
    st.grid.solid[0, 0] = True  # an edge of nodes the slabs leave out
    st.step(3)
    for axis in range(3):
        assert st.pressure_drop(axis) == _pressure_drop_from_macroscopic(
            st, axis)


def test_spread_forces_resets_force_field():
    st, _ = _setup(force=np.array([100.0, 0, 0]))
    st.step(2)
    base = st.body_force_lattice[0]
    # Between steps the field is the body force alone; the spread adds
    # the membrane forces onto it, and after the step's reset a second
    # spread at the same positions gives the same field: nothing
    # accumulates.
    assert np.array_equal(
        st.grid.force,
        np.broadcast_to(st.body_force_lattice[:, None, None, None],
                        st.grid.force.shape),
    )
    st._spread_forces()
    f1 = st.grid.force.copy()
    st._reset_force()
    st._spread_forces()
    assert np.array_equal(st.grid.force, f1)
    assert np.isclose(st.grid.force[0].mean(), base, rtol=0.5)
