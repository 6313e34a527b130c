"""FSIStepper with wall geometry: repulsion keeps cells in the fluid."""

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.geometry import Tube
from repro.lbm import BounceBackWalls, Grid
from repro.geometry.voxelize import solid_mask_for_grid
from repro.membrane import make_rbc
from repro.units import UnitSystem

RHO = 1025.0
NU = 1.2e-3 / RHO


def _tube_setup(offset_from_wall):
    dx = 1.0e-6
    dt = (1.0 / 6.0) * dx**2 / NU
    units = UnitSystem(dx, dt, RHO)
    R = 10e-6
    shape = (24, 24, 20)
    origin = np.array([-11.5e-6, -11.5e-6, 0.0])
    tube = Tube(radius=R, axis=2)
    g = Grid(shape, tau=1.0, origin=origin, spacing=dx)
    g.solid = solid_mask_for_grid(g, tube)
    cm = CellManager()
    cell = make_rbc(
        np.array([R - offset_from_wall, 0.0, 10e-6]),
        global_id=0,
        diameter=5.5e-6,
        subdivisions=1,
    )
    cm.add(cell)
    st = FSIStepper(
        g, units, cm, [BounceBackWalls(g.solid)], mode="clip",
        wall_geometry=tube, wall_cutoff=0.8e-6,
    )
    return st, cell, tube


@pytest.mark.slow
def test_wall_repulsion_pushes_cell_inward():
    # Cell centroid 2.5 um from the wall: vertices poke into the cutoff.
    st, cell, tube = _tube_setup(offset_from_wall=2.5e-6)
    sd0 = float(tube.sdf(cell.vertices).max())
    st.step(40)
    sd1 = float(tube.sdf(cell.vertices).max())
    assert sd1 < sd0 + 1e-9  # worst vertex no deeper toward/into the wall
    assert np.isfinite(cell.vertices).all()


@pytest.mark.slow
def test_no_wall_force_for_centered_cell():
    st, cell, tube = _tube_setup(offset_from_wall=10e-6)  # on the axis
    c0 = cell.centroid().copy()
    st.step(20)
    # No flow, no wall contact: the cell stays put (forces are zero).
    assert np.linalg.norm(cell.centroid() - c0) < 1e-8


# The cells at and past the wall reach the window edge by construction.
@pytest.mark.filterwarnings("ignore:.*kernel support outside:RuntimeWarning")
@pytest.mark.parametrize("offset", [0.3e-6, 2.5e-6, 21e-6])
def test_wall_pass_on_the_stencil_cells_is_the_unfiltered_sum(offset):
    """The stepper looks the wall prefilter up by the cells of its
    stencil and adds wall forces at the candidate rows only: the bits of
    ``(forces + wall) * scale`` with the unfiltered wall pass, for a cell
    at, near and past the wall (outside the window)."""
    from repro.constants import REPULSION_STIFFNESS
    from repro.fsi.walls import wall_repulsion_forces

    st, _, tube = _tube_setup(offset_from_wall=offset)
    rt = st.runtime
    forces, verts, _ = rt.total_forces(st.cells)
    rt.begin_step(verts)
    wall, rows = st._wall_forces(verts)
    scale = st.units.force_to_lattice(1.0)
    got = rt.lattice_forces(forces, scale, wall, rows)
    full = wall_repulsion_forces(tube, verts, st.wall_cutoff,
                                 REPULSION_STIFFNESS)
    assert np.array_equal(got, (forces + full) * scale)
    assert np.array_equal(
        st._wall_prefilter.forces(verts, REPULSION_STIFFNESS), full)
    near = np.flatnonzero(np.any(full != 0.0, axis=1))
    assert np.isin(near, rows).all()
    if offset > 20e-6:  # the cell straddles the window's x face
        assert len(rt.marker_cells()[1])
    rt.end_step()
