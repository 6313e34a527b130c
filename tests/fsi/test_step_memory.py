"""What one cell-laden FSI step allocates, and the force field it leaves.

The step forms its velocity in the force field and spreads one force
component at a time, so its only lattice-sized transient is one
float64 spread component: 8 B per node.  The rest of its scratch scales
with the markers.
"""

import tracemalloc

import numpy as np

from repro.fsi import CellManager, FSIStepper
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.units import UnitSystem

#: Lattice-sized transient of one step, bytes per node.
STEP_BYTES_PER_NODE = 8
#: Marker-sized transients of one step (forces, stencil build, the
#: interpolated velocity and the vertex update), bytes per marker; the
#: measured peak is about 100-300 B per marker.
STEP_BYTES_PER_MARKER = 1024


def _stepper(shape=(40, 40, 40)):
    dx = 0.5e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    g = Grid(shape, tau=1.0, origin=np.zeros(3), spacing=dx)
    cm = CellManager()
    center = dx * (np.array(shape) - 1) / 2.0
    for dz in (0.0, 2.5e-6):
        cm.add(make_rbc(center + np.array([0.0, 0.0, dz]),
                        global_id=cm.allocate_id(), subdivisions=2))
    return FSIStepper(g, units, cm, mode="wrap",
                      body_force=np.array([500.0, 0.0, 0.0]))


def test_cell_laden_step_allocates_one_spread_component_per_node():
    st = _stepper()
    # The first steps allocate what the step keeps: the moment cache,
    # the stencil pool, the contact list and the membrane workspace.
    st.step(2)
    n_nodes = st.grid.f[0].size
    n_markers = len(st.cells.packed_vertices()[0])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        st.step(1)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    budget = (STEP_BYTES_PER_NODE * n_nodes
              + STEP_BYTES_PER_MARKER * n_markers)
    assert peak <= budget, (
        f"step peak {peak} B over {n_nodes} nodes and {n_markers} markers "
        f"({peak / n_nodes:.1f} B per node)")


def test_force_field_is_the_body_force_after_a_step():
    st = _stepper(shape=(20, 20, 20))
    body = np.broadcast_to(st.body_force_lattice[:, None, None, None],
                           st.grid.force.shape)
    assert np.array_equal(st.grid.force, body)
    for _ in range(3):
        st.step(1)
        assert np.array_equal(st.grid.force, body)
