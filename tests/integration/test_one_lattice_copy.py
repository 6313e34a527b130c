"""The product paths never allocate a grid's second lattice.

``Grid.f_post`` exists for out-of-place kernel calls only; an FSI step
and an APR step (coarse and fine solvers, ghost coupling, window cells)
advance every lattice in place.
"""

import numpy as np

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.fsi import CellManager, FSIStepper
from repro.lbm import Grid, LBMSolver
from repro.membrane import make_rbc
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


def test_fsi_stepper_keeps_one_lattice():
    dx, shape = 0.65e-6, (12, 12, 12)
    units = UnitSystem(dx, (1.0 / 6.0) * dx**2 / NU_PLASMA, RHO)
    g = Grid(shape, tau=1.0, spacing=dx)
    cm = CellManager()
    cm.add(make_rbc(dx * (np.array(shape) - 1) / 2.0,
                    global_id=cm.allocate_id(), subdivisions=1))
    st = FSIStepper(g, units, cm, mode="wrap",
                    body_force=np.array([1000.0, 0.0, 0.0]))
    st.step(3)
    assert g._f_post is None


def test_apr_simulation_keeps_one_lattice_per_level():
    dx_c, box = 2e-6, 14
    units = UnitSystem(dx_c, 0.5 / 3.0 * dx_c**2 / NU_BULK, RHO)
    coarse = LBMSolver(Grid((box,) * 3, tau=1.0, spacing=dx_c), [])
    cfg = APRConfig(
        window_spec=WindowSpec(proper_side=6e-6, onramp_width=1.5e-6,
                               insertion_width=1.5e-6),
        refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA,
        hematocrit=None,
    )
    sim = APRSimulation(cfg, coarse, dx_c * (box - 1) / 2.0 * np.ones(3),
                        units)
    sim.step(2)
    assert sim.coarse.grid._f_post is None
    assert sim.fine.grid._f_post is None
