"""APRSimulation integration: assembly, stepping, window moves."""

import numpy as np
import pytest

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.io.checkpoint import load_checkpoint
from repro.lbm import Grid, LBMSolver
from repro.membrane import make_ctc, make_rbc
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


def _fluid_only_sim(box_cells=16, w_total=12e-6, n=2, seed=0):
    """Periodic box, no cells: exercises window placement and coupling."""
    dx_c = 2e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    cg = Grid((box_cells,) * 3, tau=tau_c, spacing=dx_c)
    coarse = LBMSolver(cg, [])
    spec = WindowSpec(
        proper_side=w_total / 2, onramp_width=w_total / 8, insertion_width=w_total / 8
    )
    cfg = APRConfig(
        window_spec=spec,
        refinement=n,
        nu_bulk=NU_BULK,
        nu_window=NU_PLASMA,
        hematocrit=None,
        seed=seed,
    )
    center = dx_c * (box_cells - 1) / 2.0 * np.ones(3)
    sim = APRSimulation(cfg, coarse, center, units)
    return sim, units, dx_c


def test_window_snapped_to_coarse_lattice():
    sim, units, dx_c = _fluid_only_sim()
    rel = (sim.fine.grid.origin - sim.coarse.grid.origin) / dx_c
    assert np.allclose(rel, np.round(rel))


def test_fine_tau_satisfies_eq7():
    sim, *_ = _fluid_only_sim()
    n = sim.config.refinement
    lam = sim.config.viscosity_contrast
    expected = 0.5 + n * lam * (sim.coarse.grid.tau - 0.5)
    assert np.isclose(sim.fine.grid.tau, expected)


def test_mismatched_coarse_tau_rejected():
    dx_c = 2e-6
    units = UnitSystem(dx_c, 1e-7, RHO)  # dt inconsistent with tau below
    cg = Grid((16,) * 3, tau=1.0, spacing=dx_c)
    spec = WindowSpec(proper_side=6e-6, onramp_width=1.5e-6, insertion_width=1.5e-6)
    cfg = APRConfig(
        window_spec=spec, refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA
    )
    with pytest.raises(ValueError):
        APRSimulation(cfg, LBMSolver(cg, []), np.full(3, 15e-6), units)


def test_window_too_large_rejected():
    dx_c = 2e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    cg = Grid((8,) * 3, tau=tau_c, spacing=dx_c)
    spec = WindowSpec(proper_side=20e-6, onramp_width=4e-6, insertion_width=4e-6)
    cfg = APRConfig(
        window_spec=spec, refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA
    )
    with pytest.raises(ValueError):
        APRSimulation(cfg, LBMSolver(cg, []), np.full(3, 8e-6), units)


def test_fluid_only_stepping_preserves_uniform_flow():
    sim, units, _ = _fluid_only_sim()
    vel = np.zeros((3,) + sim.coarse.grid.shape)
    vel[0] = 0.01
    sim.coarse.grid.init_equilibrium(1.0, vel)
    sim.coupling.initialize_fine_from_coarse()
    sim.step(3)
    _, u_f = sim.fine.solver.macroscopic()
    assert np.allclose(u_f[0], 0.01, atol=1e-9)


def test_ctc_registration():
    sim, *_ = _fluid_only_sim()
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(), subdivisions=1)
    sim.add_ctc(ctc)
    assert sim.ctc is ctc
    with pytest.raises(ValueError):
        sim.add_ctc(ctc)


def test_manual_window_move_recentres_on_ctc():
    sim, units, dx_c = _fluid_only_sim(box_cells=24)
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(), subdivisions=1)
    sim.add_ctc(ctc)
    old_center = sim.window.center.copy()
    ctc.translate(np.array([4 * dx_c, 0, 0]))
    report = sim.move_window()
    assert len(sim.move_reports) == 1
    assert sim.window.center[0] > old_center[0]
    # CTC preserved through the move.
    assert sim.ctc.global_id in sim.cells
    # Fine grid follows the window.
    assert np.allclose(
        sim.fine.grid.origin + 0.5 * (np.array(sim.fine.grid.shape) - 1) * sim.fine.grid.spacing,
        sim.window.center,
    )


def test_automatic_move_triggered_by_stepping():
    sim, units, dx_c = _fluid_only_sim(box_cells=24, w_total=12e-6)
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(), subdivisions=1)
    sim.add_ctc(ctc)
    # Teleport the CTC near the proper boundary, then step once.
    ctc.translate(np.array([3e-6, 0, 0]))
    sim.step(1)
    assert len(sim.move_reports) >= 1


def test_time_property():
    sim, units, _ = _fluid_only_sim()
    sim.step(4)
    assert np.isclose(sim.time, 4 * units.dt)


def test_window_hematocrit_zero_without_cells():
    sim, *_ = _fluid_only_sim()
    assert sim.window_hematocrit() == 0.0


def test_controller_counters_run_across_window_moves():
    """One controller per simulation: ``n_inserted`` is the sum of every
    maintain pass, including the reseed of a window move."""
    dx_c = 2e-6
    units = UnitSystem(dx_c, (1.0 - 0.5) / 3.0 * dx_c**2 / NU_BULK, RHO)
    coarse = LBMSolver(Grid((24,) * 3, tau=1.0, spacing=dx_c), [])
    cfg = APRConfig(
        window_spec=WindowSpec(12e-6, 3e-6, 3e-6), refinement=2,
        nu_bulk=NU_BULK, nu_window=NU_PLASMA, hematocrit=0.1,
        rbc_diameter=4e-6, rbc_subdivisions=1, maintain_interval=2,
    )
    sim = APRSimulation(cfg, coarse, np.full(3, 23e-6), units)
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(),
                   diameter=4e-6, subdivisions=1)
    sim.add_ctc(ctc)
    ctrl = sim.controller
    returns = []
    maintain = ctrl.maintain

    def recording(*args, **kwargs):
        returns.append(maintain(*args, **kwargs))
        return returns[-1]

    ctrl.maintain = recording
    sim.step(2)
    ctc.translate(np.array([4 * dx_c, 0.0, 0.0]))
    report = sim.move_window()
    sim.step(2)
    assert sim.controller is ctrl and len(returns) == 3
    assert report.n_inserted == returns[1]
    assert ctrl.n_inserted == sum(returns) > returns[-1]


@pytest.mark.slow
def test_checkpoint_roundtrip(tmp_path):
    sim, units, dx_c = _fluid_only_sim(box_cells=20)
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(), subdivisions=1)
    sim.add_ctc(ctc)
    vel = np.zeros((3,) + sim.coarse.grid.shape)
    vel[0] = 0.01
    sim.coarse.grid.init_equilibrium(1.0, vel)
    sim.coupling.initialize_fine_from_coarse()
    sim.step(3)
    path = tmp_path / "ck.npz"
    sim.save(path)
    f_coarse = sim.coarse.grid.f.copy()
    ctc_verts = sim.ctc.vertices.copy()
    step = sim.coarse_step_count

    # Continue, then restore: state must rewind exactly.
    sim.step(4)
    assert not np.allclose(sim.ctc.vertices, ctc_verts)
    sim.restore(load_checkpoint(path))
    assert sim.coarse_step_count == step
    assert np.allclose(sim.coarse.grid.f, f_coarse)
    assert sim.ctc is not None
    assert np.allclose(sim.ctc.vertices, ctc_verts)
    # Restored sim keeps stepping.
    sim.step(2)
    assert sim.coarse_step_count == step + 2


def test_restore_keeps_packed_order_rng_and_next_id(tmp_path):
    """The spread sums the markers in packed order, so a restore rebuilds
    that order instead of sorting the cells by ID (a removal or a window
    move leaves them unsorted); the seeding RNG and the ID counter go on
    where they were."""
    sim, *_ = _fluid_only_sim()
    for k in range(4):
        sim.cells.add(make_rbc(sim.window.center + np.array([0.0, 0.0, 3e-6 * k]),
                               global_id=sim.cells.allocate_id(),
                               subdivisions=1))
    sim.cells.allocate_id()  # a stamped candidate that was rejected
    sim.cells.remove(1)  # swap-remove: the last cell takes its row
    order = [c.global_id for c in sim.cells.cells]
    assert order != sorted(order)
    sim.rng.random(3)
    sim.save(tmp_path / "ck.npz")

    fresh, *_ = _fluid_only_sim()
    fresh.restore(load_checkpoint(tmp_path / "ck.npz"))
    assert [c.global_id for c in fresh.cells.cells] == order
    assert np.array_equal(fresh.cells.packed_vertices()[0],
                          sim.cells.packed_vertices()[0])
    assert fresh.cells.next_id == sim.cells.next_id == 5
    assert fresh.rng.bit_generator.state == sim.rng.bit_generator.state
