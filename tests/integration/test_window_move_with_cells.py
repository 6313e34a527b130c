"""Window move with a live RBC population (the paper's Fig. 3B moment).

Exercises the full relocation path: capture/fill sorting, deep copies,
insertion re-seeding, fine-grid rebuild, and coupling re-initialization —
with deformable cells present and the simulation continuing afterwards.
"""

import numpy as np
import pytest

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.core.diagnostics import health_report
from repro.lbm import Grid, LBMSolver
from repro.membrane import CellKind, make_ctc
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


@pytest.fixture(scope="module")
def moved_sim():
    dx_c = 2.5e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    box = 26
    cg = Grid((box,) * 3, tau=tau_c, spacing=dx_c)
    force = 2e4
    cg.force[0] = units.force_density_to_lattice(force)
    coarse = LBMSolver(cg, [])
    spec = WindowSpec(proper_side=14e-6, onramp_width=5e-6, insertion_width=5e-6)
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
        seed=7,
    )
    center = dx_c * 10.0 * np.ones(3)
    sim = APRSimulation(
        cfg, coarse, center, units,
        window_body_force=np.array([force, 0.0, 0.0]),
    )
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(),
                   diameter=7e-6, subdivisions=1)
    sim.add_ctc(ctc)
    sim.fill_window()
    sim.step(3)

    before = {
        "n_cells": sim.cells.n_cells,
        "center": sim.window.center.copy(),
        "rbc_shapes": {
            c.global_id: c.vertices.copy()
            for c in sim.cells.cells
            if c.kind is CellKind.RBC
        },
    }
    # Drag the CTC toward the +x proper boundary to force a move.
    ctc.translate(np.array([5e-6, 0, 0]))
    report = sim.move_window()
    sim.step(3)
    return sim, before, report


@pytest.mark.slow
def test_window_recentered(moved_sim):
    sim, before, report = moved_sim
    assert sim.window.center[0] > before["center"][0]
    assert np.abs(report.displacement).max() > 0


@pytest.mark.slow
def test_ctc_survives_move(moved_sim):
    sim, *_ = moved_sim
    assert sim.ctc is not None
    assert sim.ctc.global_id in sim.cells
    assert np.isfinite(sim.ctc.vertices).all()


@pytest.mark.slow
def test_captured_cells_keep_deformed_shapes(moved_sim):
    sim, before, report = moved_sim
    if report.n_captured == 0:
        pytest.skip("no cells landed in the capture region for this seed")
    survivors = 0
    for gid, verts in before["rbc_shapes"].items():
        if gid in sim.cells:
            # Shapes evolve after the move (3 more steps), but captured
            # cells were never re-instantiated: still finite, same mesh.
            assert sim.cells.get(gid).vertices.shape == verts.shape
            survivors += 1
    assert survivors >= report.n_captured


@pytest.mark.slow
def test_population_maintained_after_move(moved_sim):
    sim, before, report = moved_sim
    assert sim.cells.n_cells > 0
    # The controller re-seeded the new insertion shell.
    assert report.n_inserted >= 0
    assert sim.window_hematocrit() > 0.03


@pytest.mark.slow
def test_all_cells_inside_new_window(moved_sim):
    sim, *_ = moved_sim
    lo, hi = sim.window.bounds()
    for c in sim.cells.cells:
        if c.kind is CellKind.RBC:
            cc = c.centroid()
            assert np.all(cc >= lo - 1e-9) and np.all(cc <= hi + 1e-9)


@pytest.mark.slow
def test_coupling_healthy_after_move(moved_sim):
    sim, *_ = moved_sim
    rep = health_report(sim)
    assert rep["window_density_deviation"] < 0.05
    assert np.isfinite(rep["interface_velocity_mismatch"])
    assert rep["window_moves"] == 1.0
