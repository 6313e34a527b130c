"""Fig. 9: CTC tracking through a (synthetic) cerebral vasculature.

Runs the moving-window APR through a toy Murray's-law tree — the
substitute for the patient-derived cerebral geometry — and reproduces the
figure's quantitative content: the CTC trajectory traced by the window,
the maintained window hematocrit, and the node-hour projection for a full
vessel traversal at the paper's 1.5 mm/day rate (dashed yellow line:
~500 node-hours for the full vessel).
"""

import numpy as np
import pytest

from conftest import FULL, banner
from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.geometry import murray_tree
from repro.geometry.voxelize import solid_mask_from_sdf
from repro.lbm import BounceBackWalls, Grid, LBMSolver, OutflowOutlet, VelocityInlet
from repro.membrane import make_ctc
from repro.perfmodel import CostModel
from repro.perfmodel.costmodel import fig9_projection
from repro.perfmodel.machine import AWS_P3_16XL
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO
STEPS = 300 if FULL else 80


def _build_and_run():
    tree = murray_tree(
        generations=2, root_radius=16e-6, length_to_radius=7.0,
        branch_angle_deg=25.0, seed=3, jitter=0.05,
    )
    lo, hi = tree.bounding_box(pad=6e-6)
    lo[2] = 2e-6
    dx_c = 3e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    shape = tuple(int(np.ceil((hi[d] - lo[d]) / dx_c)) + 1 for d in range(3))
    grid = Grid(shape, tau=tau_c, origin=lo, spacing=dx_c)
    grid.solid = solid_mask_from_sdf(tree, shape, lo, dx_c)
    root_pos = tree.graph.nodes[tree.root()]["pos"]
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    r2 = (xg - root_pos[0]) ** 2 + (yg - root_pos[1]) ** 2
    prof = np.zeros((3,) + xg.shape)
    prof[2] = units.velocity_to_lattice(0.1) * np.clip(1 - r2 / (16e-6) ** 2, 0, None)
    coarse = LBMSolver(grid, [
        BounceBackWalls(grid.solid),
        VelocityInlet(axis=2, side="low", velocity=prof),
        OutflowOutlet(axis=2, side="high"),
    ])
    spec = WindowSpec(proper_side=18e-6, onramp_width=6e-6, insertion_width=6e-6)
    cfg = APRConfig(
        window_spec=spec, refinement=2, nu_bulk=NU_BULK, nu_window=NU_PLASMA,
        hematocrit=0.15, rbc_diameter=5.5e-6, rbc_subdivisions=2,
        tile_side=14e-6, maintain_interval=10, seed=3,
    )
    start = root_pos + np.array([0.0, 0.0, 40e-6])
    sim = APRSimulation(cfg, coarse, start, units, geometry=tree)
    ctc = make_ctc(start, global_id=sim.cells.allocate_id(),
                   diameter=8e-6, subdivisions=2)
    sim.add_ctc(ctc)
    sim.fill_window()
    sim.step(STEPS)
    return sim, tree


def test_fig9_tracking_run(benchmark):
    sim, tree = benchmark.pedantic(_build_and_run, rounds=1, iterations=1)
    banner("Fig. 9: cerebral CTC tracking (toy scale)")
    traj = sim.tracker.trajectory()
    advance = sim.tracker.total_distance()
    print(f"  CTC advanced {advance * 1e6:.2f} um over {sim.time * 1e6:.1f} us")
    print(f"  window Ht {sim.window_hematocrit():.3f} "
          f"(target {sim.config.hematocrit}), {sim.cells.n_cells} cells")
    print(f"  window moves: {len(sim.move_reports)}")
    assert len(traj) == STEPS
    assert np.isfinite(traj).all()
    assert advance > 0
    assert sim.window_hematocrit() > 0.03
    # The CTC travels downstream (+z along the root vessel).
    assert traj[-1, 2] > traj[0, 2]


def test_fig9_node_hour_projection(benchmark):
    proj = benchmark(fig9_projection)
    banner("Fig. 9: node-hour projection")
    print(f"  {proj['vessel_length_mm']:.1f} mm at {proj['mm_per_day']} mm/day "
          f"-> {proj['node_hours']:.0f} node-hours (paper's dashed line: ~500)")
    assert np.isclose(proj["node_hours"], 500.0, rtol=1e-6)


def test_fig9_rate_arithmetic(benchmark):
    cm = CostModel(machine=AWS_P3_16XL)
    nh = benchmark(cm.traversal_node_hours, 1.5e-3)
    print(f"\n  1.5 mm of CTC travel = {nh:.0f} node-hours "
          "(paper: 1.5 mm per day on one node = 24)")
    assert np.isclose(nh, 24.0)
