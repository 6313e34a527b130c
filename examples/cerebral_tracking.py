#!/usr/bin/env python
"""CTC tracking through a bifurcating vasculature (Fig. 9, toy scale).

Builds a synthetic Murray's-law vascular tree (the stand-in for the
paper's patient-derived cerebral geometry), releases a CTC in the root
vessel surrounded by a cell-laden APR window, and tracks it as the window
moves with it through the vessel.  Finishes with the Fig. 9-style
projection: the node-hours needed to traverse the full vessel at the
measured rate, using the cost model calibrated to the paper's AWS node.

Runtime: ~5 minutes with defaults; --quick for a fast smoke run.
"""

import argparse
from pathlib import Path

import numpy as np

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.geometry import murray_tree
from repro.geometry.voxelize import solid_mask_from_sdf
from repro.io import TrajectoryWriter
from repro.lbm import BounceBackWalls, Grid, LBMSolver, OutflowOutlet, VelocityInlet
from repro.membrane import make_ctc
from repro.perfmodel import CostModel
from repro.perfmodel.machine import AWS_P3_16XL
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--outdir", type=Path, default=Path("cerebral"))
    args = parser.parse_args()
    args.outdir.mkdir(exist_ok=True)
    steps = 40 if args.quick else 200

    # ------------------------------------------------------------------
    # Synthetic vessel tree (toy-scaled radii so the demo fits a laptop).
    # ------------------------------------------------------------------
    tree = murray_tree(
        generations=2,
        root_radius=16e-6,
        length_to_radius=7.0,
        branch_angle_deg=25.0,
        seed=args.seed,
        jitter=0.05,
    )
    lo, hi = tree.bounding_box(pad=6e-6)
    lo[2] = 2e-6  # slice the root capsule: the cut disk is the inlet
    print(f"tree: {tree.n_segments} vessels, "
          f"domain {(hi - lo) * 1e6} um")

    # ------------------------------------------------------------------
    # Coarse bulk lattice over the tree's bounding box.
    # ------------------------------------------------------------------
    dx_c = 3e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    shape = tuple(int(np.ceil((hi[d] - lo[d]) / dx_c)) + 1 for d in range(3))
    grid = Grid(shape, tau=tau_c, origin=lo, spacing=dx_c)
    grid.solid = solid_mask_from_sdf(tree, shape, lo, dx_c)

    inlet_speed = 0.05  # m/s
    root_pos = tree.graph.nodes[tree.root()]["pos"]
    xs = grid.axis_coords(0)
    ys = grid.axis_coords(1)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    r2 = (xg - root_pos[0]) ** 2 + (yg - root_pos[1]) ** 2
    prof = np.zeros((3,) + xg.shape)
    prof[2] = units.velocity_to_lattice(2 * inlet_speed) * np.clip(
        1.0 - r2 / (16e-6) ** 2, 0.0, None
    )
    coarse = LBMSolver(
        grid,
        [
            BounceBackWalls(grid.solid),
            VelocityInlet(axis=2, side="low", velocity=prof),
            OutflowOutlet(axis=2, side="high"),
        ],
    )

    # ------------------------------------------------------------------
    # APR window with RBCs around the CTC, released on the root axis.
    # ------------------------------------------------------------------
    ctc_diameter = 8e-6
    spec = WindowSpec(proper_side=18e-6, onramp_width=6e-6, insertion_width=6e-6)
    cfg = APRConfig(
        window_spec=spec,
        refinement=2,
        nu_bulk=NU_BULK,
        nu_window=NU_PLASMA,
        hematocrit=0.15,
        rbc_diameter=5.5e-6,
        rbc_subdivisions=2,
        tile_side=14e-6,
        maintain_interval=10,
        seed=args.seed,
    )
    start = root_pos + np.array([0.0, 0.0, 40e-6])
    sim = APRSimulation(cfg, coarse, start, units, geometry=tree)
    ctc = make_ctc(start, global_id=sim.cells.allocate_id(),
                   diameter=ctc_diameter, subdivisions=2)
    sim.add_ctc(ctc)
    n_rbc = sim.fill_window()
    print(f"window Ht target {cfg.hematocrit:.2f}: seeded {n_rbc} RBCs")

    # ------------------------------------------------------------------
    # Track the CTC.
    # ------------------------------------------------------------------
    traj_path = args.outdir / "ctc_trajectory.csv"
    with TrajectoryWriter(traj_path) as writer:
        writer.record(0.0, ctc.centroid())
        for chunk in range(steps // 20):
            sim.step(20)
            writer.record(sim.time, ctc.centroid())
            print(
                f"t = {sim.time * 1e6:7.1f} us   z = {ctc.centroid()[2] * 1e6:6.2f} um  "
                f"cells = {sim.cells.n_cells:3d}   Ht = {sim.window_hematocrit():.3f}  "
                f"moves = {len(sim.move_reports)}"
            )
    print(f"wrote {traj_path}")

    # ------------------------------------------------------------------
    # Fig. 9 projection: node-hours for the full vessel at this rate.
    # ------------------------------------------------------------------
    advance = sim.tracker.total_distance()
    path_len = float(
        np.linalg.norm(np.diff(tree.centerline_path(), axis=0), axis=1).sum()
    )
    print(f"\nCTC advanced {advance * 1e6:.2f} um in {sim.time * 1e3:.3f} ms "
          f"of simulated time")
    cm = CostModel(machine=AWS_P3_16XL)
    # The paper's cerebral run advances 1.5 mm of CTC travel per node-day.
    nh = cm.traversal_node_hours(path_len)
    print(f"full root-to-terminal path is {path_len * 1e3:.2f} mm; at the "
          f"paper's 1.5 mm/day rate that costs ~{nh:.0f} node-hours "
          f"(Fig. 9's dashed-line projection: ~500 for ~31 mm)")


if __name__ == "__main__":
    main()
