#!/usr/bin/env python
"""CTC tracking through a bifurcating vasculature (Fig. 9, toy scale).

Runs the E8 driver (:func:`repro.experiments.vessel_tree.run_tree_ctc`):
a CTC released in the root vessel of a synthetic Murray's-law tree (the
stand-in for the paper's patient-derived cerebral geometry), surrounded
by a cell-laden APR window that moves with it.  Writes the CTC
trajectory to CSV and finishes with the Fig. 9-style projection: the
node-hours needed to traverse the full vessel at the paper's rate.

Runtime: ~20 s with defaults; --quick for a fast smoke run.
"""

import argparse
from pathlib import Path

from repro.experiments.vessel_tree import HEMATOCRIT, run_tree_ctc
from repro.io import TrajectoryWriter
from repro.perfmodel.costmodel import traversal_node_hours


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--outdir", type=Path, default=Path("cerebral"))
    args = parser.parse_args()
    args.outdir.mkdir(exist_ok=True)

    r = run_tree_ctc(steps=40 if args.quick else 200, seed=args.seed)
    print(f"window Ht target {HEMATOCRIT:.2f}: seeded {r.n_rbcs} RBCs")
    for i in range(19, len(r.times), 20):
        print(f"t = {r.times[i] * 1e6:7.1f} us   "
              f"z = {r.trajectory[i, 2] * 1e6:6.2f} um")
    print(f"window Ht {r.ht_history[-1, 1]:.3f}, {r.n_cells_final} cells, "
          f"{r.window_moves} window moves")

    traj_path = args.outdir / "ctc_trajectory.csv"
    with TrajectoryWriter(traj_path) as writer:
        for t, pos in zip(r.times, r.trajectory):
            writer.record(t, pos)
    print(f"wrote {traj_path}")

    print(f"\nCTC advanced {r.advance * 1e6:.2f} um in {r.times[-1] * 1e3:.3f} ms "
          f"of simulated time")
    nh = traversal_node_hours(r.path_length)
    print(f"full root-to-terminal path is {r.path_length * 1e3:.2f} mm; at the "
          f"paper's 1.5 mm/day rate that costs ~{nh:.0f} node-hours "
          f"(Fig. 9's dashed-line projection: ~500 for ~31 mm)")


if __name__ == "__main__":
    main()
