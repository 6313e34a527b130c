"""Experiment E8: CTC tracking through a vessel tree (Fig. 9).

A CTC is released in the root vessel of a synthetic Murray's-law tree
(the stand-in for the paper's patient-derived cerebral geometry) inside
a cell-laden APR window.  The coarse lattice carries whole blood over the
tree's bounding box with a parabolic inlet on the cut root disk and an
outflow face opposite; the window holds plasma and RBCs at the target
hematocrit, maintained by the insertion-shell controller, and moves with
the CTC when it nears the window-proper edge.

The figure's node-hour projection needs only the CTC's advance and the
centerline length (:func:`repro.perfmodel.costmodel.traversal_node_hours`).

Scale note: the paper's window is a 200 um cube at ~35% Ht in a cerebral
artery; here the root radius is 16 um and the cells are toy-sized, so a
run fits a laptop while stepping the same moving-window code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (
    BLOOD_DENSITY,
    CP_TO_PA_S,
    PLASMA_VISCOSITY_CP,
    WHOLE_BLOOD_VISCOSITY_CP,
)
from ..core.apr import APRConfig, APRSimulation
from ..core.window import WindowSpec
from ..geometry.vasculature import murray_tree
from ..geometry.voxelize import solid_mask_from_sdf
from ..lbm.boundaries import (
    BounceBackWalls,
    OutflowOutlet,
    VelocityInlet,
    parabolic_profile,
)
from ..lbm.grid import Grid
from ..lbm.solver import LBMSolver
from ..membrane.cell import make_ctc
from ..units import UnitSystem

#: The tree: two generations below a 16 um root, each vessel 7 radii long.
GENERATIONS = 2
ROOT_RADIUS = 16e-6
LENGTH_TO_RADIUS = 7.0
BRANCH_ANGLE_DEG = 25.0
JITTER = 0.05
#: Domain: the tree's bounding box padded by this much, with the low-z
#: face moved up to cut the root capsule; the cut disk is the inlet.
PAD = 6e-6
Z_LO = 2e-6
COARSE_SPACING = 3e-6
TAU_COARSE = 1.0
#: Mean inlet speed over the root disk [m/s]; the centerline peak is twice
#: this, 0.1 m/s.
INLET_MEAN_VELOCITY = 0.05
WINDOW_SPEC = WindowSpec(proper_side=18e-6, onramp_width=6e-6,
                         insertion_width=6e-6)
REFINEMENT = 2
HEMATOCRIT = 0.15
RBC_DIAMETER = 5.5e-6
RBC_SUBDIVISIONS = 2
TILE_SIDE = 14e-6
MAINTAIN_INTERVAL = 10
CTC_DIAMETER = 8e-6
#: The CTC starts on the root axis this far above the root node.
CTC_RELEASE_HEIGHT = 40e-6


@dataclass
class TreeCTCResult:
    """Outputs of one CTC transit through the tree."""

    trajectory: np.ndarray  # (steps, 3) CTC centroid after each coarse step
    times: np.ndarray  # [s], one per trajectory row
    ht_history: np.ndarray  # (K, 2): (time [s], window Ht) per maintenance
    window_moves: int
    n_rbcs: int  # seeded by the initial window fill
    n_cells_final: int  # RBCs and the CTC
    advance: float  # arc length of the trajectory [m]
    path_length: float  # root-to-terminal centerline length [m]


def run_tree_ctc(steps: int = 80, seed: int = 3) -> TreeCTCResult:
    """Track a CTC through the tree for ``steps`` coarse steps."""
    rho = BLOOD_DENSITY
    nu_bulk = WHOLE_BLOOD_VISCOSITY_CP * CP_TO_PA_S / rho
    nu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S / rho

    tree = murray_tree(
        generations=GENERATIONS, root_radius=ROOT_RADIUS,
        length_to_radius=LENGTH_TO_RADIUS, branch_angle_deg=BRANCH_ANGLE_DEG,
        seed=seed, jitter=JITTER,
    )
    lo, hi = tree.bounding_box(pad=PAD)
    lo[2] = Z_LO
    dx_c = COARSE_SPACING
    units = UnitSystem.from_tau(dx_c, TAU_COARSE, nu_bulk, rho)
    shape = tuple(int(np.ceil((hi[d] - lo[d]) / dx_c)) + 1 for d in range(3))
    grid = Grid(shape, tau=TAU_COARSE, origin=lo, spacing=dx_c)
    grid.solid = solid_mask_from_sdf(tree, shape, lo, dx_c)
    root_pos = tree.graph.nodes[tree.root()]["pos"]
    inlet = parabolic_profile(grid, units, root_pos, ROOT_RADIUS,
                              INLET_MEAN_VELOCITY)
    coarse = LBMSolver(grid, [
        BounceBackWalls(grid.solid),
        VelocityInlet(axis=2, side="low", velocity=inlet),
        OutflowOutlet(axis=2, side="high"),
    ])

    cfg = APRConfig(
        window_spec=WINDOW_SPEC, refinement=REFINEMENT, nu_bulk=nu_bulk,
        nu_window=nu_plasma, hematocrit=HEMATOCRIT, rbc_diameter=RBC_DIAMETER,
        rbc_subdivisions=RBC_SUBDIVISIONS, tile_side=TILE_SIDE,
        maintain_interval=MAINTAIN_INTERVAL, seed=seed,
    )
    start = root_pos + np.array([0.0, 0.0, CTC_RELEASE_HEIGHT])
    sim = APRSimulation(cfg, coarse, start, units, geometry=tree)
    sim.add_ctc(make_ctc(start, global_id=sim.cells.allocate_id(),
                         diameter=CTC_DIAMETER, subdivisions=RBC_SUBDIVISIONS))
    n_rbcs = sim.fill_window()
    sim.step(steps)

    return TreeCTCResult(
        trajectory=sim.tracker.trajectory(),
        times=np.arange(1, steps + 1) * units.dt,
        ht_history=np.reshape(sim.ht_history, (-1, 2)),
        window_moves=len(sim.move_reports),
        n_rbcs=n_rbcs,
        n_cells_final=sim.cells.n_cells,
        advance=sim.tracker.total_distance(),
        path_length=float(np.linalg.norm(
            np.diff(tree.centerline_path(), axis=0), axis=1).sum()),
    )
