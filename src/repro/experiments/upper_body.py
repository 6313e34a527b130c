"""Experiment E6: upper-body feasibility demonstration (Fig. 1 / Table 2).

Fig. 1's claim has two parts:

1. **Capacity arithmetic** — on 256 Summit nodes the APR bulk opens the
   full 41 mL upper-body volume to the window while eFSI is confined to
   ~5e-3 mL (Table 2; reproduced by :mod:`repro.perfmodel.memory`).
2. **Mechanics** — the window "can travel through the vessel ... opening
   up the entire volume to a submicron, cell-resolved mesh": the red
   boxes marching along the dashed line.

This driver demonstrates part 2 end-to-end at laptop scale: a fluid-only
window sweeps along the centerline of a synthetic upper-body tree
(geometrically scaled down; same topology and radius hierarchy), with the
coupling rebuilt and re-initialized from the coarse solution at every
waypoint — exactly what happens on every window move of a production run.
Part 1's numbers are reported alongside, including the RBC count a
paper-scale window would hold (>20M at 40% Ht).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import CP_TO_PA_S, PLASMA_VISCOSITY_CP, WHOLE_BLOOD_VISCOSITY_CP
from ..core.refinement import RefinedRegion
from ..core.viscosity import tau_fine_from_coarse
from ..geometry.vasculature import murray_tree, resample_polyline
from ..geometry.voxelize import solid_mask_from_sdf
from ..lbm.boundaries import BounceBackWalls
from ..lbm.collision import density
from ..lbm.grid import Grid
from ..lbm.solver import LBMSolver
from ..perfmodel.memory import rbc_count_for_volume, table2_fluid_volumes
from ..units import UnitSystem
from .runseam import checkpoint_interval, filter_params


@dataclass
class UpperBodyResult:
    """Outputs of the window-sweep feasibility demonstration."""

    n_waypoints: int
    n_placed: int
    waypoints: np.ndarray  # (N, 3) path actually visited
    max_density_error: float  # coupling health across all placements
    window_volume_paper: float  # m^3, the paper-scale 1.7 mm window
    window_rbc_count_paper: float  # RBCs at 40% Ht (paper: >20e6)
    table2: dict = field(default_factory=dict)
    tree_volume: float = 0.0


def run_upper_body_sweep(
    scale: float = 0.1,
    generations: int = 2,
    window_cells: int = 4,
    refinement: int = 2,
    steps_per_stop: int = 3,
    seed: int = 11,
    checkpointer=None,
) -> UpperBodyResult:
    """Sweep a fluid-only APR window along an upper-body-like tree.

    Parameters
    ----------
    scale:
        Geometric shrink factor applied to the aorta-scale tree so the
        coarse lattice fits in laptop memory (topology and radius
        hierarchy preserved; the capacity numbers are reported at full
        paper scale separately).
    window_cells:
        Window side in coarse cells.
    steps_per_stop:
        Coupled coarse steps run at each waypoint before moving on.
    """
    rho = 1025.0
    nu_bulk = WHOLE_BLOOD_VISCOSITY_CP * CP_TO_PA_S / rho
    nu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S / rho

    tree = murray_tree(
        generations=generations,
        root_radius=5.75e-3 * scale,
        length_to_radius=10.0,
        branch_angle_deg=35.0,
        seed=seed,
    )
    lo, hi = tree.bounding_box(pad=2e-3 * scale)
    extent = hi - lo
    dx_c = float(extent.max()) / 64.0  # cap the coarse lattice at ~64^3
    shape = tuple(int(np.ceil(extent[d] / dx_c)) + 3 for d in range(3))
    tau_c = 1.0
    units = UnitSystem.from_tau(dx_c, tau_c, nu_bulk, rho)

    cg = Grid(shape, tau=tau_c, origin=lo - dx_c, spacing=dx_c)
    cg.solid = solid_mask_from_sdf(tree, shape, cg.origin, dx_c)
    # Gentle flow along the root direction via a body force; the sweep
    # tests coupling health, not hemodynamic fidelity.
    cg.force[2] = units.force_density_to_lattice(20.0)
    coarse = LBMSolver(cg, [BounceBackWalls(cg.solid)])
    coarse.step(5)  # develop a nonzero field to couple against

    path = resample_polyline(
        tree.centerline_path(), spacing=window_cells * dx_c / 2.0
    )

    lam = nu_plasma / nu_bulk
    n = refinement
    tau_f = tau_fine_from_coarse(tau_c, n, lam)
    w = window_cells
    shape_f = (n * w + 1,) * 3

    placed = 0
    visited = []
    max_err = 0.0
    start_wp = 0
    if checkpointer is not None:
        # Checkpoint cadence is in *waypoints* here: the sweep's unit of
        # restartable progress is one window placement, not one LBM step.
        data = checkpointer.load()
        if data is not None:
            cg.f[:] = data["f_coarse"]
            cg.mark_f_modified()
            start_wp = data["step"]
            placed = int(data["extra"]["placed"])
            max_err = float(data["extra"]["max_err"])
            visited = [w.copy() for w in data["extra"]["visited"]]
    every = checkpoint_interval(checkpointer)
    for wp_index, waypoint in enumerate(path):
        if wp_index < start_wp:
            continue
        if every > 0 and wp_index > start_wp and (wp_index % every) == 0:
            checkpointer.save(
                step=wp_index,
                f_coarse=cg.f,
                extra={
                    "placed": placed,
                    "max_err": max_err,
                    "visited": np.array(visited)
                    if visited
                    else np.empty((0, 3)),
                },
            )
        # Snap the window to the coarse lattice around the waypoint.
        i0 = np.round((waypoint - cg.origin) / dx_c - w / 2.0).astype(np.int64)
        if np.any(i0 < 1) or np.any(i0 + w > np.array(shape) - 2):
            continue  # path too close to the domain edge for this stop
        origin_f = cg.origin + dx_c * i0
        fg = Grid(shape_f, tau=tau_f, origin=origin_f, spacing=dx_c / n)
        fg.solid = solid_mask_from_sdf(tree, shape_f, origin_f, dx_c / n)
        if fg.solid.all():
            continue  # window fully in the wall (shouldn't happen on-path)
        boundaries = [BounceBackWalls(fg.solid)] if fg.solid.any() else []
        fine = LBMSolver(fg, boundaries)
        coupling = RefinedRegion(coarse, fine, n)
        coupling.initialize_fine_from_coarse()
        coupling.step(steps_per_stop)
        rho_f = density(fg.f)
        fluid = ~fg.solid
        if fluid.any():
            max_err = max(max_err, float(np.abs(rho_f[fluid] - 1.0).max()))
        placed += 1
        visited.append(waypoint)

    window_volume_paper = (1.7e-3) ** 3  # the paper's 1.7 mm window
    return UpperBodyResult(
        n_waypoints=len(path),
        n_placed=placed,
        waypoints=np.array(visited) if visited else np.empty((0, 3)),
        max_density_error=max_err,
        window_volume_paper=window_volume_paper,
        window_rbc_count_paper=rbc_count_for_volume(window_volume_paper, 0.40),
        table2=table2_fluid_volumes(),
        tree_volume=tree.total_volume(),
    )


def run_from_params(params: dict, *, checkpointer=None) -> dict:
    """Uniform campaign entry: run the window sweep from a params dict."""
    kwargs = filter_params(run_upper_body_sweep, params)
    r = run_upper_body_sweep(**kwargs, checkpointer=checkpointer)
    return {
        "experiment": "upper_body",
        "n_waypoints": int(r.n_waypoints),
        "n_placed": int(r.n_placed),
        "max_density_error": float(r.max_density_error),
        "window_rbc_count_paper": float(r.window_rbc_count_paper),
    }
