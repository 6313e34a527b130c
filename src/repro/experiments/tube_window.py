"""Experiment E2: hematocrit maintenance and effective viscosity (Fig. 5).

A straight tube carries pressure-driven (body-force-equivalent) flow; a
cell-resolved APR window sits at the tube center.  The bulk fluid is
whole blood at the Pries-correlation viscosity for the target hematocrit;
the window contains plasma plus explicitly modeled RBCs maintained at the
target hematocrit by the insertion-region controller.

Outputs reproduce both panels:

* Fig. 5B — window hematocrit versus time (maintained near the target,
  with small fluctuations from the thresholded repopulation);
* Fig. 5C — effective viscosity from the simulated pressure drop (Eq. 12)
  against the Pries correlation (Eq. 9).

Scale note: the paper uses a 200 um tube with a 100 um window at n = 10
(2 Summit nodes); the default here is a geometrically similar tube scaled
to laptop size, with the same plasma/bulk viscosity physics and the same
controller code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analytics.rheology import (
    discharge_from_tube_hematocrit,
    poiseuille_effective_viscosity,
    pries_relative_viscosity,
)
from .runseam import checkpoint_interval, filter_params, iter_segments
from ..constants import CP_TO_PA_S, PLASMA_VISCOSITY_CP
from ..core.apr import APRConfig, APRSimulation
from ..core.window import WindowSpec
from ..geometry.primitives import Tube
from ..geometry.voxelize import solid_mask_from_sdf
from ..lbm.boundaries import BounceBackWalls
from ..lbm.grid import Grid
from ..lbm.solver import LBMSolver
from ..units import UnitSystem


@dataclass
class TubeWindowResult:
    """Outputs of one hematocrit-maintenance run."""

    target_hematocrit: float
    times: np.ndarray  # [s]
    hematocrit: np.ndarray  # window Ht over time
    mu_effective: float  # Pa s, from Eq. 12
    mu_pries: float  # Pa s, Eq. 9 at the discharge hematocrit
    n_cells_final: int
    n_inserted: int
    n_removed: int
    flow_rate: float  # m^3/s measured
    tube_diameter: float
    extras: dict = field(default_factory=dict)


def run_tube_window(
    hematocrit: float = 0.2,
    tube_diameter: float = 40e-6,
    tube_length: float = 80e-6,
    window_spec: WindowSpec | None = None,
    coarse_spacing: float = 2.0e-6,
    refinement: int = 4,
    steps: int = 300,
    rbc_subdivisions: int = 2,
    shear_rate: float = 250.0,
    seed: int = 0,
    maintain_interval: int = 10,
    checkpointer=None,
) -> TubeWindowResult:
    """Run the cell-resolved tube-window experiment at one hematocrit.

    Parameters mirror Section 3.2: the bulk viscosity comes from the
    Pries correlation at the *discharge* hematocrit corresponding to the
    maintained tube hematocrit, the window fluid is plasma at 1.2 cP,
    and the flow rate is set from the requested effective shear rate
    (gamma = 8 u_mean / D for tube flow).
    """
    if window_spec is None:
        w = 0.3 * tube_diameter
        window_spec = WindowSpec(
            proper_side=w, onramp_width=w / 6.0, insertion_width=w / 3.0
        )
    rho = 1025.0
    mu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S
    D_um = tube_diameter * 1e6
    ht_discharge = discharge_from_tube_hematocrit(D_um, hematocrit)
    mu_bulk = float(pries_relative_viscosity(D_um, ht_discharge)) * mu_plasma
    nu_bulk = mu_bulk / rho
    nu_plasma = mu_plasma / rho

    # Coarse lattice: tube along z, periodic axially, body-force driven.
    R = tube_diameter / 2.0
    nxy = int(round(tube_diameter / coarse_spacing)) + 3
    nz = int(round(tube_length / coarse_spacing))
    shape = (nxy, nxy, nz)
    origin = np.array(
        [-(nxy - 1) / 2.0 * coarse_spacing, -(nxy - 1) / 2.0 * coarse_spacing, 0.0]
    )
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * coarse_spacing**2 / nu_bulk
    units = UnitSystem(coarse_spacing, dt_c, rho)

    tube = Tube(radius=R, axis=2, center=(0.0, 0.0))
    cg = Grid(shape, tau=tau_c, origin=origin, spacing=coarse_spacing)
    cg.solid = solid_mask_from_sdf(tube, shape, origin, coarse_spacing)

    # Body force for the requested effective shear rate.  The paper's
    # quoted 5.7 ml/hr <-> 250 1/s pair fixes the convention as
    # gamma_eff = u_mean / D (see tests/analytics/test_rheology.py);
    # the driving force then follows from dP/L = 8 mu u_mean / R^2.
    u_mean = shear_rate * tube_diameter
    force_density = 8.0 * mu_bulk * u_mean / R**2  # N/m^3
    cg.force[2] = units.force_density_to_lattice(force_density)
    coarse = LBMSolver(cg, [BounceBackWalls(cg.solid)])

    # Warm-start the coarse flow with the Poiseuille profile.
    pos = cg.node_positions()
    r2 = pos[..., 0] ** 2 + pos[..., 1] ** 2
    u_prof = units.velocity_to_lattice(2.0 * u_mean) * np.clip(
        1.0 - r2 / R**2, 0.0, None
    )
    vel = np.zeros((3,) + shape)
    vel[2] = u_prof
    cg.init_equilibrium(1.0, vel)

    cfg = APRConfig(
        window_spec=window_spec,
        refinement=refinement,
        nu_bulk=nu_bulk,
        nu_window=nu_plasma,
        hematocrit=hematocrit,
        rbc_subdivisions=rbc_subdivisions,
        maintain_interval=maintain_interval,
        seed=seed,
    )
    center = np.array([0.0, 0.0, (nz - 1) / 2.0 * coarse_spacing])
    sim = APRSimulation(
        cfg,
        coarse,
        window_center=center,
        coarse_units=units,
        geometry=tube,
        window_body_force=np.array([0.0, 0.0, force_density]),
    )
    resume_data = None
    if checkpointer is not None:
        resume_data = checkpointer.load()
    if resume_data is not None:
        # Restore replaces the (not-yet-seeded) population, both
        # lattices, the seeding RNG, the controller counters and the Ht
        # history; the step counter resumes where the checkpoint left off.
        sim.restore(resume_data)
        n0 = int(resume_data["extra"].get("n_cells_initial", sim.cells.n_cells))
    else:
        n0 = sim.fill_window()

    if not sim.ht_history:
        sim.ht_history.append((sim.time, sim.window_hematocrit()))
    every = checkpoint_interval(checkpointer)
    for seg in iter_segments(sim.coarse_step_count, steps, every):
        sim.step(seg)
        if checkpointer is not None and every > 0:
            checkpointer.save_with(
                lambda p: sim.save(p, extra={"n_cells_initial": n0})
            )

    # Flow rate from the coarse velocity field (mid-tube cross-section).
    _, u_lat = coarse.macroscopic()
    fluid = ~cg.solid
    ksec = nz // 4  # away from the window
    uz_phys = u_lat[2, :, :, ksec] * (units.dx / units.dt)
    q = float(uz_phys[fluid[:, :, ksec]].sum()) * coarse_spacing**2
    dp = force_density * tube_length
    mu_eff = poiseuille_effective_viscosity(dp, q, R, tube_length)

    times = np.array([t for t, _ in sim.ht_history])
    hts = np.array([h for _, h in sim.ht_history])
    ctrl = sim.controller
    sim.close()
    return TubeWindowResult(
        target_hematocrit=hematocrit,
        times=times,
        hematocrit=hts,
        mu_effective=mu_eff,
        mu_pries=mu_bulk,
        n_cells_final=sim.cells.n_cells,
        n_inserted=0 if ctrl is None else ctrl.n_inserted,
        n_removed=0 if ctrl is None else ctrl.n_removed,
        flow_rate=q,
        tube_diameter=tube_diameter,
        extras={"n_cells_initial": n0, "mu_bulk_set": mu_bulk},
    )


def run_from_params(params: dict, *, checkpointer=None) -> dict:
    """Uniform campaign entry: run hematocrit maintenance from a params dict."""
    kwargs = filter_params(run_tube_window, params)
    r = run_tube_window(**kwargs, checkpointer=checkpointer)
    return {
        "experiment": "tube_window",
        "target_hematocrit": r.target_hematocrit,
        "final_hematocrit": float(r.hematocrit[-1]),
        "mu_effective_cP": r.mu_effective * 1e3,
        "mu_pries_cP": r.mu_pries * 1e3,
        "n_cells_final": int(r.n_cells_final),
        "n_inserted": int(r.n_inserted),
        "n_removed": int(r.n_removed),
        "flow_rate": float(r.flow_rate),
    }
