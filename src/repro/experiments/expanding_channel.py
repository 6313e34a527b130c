"""Experiment E3: CTC trajectory in an expanding channel, APR vs eFSI (Fig. 6).

A circular channel expands partway down its length; a stiff CTC released
off-center among RBCs migrates radially as it is advected through the
expansion.  The fully-resolved eFSI model fills the whole channel with
RBCs at the target hematocrit; the APR model keeps RBCs only in a window
around the CTC.  The comparison metric is radial displacement versus
axial position (Fig. 6C/D), plus the node-hour cost ratio (Section 3.3).

Scale note: the paper's channel is 200->400 um over 2 mm with ~4.5e5
RBCs in the eFSI runs on Summit; defaults here shrink the channel (cells
stay full-size) so one replica runs in minutes while exercising the same
margination physics and identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import CP_TO_PA_S, PLASMA_VISCOSITY_CP, WHOLE_BLOOD_VISCOSITY_CP
from ..core.apr import APRConfig, APRSimulation
from ..core.seeding import RBCTile, stamp_tile
from ..core.window import WindowSpec
from ..fsi.cell_manager import CellManager
from ..fsi.stepper import FSIStepper
from ..geometry.primitives import ExpandingChannel
from ..geometry.voxelize import solid_mask_from_sdf
from ..lbm.boundaries import (
    BounceBackWalls,
    OutflowOutlet,
    VelocityInlet,
    parabolic_profile,
)
from ..lbm.grid import Grid
from ..lbm.solver import LBMSolver
from ..membrane.cell import CellKind, make_ctc
from ..units import UnitSystem
from .runseam import checkpoint_interval, filter_params, iter_segments


@dataclass
class ChannelParams:
    """Geometry and discretization of the expanding-channel runs."""

    radius_in: float = 12e-6
    radius_out: float = 24e-6
    z_expand: float = 50e-6
    taper: float = 20e-6
    length: float = 150e-6
    fine_spacing: float = 1.0e-6
    refinement: int = 2  # APR: coarse spacing = refinement * fine_spacing
    inlet_velocity: float = 0.05  # m/s (paper: 0.1; halved for toy-scale Mach)
    hematocrit: float = 0.15
    ctc_diameter: float = 9e-6
    ctc_radial_offset: float = 5e-6
    ctc_z0: float = 20e-6
    rbc_diameter: float = 5.5e-6
    rbc_subdivisions: int = 2
    tau_fine: float = 1.0


@dataclass
class ExpandingChannelResult:
    """One replica's trajectory and cost accounting."""

    method: str  # 'efsi' or 'apr'
    trajectory: np.ndarray  # (T, 3) CTC centroid samples
    times: np.ndarray  # [s]
    n_rbcs: int
    n_fluid_nodes: int
    seed: int
    params: ChannelParams
    extras: dict = field(default_factory=dict)


def _channel(params: ChannelParams) -> ExpandingChannel:
    return ExpandingChannel(
        radius_in=params.radius_in,
        radius_out=params.radius_out,
        z_expand=params.z_expand,
        taper=params.taper,
        axis=2,
        center=(0.0, 0.0),
    )


def _warm_start(grid: Grid, units: UnitSystem, params: ChannelParams, channel) -> None:
    """Initialize the whole channel with the developed Poiseuille field.

    Mass conservation scales the centerline velocity by (R_in/R(z))^2
    through the expansion, so the CTC starts moving from step one instead
    of waiting out the inlet's diffusive start-up transient.
    """
    pos = grid.node_positions()
    r2 = pos[..., 0] ** 2 + pos[..., 1] ** 2
    Rz = channel.local_radius(pos[..., 2])
    u_peak = units.velocity_to_lattice(2.0 * params.inlet_velocity)
    uz = (
        u_peak
        * (params.radius_in / Rz) ** 2
        * np.clip(1.0 - r2 / Rz**2, 0.0, None)
    )
    uz[grid.solid] = 0.0
    vel = np.zeros((3,) + grid.shape)
    vel[2] = uz
    grid.init_equilibrium(1.0, vel)


def _seed_everywhere(
    manager: CellManager,
    channel: ExpandingChannel,
    params: ChannelParams,
    lo: np.ndarray,
    hi: np.ndarray,
    ctc_center: np.ndarray,
    seed: int,
) -> int:
    """Fill the whole channel with RBCs at the target hematocrit (eFSI)."""
    tile = RBCTile.build(
        hematocrit=min(params.hematocrit * 1.2, 0.5),
        side=3.0 * params.rbc_diameter,
        seed=seed,
        diameter=params.rbc_diameter,
    )
    rng = np.random.default_rng(seed + 1)
    margin = 0.5 * params.rbc_diameter
    clearance = 0.6 * (params.rbc_diameter + params.ctc_diameter)

    def keep(cell) -> bool:
        c = cell.centroid()
        if float(channel.sdf(c[None])[0]) > -margin:
            return False
        return bool(np.linalg.norm(c - ctc_center) > clearance)

    added = stamp_tile(
        manager,
        tile,
        lo,
        hi,
        rng,
        overlap_cutoff=0.4e-6,
        diameter=params.rbc_diameter,
        subdivisions=params.rbc_subdivisions,
        keep_predicate=keep,
    )
    return len(added)


def run_expanding_channel_efsi(
    seed: int = 0,
    params: ChannelParams | None = None,
    steps: int = 1500,
    sample_every: int = 25,
    checkpointer=None,
) -> ExpandingChannelResult:
    """Fully-resolved reference: RBCs everywhere on the fine lattice."""
    params = params or ChannelParams()
    channel = _channel(params)
    rho = 1025.0
    nu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S / rho

    dx = params.fine_spacing
    half = params.radius_out + 2 * dx
    nx = ny = int(round(2 * half / dx)) + 1
    nz = int(round(params.length / dx))
    origin = np.array([-half, -half, 0.0])
    units = UnitSystem.from_tau(dx, params.tau_fine, nu_plasma, rho)

    grid = Grid((nx, ny, nz), tau=params.tau_fine, origin=origin, spacing=dx)
    grid.solid = solid_mask_from_sdf(channel, grid.shape, origin, dx)
    _warm_start(grid, units, params, channel)
    inlet = VelocityInlet(axis=2, side="low", velocity=parabolic_profile(
        grid, units, (0.0, 0.0), params.radius_in, params.inlet_velocity))
    outlet = OutflowOutlet(axis=2, side="high")
    walls = BounceBackWalls(grid.solid)

    manager = CellManager(contact_cutoff=0.4e-6)
    ctc_center = np.array([params.ctc_radial_offset, 0.0, params.ctc_z0])
    ctc = make_ctc(
        ctc_center,
        global_id=manager.allocate_id(),
        diameter=params.ctc_diameter,
        subdivisions=params.rbc_subdivisions,
    )
    manager.add(ctc)
    lo = origin + dx
    hi = origin + dx * (np.array(grid.shape) - 2)
    n_rbc = _seed_everywhere(manager, channel, params, lo, hi, ctc_center, seed)

    stepper = FSIStepper(
        grid, units, manager, [walls, inlet, outlet], mode="clip",
        wall_geometry=channel, wall_cutoff=0.4e-6,
    )
    # Remove cells that exit downstream so they do not pile on the outlet.
    z_exit = origin[2] + dx * (nz - 3)

    traj = [ctc.centroid().copy()]
    times = [0.0]
    step_done = 0
    if checkpointer is not None:
        data = checkpointer.load()
        if data is not None:
            step_done = data["step"]
            grid.f[:] = data["f_coarse"]
            grid.mark_f_modified()
            manager.replace_cells(data["manager"].cells)
            ctc = next(
                c for c in manager.cells if c.kind is CellKind.CTC
            )
            traj = [r.copy() for r in data["extra"]["traj"]]
            times = list(data["extra"]["times"])
    every = checkpoint_interval(checkpointer)
    for seg in iter_segments(step_done, steps, every):
        for _ in range(seg):
            stepper.step()
            step_done += 1
            if step_done % sample_every == 0:
                manager.remove_where(
                    lambda c: c.global_id != ctc.global_id
                    and c.centroid()[2] > z_exit
                )
                traj.append(ctc.centroid().copy())
                times.append(step_done * units.dt)
        if checkpointer is not None and every > 0:
            checkpointer.save(
                step=step_done,
                f_coarse=grid.f,
                manager=manager,
                extra={"traj": np.array(traj), "times": np.array(times)},
            )
    return ExpandingChannelResult(
        method="efsi",
        trajectory=np.array(traj),
        times=np.array(times),
        n_rbcs=n_rbc,
        n_fluid_nodes=int((~grid.solid).sum()),
        seed=seed,
        params=params,
        extras={"steps": steps},
    )


def run_expanding_channel_apr(
    seed: int = 0,
    params: ChannelParams | None = None,
    steps: int | None = None,
    sample_every: int = 10,
    window_spec: WindowSpec | None = None,
    checkpointer=None,
) -> ExpandingChannelResult:
    """APR model: cells only inside a moving window around the CTC."""
    params = params or ChannelParams()
    channel = _channel(params)
    rho = 1025.0
    mu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S
    mu_blood = WHOLE_BLOOD_VISCOSITY_CP * CP_TO_PA_S
    nu_plasma = mu_plasma / rho
    nu_blood = mu_blood / rho
    n = params.refinement
    dx_c = params.fine_spacing * n

    half = params.radius_out + 3 * dx_c
    nx = ny = int(round(2 * half / dx_c)) + 1
    nz = int(round(params.length / dx_c))
    origin = np.array([-half, -half, 0.0])
    # Coarse tau realizes whole blood; Eq. 7 then fixes the window tau so
    # that the fine lattice realizes plasma.
    tau_c = 0.5 + (params.tau_fine - 0.5) / (n * (nu_plasma / nu_blood))
    units = UnitSystem.from_tau(dx_c, tau_c, nu_blood, rho)

    cg = Grid((nx, ny, nz), tau=tau_c, origin=origin, spacing=dx_c)
    cg.solid = solid_mask_from_sdf(channel, cg.shape, origin, dx_c)
    _warm_start(cg, units, params, channel)
    inlet = VelocityInlet(axis=2, side="low", velocity=parabolic_profile(
        cg, units, (0.0, 0.0), params.radius_in, params.inlet_velocity))
    outlet = OutflowOutlet(axis=2, side="high")
    coarse = LBMSolver(cg, [BounceBackWalls(cg.solid), inlet, outlet])

    if window_spec is None:
        # Scaled version of the paper's 120 um window (40/20/20 split):
        # proper ~2.5 CTC diameters, one-RBC on-ramp and insertion shells.
        proper = 2.5 * params.ctc_diameter
        shell = params.rbc_diameter
        window_spec = WindowSpec(
            proper_side=proper, onramp_width=shell, insertion_width=shell
        )
    cfg = APRConfig(
        window_spec=window_spec,
        refinement=n,
        nu_bulk=nu_blood,
        nu_window=nu_plasma,
        hematocrit=params.hematocrit,
        rbc_diameter=params.rbc_diameter,
        rbc_subdivisions=params.rbc_subdivisions,
        maintain_interval=10,
        seed=seed,
    )
    ctc_center = np.array([params.ctc_radial_offset, 0.0, params.ctc_z0])
    sim = APRSimulation(
        cfg,
        coarse,
        window_center=ctc_center,
        coarse_units=units,
        geometry=channel,
    )
    if steps is None:
        # Same physical duration as the default eFSI run (dt_c = n * dt_f).
        steps = 1500 // n
    resume_data = None
    moves_before = 0  # window moves made before a resume
    if checkpointer is not None:
        resume_data = checkpointer.load()
    if resume_data is not None:
        sim.restore(resume_data)
        assert sim.ctc is not None
        ctc = sim.ctc
        n_rbc = int(resume_data["extra"]["n_rbc"])
        moves_before = int(resume_data["extra"].get("window_moves", 0))
        traj = [r.copy() for r in resume_data["extra"]["traj"]]
        times = list(resume_data["extra"]["times"])
    else:
        ctc = make_ctc(
            ctc_center,
            global_id=sim.cells.allocate_id(),
            diameter=params.ctc_diameter,
            subdivisions=params.rbc_subdivisions,
        )
        sim.add_ctc(ctc)
        n_rbc = sim.fill_window()
        traj = [ctc.centroid().copy()]
        times = [0.0]
    every = checkpoint_interval(checkpointer)
    for seg in iter_segments(sim.coarse_step_count, steps, every):
        for _ in range(seg):
            sim.step()
            # A window move swaps the tracked CTC instance.
            ctc = sim.ctc if sim.ctc is not None else ctc
            if sim.coarse_step_count % sample_every == 0:
                traj.append(ctc.centroid().copy())
                times.append(sim.time)
        if checkpointer is not None and every > 0:
            checkpointer.save_with(
                lambda p: sim.save(
                    p,
                    extra={
                        "n_rbc": n_rbc,
                        "traj": np.array(traj),
                        "times": np.array(times),
                        "window_moves": moves_before + len(sim.move_reports),
                    },
                )
            )
    assert sim.fine is not None
    sim.close()
    return ExpandingChannelResult(
        method="apr",
        trajectory=np.array(traj),
        times=np.array(times),
        n_rbcs=n_rbc,
        n_fluid_nodes=int((~cg.solid).sum())
        + int((~sim.fine.grid.solid).sum()),
        seed=seed,
        params=params,
        extras={
            "steps": steps,
            "window_moves": moves_before + len(sim.move_reports),
        },
    )


def run_from_params(params: dict, *, checkpointer=None) -> dict:
    """Uniform campaign entry for the expanding-channel CTC transit.

    ``params`` may carry a ``method`` key (``"apr"``, the default, or
    ``"efsi"``); ``ChannelParams`` field names are accepted alongside the
    runner's own keywords and folded into the params dataclass.
    """
    params = dict(params)
    method = params.pop("method", "apr")
    runner = {
        "apr": run_expanding_channel_apr,
        "efsi": run_expanding_channel_efsi,
    }.get(method)
    if runner is None:
        raise ValueError(f"unknown method {method!r}; pick 'apr' or 'efsi'")
    channel_fields = {f.name for f in ChannelParams.__dataclass_fields__.values()}
    overrides = {k: params.pop(k) for k in list(params) if k in channel_fields}
    kwargs = filter_params(runner, params)
    if overrides:
        kwargs["params"] = ChannelParams(**overrides)
    r = runner(**kwargs, checkpointer=checkpointer)
    from ..analytics import radial_displacement

    rad = radial_displacement(r.trajectory)
    return {
        "experiment": "expanding_channel",
        "method": r.method,
        "n_rbcs": int(r.n_rbcs),
        "n_fluid_nodes": int(r.n_fluid_nodes),
        "z_final_um": float(r.trajectory[-1, 2] * 1e6),
        "radial_initial_um": float(rad[0] * 1e6),
        "radial_final_um": float(rad[-1] * 1e6),
        "steps": int(r.extras["steps"]),
    }
