"""Experiment E1: variable-viscosity three-layer shear flow (Fig. 4 / Table 1).

A plane-Couette cell contains three fluid layers: outer layers at the
whole-blood viscosity mu1, the middle layer (spanned entirely by the fine
window) at mu2 = lambda * mu1.  The steady velocity profile is piecewise
linear (Eq. 8); the L2 error of the coupled APR solution against it,
broken out by bulk and window regions, reproduces Table 1.

Scale note: the paper uses a 90 um domain; the default here is the same
physical size at a coarser base resolution so a full sweep runs on a
laptop.  Errors are resolution-ratio (n) and contrast (lambda) dependent
exactly as in the paper, not absolute-size dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.shear import l2_error_norm, three_layer_couette_profile
from .runseam import checkpoint_interval, filter_params, iter_segments
from ..core.refinement import RefinedRegion
from ..core.viscosity import tau_fine_from_coarse
from ..lbm.boundaries import BounceBackWalls
from ..lbm.grid import Grid
from ..lbm.solver import LBMSolver
from ..units import UnitSystem


@dataclass
class ShearLayersResult:
    """Outputs of one (lambda, n) shear-verification run."""

    lam: float
    n: int
    error_bulk: float
    error_window: float
    y_bulk: np.ndarray
    u_bulk: np.ndarray
    y_window: np.ndarray
    u_window: np.ndarray
    y_analytic: np.ndarray
    u_analytic: np.ndarray
    steps: int


def run_shear_layers(
    lam: float = 0.5,
    n: int = 5,
    ny_channel: int = 30,
    nxz: int = 6,
    steps: int = 1200,
    u_top: float = 0.02,
    tau_coarse: float = 1.0,
    mu1: float = 4.0e-3,
    rho: float = 1025.0,
    domain_height: float = 90.0e-6,
    warm_start: bool = True,
    checkpointer=None,
) -> ShearLayersResult:
    """Run the coupled three-layer Couette verification.

    Parameters
    ----------
    lam:
        Viscosity contrast mu2/mu1 (paper sweeps 1/2, 1/3, 1/4).
    n:
        Coarse-to-fine resolution ratio (paper sweeps 2, 5, 10).
    ny_channel:
        Coarse fluid nodes across the channel; must be divisible by 3 so
        the layer boundaries land on coarse nodes.
    steps:
        Coupled coarse steps to run.
    u_top:
        Top-plate speed in coarse lattice units.
    warm_start:
        Initialize with the single-fluid linear profile (True) instead of
        rest; the *steady state* is unaffected, only convergence time.
    checkpointer:
        Optional checkpoint seam (see :mod:`repro.experiments.runseam`):
        both lattices are snapshotted every ``checkpointer.every`` coarse
        steps, and an existing checkpoint resumes the run from its stored
        step — bit-exactly, since the coupled fluid state is fully
        captured by the two distribution fields.
    """
    if ny_channel % 3 != 0:
        raise ValueError("ny_channel must be divisible by 3 (three equal layers)")
    dx_c = domain_height / ny_channel
    nu1 = mu1 / rho
    units = UnitSystem.from_tau(dx_c, tau_coarse, nu1, rho)

    ny = ny_channel + 2  # two solid wall rows
    shape_c = (nxz, ny, nxz)
    third = ny_channel // 3
    j_lo = 1 + third  # coarse node index of the lower interface

    # The coarse lattice carries the effective-viscosity map: whole blood
    # (mu1) in the outer layers, the window fluid (mu2 = lambda mu1) in the
    # middle layer it covers.  Relative to this local coarse viscosity the
    # window refinement is single-fluid, and Eq. 7 fixes tau_f.
    tau_middle = 0.5 + lam * (tau_coarse - 0.5)
    tau_field = np.full(shape_c, tau_coarse)
    tau_field[:, j_lo + 1 : j_lo + third, :] = tau_middle
    # Interface coarse nodes straddle both fluids; the harmonic mean of the
    # viscosities is the consistent effective value for shear across them.
    nu_face = 2.0 / (1.0 / 1.0 + 1.0 / lam) * (tau_coarse - 0.5)
    tau_field[:, j_lo, :] = 0.5 + nu_face
    tau_field[:, j_lo + third, :] = 0.5 + nu_face

    cg = Grid(shape_c, tau=tau_field, origin=np.zeros(3), spacing=dx_c)
    cg.solid[:, 0, :] = True
    cg.solid[:, -1, :] = True
    wall_vel = np.zeros((3,) + shape_c)
    wall_vel[0, :, -2, :] = u_top
    coarse = LBMSolver(cg, [BounceBackWalls(cg.solid, wall_velocity=wall_vel)])

    # Fine window spans the middle third in y, full (periodic) x/z extent.
    tau_f = tau_fine_from_coarse(tau_coarse, n, lam)
    fg = Grid(
        (nxz * n, third * n + 1, nxz * n),
        tau=tau_f,
        origin=np.array([0.0, j_lo * dx_c, 0.0]),
        spacing=dx_c / n,
    )
    fine = LBMSolver(fg, [])
    coupling = RefinedRegion(coarse, fine, n, periodic_axes=(0, 2))

    # Geometry for the analytic profile: halfway bounce-back walls sit half
    # a coarse spacing beyond the outermost fluid rows.
    y_wall0 = 0.5 * dx_c
    y_wall1 = (ny - 1.5) * dx_c
    y_if1 = j_lo * dx_c
    y_if2 = (j_lo + third) * dx_c
    heights = (y_if1 - y_wall0, y_if2 - y_if1, y_wall1 - y_if2)
    mus = (mu1, lam * mu1, mu1)

    def analytic(y: np.ndarray) -> np.ndarray:
        return three_layer_couette_profile(y - y_wall0, heights, mus, u_top)

    if warm_start:
        yc = cg.axis_coords(1)
        lin = u_top * np.clip((yc - y_wall0) / (y_wall1 - y_wall0), 0.0, 1.0)
        vel = np.zeros((3,) + shape_c)
        vel[0] = lin[None, :, None]
        cg.init_equilibrium(1.0, vel)
    coupling.initialize_fine_from_coarse()

    step_done = 0
    if checkpointer is not None:
        data = checkpointer.load()
        if data is not None:
            cg.f[:] = data["f_coarse"]
            cg.mark_f_modified()
            fg.f[:] = data["f_fine"]
            fg.mark_f_modified()
            step_done = data["step"]
    for seg in iter_segments(step_done, steps, checkpoint_interval(checkpointer)):
        coupling.step(seg)
        step_done += seg
        if checkpointer is not None and checkpoint_interval(checkpointer) > 0:
            checkpointer.save(step=step_done, f_coarse=cg.f, f_fine=fg.f)

    # Sample center-line profiles.
    _, u_c = coarse.macroscopic()
    _, u_f = fine.macroscopic()
    jc = np.arange(1, ny - 1)
    y_bulk = cg.axis_coords(1)[jc]
    u_bulk = u_c[0, nxz // 2, jc, nxz // 2]
    y_window = fg.axis_coords(1)
    u_window = u_f[0, fg.shape[0] // 2, :, fg.shape[2] // 2]

    # Bulk error excludes the window span (those coarse nodes mirror the
    # fine solution); Table 1 reports bulk and window separately.
    in_window = (y_bulk >= y_if1) & (y_bulk <= y_if2)
    err_bulk = l2_error_norm(u_bulk[~in_window], analytic(y_bulk[~in_window]))
    err_window = l2_error_norm(u_window, analytic(y_window))

    y_ana = np.linspace(y_wall0, y_wall1, 200)
    return ShearLayersResult(
        lam=lam,
        n=n,
        error_bulk=err_bulk,
        error_window=err_window,
        y_bulk=y_bulk,
        u_bulk=u_bulk,
        y_window=y_window,
        u_window=u_window,
        y_analytic=y_ana,
        u_analytic=analytic(y_ana),
        steps=steps,
    )


def run_from_params(params: dict, *, checkpointer=None) -> dict:
    """Uniform campaign entry: run the shear verification from a params dict."""
    kwargs = filter_params(run_shear_layers, params)
    r = run_shear_layers(**kwargs, checkpointer=checkpointer)
    return {
        "experiment": "shear_layers",
        "lam": r.lam,
        "n": r.n,
        "error_bulk": float(r.error_bulk),
        "error_window": float(r.error_window),
        "steps": int(r.steps),
    }
