"""Earlier LBM step bodies, kept as test oracles.

* :func:`mask_bounce_back` — until the walls kept link tables,
  bounce-back scanned one lattice-sized boolean mask per direction every
  step and, for a moving wall, formed ``c_i . u_w`` over the whole
  lattice before masking it.  It works from the masks of
  :func:`repro.lbm.streaming.upwind_solid_masks` alone, so it checks
  :class:`repro.lbm.boundaries.BounceBackLinks` without going through it.
* :func:`slab_stream_pull` and :func:`two_buffer_step` — until the solver
  advanced one lattice in place, every grid held a second one: the step
  collided ``f`` into it, streamed it back with up to eight slab copies
  per direction, and bounce-back read the reflected values from it.
* :func:`tensordot_equilibrium` — until f^eq went through the collide's
  moment operator (``M @ Phi``), it was formed term by term from
  ``c . u`` (a tensordot) and ``u . u`` in lattice-sized passes.
"""

import numpy as np

from repro.lbm import D3Q19, BounceBackWalls
from repro.lbm.collision import collide_bgk
from repro.lbm.streaming import upwind_solid_masks


def _axis_slabs(shift):
    if shift == 0:
        return ((slice(None), slice(None)),)
    if shift == 1:
        return ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None)))
    return ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(0, 1)))


def slab_stream_pull(f_post, out):
    """Periodic pull stream from ``f_post`` into a separate ``out``."""
    for i in range(D3Q19.Q):
        cx, cy, cz = (int(v) for v in D3Q19.c[i])
        for dx, sx in _axis_slabs(cx):
            for dy, sy in _axis_slabs(cy):
                for dz, sz in _axis_slabs(cz):
                    out[i][dx, dy, dz] = f_post[i][sx, sy, sz]
    return out


def two_buffer_step(grid, handlers):
    """One step of ``grid`` through a second lattice.

    Walls (:class:`~repro.lbm.boundaries.BounceBackWalls`) go through
    :func:`mask_bounce_back` from the second lattice; any other handler's
    ``apply`` runs as is, in list order.
    """
    f_post = collide_bgk(grid.f, grid.tau, grid.force,
                         out=np.empty_like(grid.f))
    slab_stream_pull(f_post, grid.f)
    for bc in handlers:
        if isinstance(bc, BounceBackWalls):
            mask_bounce_back(grid.f, f_post, upwind_solid_masks(bc.solid),
                             bc.wall_velocity)
        else:
            bc.apply(grid.f)
    grid.mark_f_modified()


def mask_bounce_back(f_new, f_post, masks, wall_velocity=None):
    """Halfway bounce-back in place on ``f_new``, direction by direction
    (lattice wall density 1)."""
    cs2 = D3Q19.cs2
    for i in range(1, D3Q19.Q):
        m = masks[i]
        if not m.any():
            continue
        f_new[i][m] = f_post[D3Q19.opp[i]][m]
        if wall_velocity is not None:
            uw = np.asarray(wall_velocity, dtype=np.float64)
            ci = D3Q19.c[i].astype(np.float64)
            if uw.ndim == 1:
                cu = float(ci @ uw)
                if cu != 0.0:
                    f_new[i][m] += 2.0 * D3Q19.w[i] * cu / cs2
            else:
                cu = np.einsum("a,a...->...", ci, uw)[m]
                f_new[i][m] += 2.0 * D3Q19.w[i] * cu / cs2


def tensordot_equilibrium(rho, u, out=None):
    """f^eq = w rho [1 + cu/cs2 + cu^2/(2 cs4) - u.u/(2 cs2)], term by term."""
    cs2 = D3Q19.cs2
    c = D3Q19.c.astype(u.dtype)
    w = D3Q19.w.astype(u.dtype)
    cu = np.tensordot(c, u, axes=([1], [0]))
    usq = (u * u).sum(axis=0)
    out = np.divide(cu, cs2, out=out)
    np.multiply(cu, cu, out=cu)
    cu /= 2.0 * cs2**2
    out += cu
    usq /= 2.0 * cs2
    np.subtract(1.0, usq, out=usq)
    out += usq[None]
    if np.ndim(rho) or rho != 1.0:
        out *= np.asarray(rho)[None]
    out *= w.reshape((-1,) + (1,) * (out.ndim - 1))
    return out
