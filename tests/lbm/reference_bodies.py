"""The boolean-mask bounce-back body, kept as a test oracle.

Until the walls kept link tables, bounce-back scanned one lattice-sized
boolean mask per direction every step and, for a moving wall, formed
``c_i . u_w`` over the whole lattice before masking it.  It works from
the masks of :func:`repro.lbm.streaming.upwind_solid_masks` alone, so it
checks :class:`repro.lbm.boundaries.BounceBackLinks` without going
through it.
"""

import numpy as np

from repro.lbm import D3Q19


def mask_bounce_back(f_new, f_post, masks, wall_velocity=None, rho_wall=1.0):
    """Halfway bounce-back in place on ``f_new``, direction by direction."""
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
                    f_new[i][m] += 2.0 * D3Q19.w[i] * rho_wall * cu / cs2
            else:
                cu = np.einsum("a,a...->...", ci, uw)[m]
                f_new[i][m] += 2.0 * D3Q19.w[i] * rho_wall * cu / cs2
