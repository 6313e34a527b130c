"""Boundary conditions: halfway bounce-back walls, velocity inlets, outflows.

The paper (Section 2.1) enforces no-slip at walls with halfway bounce-back;
moving plates (for the Couette verification of Section 3.1) use the standard
momentum-corrected bounce-back.  Open boundaries use non-equilibrium
extrapolation (inlet) and zero-gradient copy (outlet), both standard robust
choices for LBM hemodynamics solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .lattice import D3Q19
from .collision import equilibrium, macroscopic
from .streaming import upwind_solid_masks

Side = Literal["low", "high"]


class BounceBackLinks:
    """The bounce-back links of one solid map, as flat index arrays.

    A link is a fluid node ``x`` and a direction ``i`` whose pull source
    ``x - c_i`` is solid.  Built once from boolean ``masks`` (19, ...)
    that flag them (:func:`repro.lbm.streaming.upwind_solid_masks` or
    :func:`~repro.lbm.streaming.padded_upwind_solid_masks`); the masks
    are not kept.  ``dst`` and ``src`` list the links direction by
    direction as the flat indices ``i*n + x`` and ``opp(i)*n + x`` into
    a C-contiguous ``(19,) + masks[0].shape`` lattice of ``n`` nodes;
    a reader of ``i`` and ``x`` (a moving wall) derives them from
    ``dst``.
    """

    def __init__(self, masks: np.ndarray):
        self.n = n = masks[0].size
        dirs, nodes = np.nonzero(masks.reshape(D3Q19.Q, n))
        self.dst = dirs * n + nodes
        self.src = D3Q19.opp[dirs] * n + nodes


def bounce_back_values(
    f_post: np.ndarray,
    links: BounceBackLinks,
    wall_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """What halfway bounce-back writes at each link, in link order.

    For each fluid node ``x`` and direction ``i`` whose pull source
    ``x - c_i`` is solid, the streamed value is replaced with

        f_i(x) = f*_opp(i)(x) + 2 w_i rho_w (c_i . u_w) / cs^2

    with the lattice wall density ``rho_w = 1``, so the factor is left out.

    which reduces to plain bounce-back for a resting wall.  Every link
    is one gather from the post-collision ``f_post``.

    Parameters
    ----------
    f_post:
        Post-collision distributions, C-contiguous (19, nx, ny, nz).
    links:
        The walls' :class:`BounceBackLinks`, built for this lattice shape.
    wall_velocity:
        Either ``None`` (resting walls), a constant (3,) vector, or a full
        (3, nx, ny, nz) field giving the wall velocity seen from each fluid
        node (only entries at link nodes matter).
    """
    if not f_post.flags.c_contiguous:
        raise ValueError("bounce-back links index C-contiguous lattices")
    values = f_post.reshape(-1)[links.src]
    if wall_velocity is not None:
        dirs, nodes = np.divmod(links.dst, links.n)
        uw = np.asarray(wall_velocity, dtype=np.float64)
        u = uw[:, None] if uw.ndim == 1 else uw.reshape(3, -1)[:, nodes]
        cu = (D3Q19.c[dirs].T * u).sum(axis=0)
        values = values + 2.0 * D3Q19.w[dirs] * cu / D3Q19.cs2
    return values


def _scatter_links(f_new: np.ndarray, links: BounceBackLinks,
                   values: np.ndarray) -> None:
    if not f_new.flags.c_contiguous:
        raise ValueError("bounce-back links index C-contiguous lattices")
    f_new.reshape(-1)[links.dst] = values


def apply_bounce_back(
    f_new: np.ndarray,
    f_post: np.ndarray,
    links: BounceBackLinks,
    wall_velocity: np.ndarray | None = None,
) -> None:
    """Halfway bounce-back on streamed ``f_new`` from a separate ``f_post``.

    The two-lattice form, for blocks streamed out of place (the
    decomposed executor); :class:`BounceBackWalls` gathers the same
    :func:`bounce_back_values` before an in-place stream instead.
    """
    _scatter_links(
        f_new, links, bounce_back_values(f_post, links, wall_velocity)
    )


@dataclass
class BounceBackWalls:
    """No-slip (optionally moving) walls defined by a solid-node mask.

    The solver streams its one lattice in place, which overwrites the
    post-collision values bounce-back reflects; :meth:`before_stream`
    gathers them (one value per link) and :meth:`apply` writes them
    after the stream.  Gathering before any handler's ``apply`` keeps
    the reflected values those of the collision wherever the walls sit
    in the handler list (an inlet or outlet rewrites whole faces, solid
    nodes included).
    """

    solid: np.ndarray
    wall_velocity: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.solid = np.asarray(self.solid, dtype=bool)
        self._links = BounceBackLinks(upwind_solid_masks(self.solid))
        self._values: np.ndarray | None = None

    def before_stream(self, f: np.ndarray) -> None:
        """Gather the reflected values from the post-collision ``f``."""
        self._values = bounce_back_values(f, self._links, self.wall_velocity)

    def apply(self, f: np.ndarray) -> None:
        """Write the gathered values into the streamed ``f``."""
        values, self._values = self._values, None
        if values is None:
            raise RuntimeError("BounceBackWalls.apply needs before_stream first")
        _scatter_links(f, self._links, values)


def _slab(shape: tuple[int, int, int], axis: int, side: Side, index: int = 0):
    """Index tuple selecting a one-node-thick slab of the domain."""
    sl: list[slice | int] = [slice(None)] * 3
    sl[axis] = index if side == "low" else shape[axis] - 1 - index
    return tuple(sl)


@dataclass
class VelocityInlet:
    """Velocity inlet on one face via non-equilibrium extrapolation (Guo).

    The face distributions are set to the equilibrium at the prescribed
    velocity (with density taken from the adjacent interior slab) plus the
    neighbor's non-equilibrium part, which preserves second-order accuracy
    and is robust for pulsatile hemodynamics inflows.
    """

    axis: int
    side: Side
    velocity: np.ndarray  # (3,) constant or (3, *face_shape) profile

    def apply(self, f: np.ndarray) -> None:
        shape = f.shape[1:]
        face = _slab(shape, self.axis, self.side, 0)
        interior = _slab(shape, self.axis, self.side, 1)
        fn = f[(slice(None),) + interior][:, None]  # fake axis for xyz ops
        fn = np.ascontiguousarray(fn)
        # Reshape neighbor slab to a (19, 1, a, b) pseudo-3D block so the
        # collision kernels (which expect 3 spatial axes) can be reused.
        rho_n, u_n = macroscopic(fn)
        feq_n = equilibrium(rho_n, u_n)
        u_bc = np.asarray(self.velocity, dtype=np.float64)
        if u_bc.ndim == 1:
            u_face = np.broadcast_to(
                u_bc[:, None, None, None], (3,) + fn.shape[1:]
            )
        else:
            u_face = u_bc.reshape((3, 1) + fn.shape[2:])
        feq_bc = equilibrium(rho_n, u_face)
        f[(slice(None),) + face] = (feq_bc + (fn - feq_n))[:, 0]


@dataclass
class OutflowOutlet:
    """Zero-gradient outflow: copy distributions from the interior slab."""

    axis: int
    side: Side

    def apply(self, f: np.ndarray) -> None:
        shape = f.shape[1:]
        face = _slab(shape, self.axis, self.side, 0)
        interior = _slab(shape, self.axis, self.side, 1)
        f[(slice(None),) + face] = f[(slice(None),) + interior]


@dataclass
class PressureOutlet:
    """Fixed-density (pressure) outlet via non-equilibrium extrapolation.

    The face is set to the equilibrium at the prescribed density with the
    velocity and non-equilibrium part taken from the adjacent interior
    slab — the pressure analog of :class:`VelocityInlet`, used to anchor
    the absolute pressure level of inlet/outlet-driven vessels.
    """

    axis: int
    side: Side
    rho: float = 1.0

    def apply(self, f: np.ndarray) -> None:
        shape = f.shape[1:]
        face = _slab(shape, self.axis, self.side, 0)
        interior = _slab(shape, self.axis, self.side, 1)
        fn = np.ascontiguousarray(f[(slice(None),) + interior][:, None])
        rho_n, u_n = macroscopic(fn)
        feq_n = equilibrium(rho_n, u_n)
        rho_bc = np.full_like(rho_n, self.rho)
        feq_bc = equilibrium(rho_bc, u_n)
        f[(slice(None),) + face] = (feq_bc + (fn - feq_n))[:, 0]
