"""Lattice Boltzmann method (D3Q19, BGK) — the fluid substrate of the paper.

The bulk blood flow and the finely-resolved window both run this solver
(Section 2.1 of the paper): D3Q19 velocity discretization, BGK collision
with an external force field (Eq. 1), halfway bounce-back walls, and
velocity/pressure boundary conditions.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".lattice": ("D3Q19",),
    ".grid": ("Grid",),
    ".collision": ("collide_bgk", "equilibrium", "macroscopic"),
    ".streaming": ("stream_pull", "stream_pull_padded"),
    ".boundaries": (
        "BounceBackLinks",
        "BounceBackWalls",
        "VelocityInlet",
        "OutflowOutlet",
        "PressureOutlet",
        "apply_bounce_back",
    ),
    ".solver": ("LBMSolver",),
})
