"""Lattice Boltzmann method (D3Q19, BGK) — the fluid substrate of the paper.

The bulk blood flow and the finely-resolved window both run this solver
(Section 2.1 of the paper): D3Q19 velocity discretization, BGK collision
with an external force field (Eq. 1), halfway bounce-back walls, and
velocity/pressure boundary conditions.
"""

from .lattice import D3Q19
from .grid import Grid
from .collision import collide_bgk, equilibrium, macroscopic
from .streaming import stream_pull, stream_pull_padded
from .boundaries import (
    BounceBackLinks,
    BounceBackWalls,
    VelocityInlet,
    OutflowOutlet,
    PressureOutlet,
    apply_bounce_back,
)
from .solver import LBMSolver

__all__ = [
    "D3Q19",
    "Grid",
    "collide_bgk",
    "equilibrium",
    "macroscopic",
    "stream_pull",
    "stream_pull_padded",
    "BounceBackLinks",
    "BounceBackWalls",
    "VelocityInlet",
    "OutflowOutlet",
    "PressureOutlet",
    "apply_bounce_back",
    "LBMSolver",
]
