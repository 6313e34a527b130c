"""Immersed boundary method (Section 2.3 of the paper).

Couples the Lagrangian cell meshes to the Eulerian LBM lattice through a
regularized Dirac delta: velocity interpolation (Eq. 4), vertex update
(Eq. 5), and force spreading (Eq. 6).  The default kernel is the cosine
approximation with four-point support that the paper uses; Peskin's
4-point kernel and a 2-point linear hat are provided for the kernel
ablation benchmark.
"""

from .kernels import cosine4, peskin4, linear2, KERNELS, DeltaKernel
from .coupling import (
    IBMCoupler,
    Stencil,
    StencilBuilder,
    interpolate,
    interpolate_with_stencil,
    make_stencil,
    spread,
    spread_with_stencil,
)

__all__ = [
    "cosine4",
    "peskin4",
    "linear2",
    "KERNELS",
    "DeltaKernel",
    "interpolate",
    "spread",
    "IBMCoupler",
    "Stencil",
    "StencilBuilder",
    "make_stencil",
    "interpolate_with_stencil",
    "spread_with_stencil",
]
