"""Immersed boundary method (Section 2.3 of the paper).

Couples the Lagrangian cell meshes to the Eulerian LBM lattice through a
regularized Dirac delta: velocity interpolation (Eq. 4), vertex update
(Eq. 5), and force spreading (Eq. 6).  The default kernel is the cosine
approximation with four-point support that the paper uses; Peskin's
4-point kernel and a 2-point linear hat are provided for the kernel
ablation benchmark.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".kernels": ("cosine4", "peskin4", "linear2", "KERNELS", "DeltaKernel"),
    ".coupling": (
        "Stencil",
        "StencilBuilder",
        "interpolate",
        "interpolate_with_stencil",
        "make_stencil",
        "spread",
        "spread_with_stencil",
    ),
})
