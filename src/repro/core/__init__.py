"""Adaptive Physics Refinement — the paper's primary contribution.

A finely-resolved, cell-laden "window" (plasma viscosity) is two-way
coupled to a coarse bulk lattice (whole-blood viscosity) and moves through
the vasculature tracking a circulating tumor cell:

* :mod:`repro.core.viscosity` — Eq. 7 relaxation-time mapping across the
  resolution/viscosity jump.
* :mod:`repro.core.refinement` — fine/coarse grid coupling operators.
* :mod:`repro.core.window` — window anatomy (insertion / on-ramp / proper).
* :mod:`repro.core.seeding` — RBC tiles, subregion stamping, hematocrit
  maintenance (Section 2.4.2).
* :mod:`repro.core.moving` — capture/fill window relocation (Section 2.4.3).
* :mod:`repro.core.tracking` — CTC tracking and move triggering.
* :mod:`repro.core.apr` — the full APR simulation driver.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".viscosity": (
        "tau_fine_from_coarse",
        "tau_coarse_from_fine",
        "lambda_from_viscosities",
    ),
    ".refinement": ("RefinedRegion", "trilinear"),
    ".window": ("WindowSpec", "Window", "Region"),
    ".seeding": (
        "RBCTile",
        "stamp_tile",
        "HematocritController",
        "equilibrate_tile",
    ),
    ".moving": ("WindowMover", "classify_for_move"),
    ".tracking": ("CTCTracker",),
    ".apr": ("APRSimulation", "APRConfig"),
})
