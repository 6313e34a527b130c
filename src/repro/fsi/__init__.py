"""Fluid-structure interaction: cell-laden LBM flow on a single lattice.

This package is the "eFSI" model of the paper — the fully-resolved
reference against which APR is compared (Section 3.3) — and also supplies
the cell machinery that the APR window reuses: the packed cell store
(Section 2.4.5 "Cell Memory Management"), the background uniform subgrid
for overlap detection (Section 2.4.2), deterministic overlap removal by
global ID, intercellular contact forces, and the coupled IBM time stepper.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".subgrid": ("UniformSubgrid",),
    ".cell_manager": ("CellManager",),
    ".overlap": (
        "find_overlapping_vertices",
        "remove_overlaps",
        "cell_overlaps_existing",
    ),
    ".contact": ("ContactList", "contact_forces"),
    ".walls": ("wall_repulsion_forces", "wall_normals_from_sdf"),
    ".stepper": ("FSIStepper",),
})
