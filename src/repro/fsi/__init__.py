"""Fluid-structure interaction: cell-laden LBM flow on a single lattice.

This package is the "eFSI" model of the paper — the fully-resolved
reference against which APR is compared (Section 3.3) — and also supplies
the cell machinery that the APR window reuses: pooled cell storage
(Section 2.4.5 "Cell Memory Management"), the background uniform subgrid
for overlap detection (Section 2.4.2), deterministic overlap removal by
global ID, intercellular contact forces, and the coupled IBM time stepper.
"""

from .pool import VertexPool
from .subgrid import UniformSubgrid
from .cell_manager import CellManager
from .overlap import find_overlapping_vertices, remove_overlaps, cell_overlaps_existing
from .contact import ContactList, contact_forces
from .walls import wall_repulsion_forces, wall_normals_from_sdf
from .stepper import FSIStepper

__all__ = [
    "VertexPool",
    "UniformSubgrid",
    "CellManager",
    "find_overlapping_vertices",
    "remove_overlaps",
    "cell_overlaps_existing",
    "ContactList",
    "contact_forces",
    "wall_repulsion_forces",
    "wall_normals_from_sdf",
    "FSIStepper",
]
