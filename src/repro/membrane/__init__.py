"""Deformable-cell membrane mechanics (Section 2.2 of the paper).

Each cell is a fluid-filled membrane discretized as a triangulated
Lagrangian surface mesh.  In-plane elasticity follows the Skalak
constitutive law (Eq. 2); resistance to bending is a discrete
dihedral-angle model standing in for the Helfrich formulation (Eq. 3) —
see DESIGN.md for the substitution rationale.  Global area and volume
penalties keep cells quasi-incompressible, as is standard for RBC models.

All force routines are vectorized over a leading batch axis so that every
RBC in the window (they share one mesh topology) is processed in a single
set of array operations — the Python analog of the paper's pooled cell
memory layout (Section 2.4.5).
"""

from .meshgen import icosphere, biconcave_rbc, sphere_cell
from .topology import (
    unique_edges,
    bending_pairs,
    euler_characteristic,
    vertex_adjacency_matrix,
    rcm_ordering,
    reorder_mesh,
    mesh_bandwidth,
)
from .reference import ReferenceState
from .skalak import skalak_forces, skalak_energy
from .bending import bending_forces, bending_energy, dihedral_angles
from .constraints import (
    area_volume_forces,
    mesh_volume,
    mesh_area,
    face_areas,
)
from .forces import membrane_forces
from .analysis import (
    taylor_deformation,
    elongation_index,
    asphericity,
    deformation_report,
)
from .cell import Cell, CellKind, make_rbc, make_ctc

__all__ = [
    "icosphere",
    "biconcave_rbc",
    "sphere_cell",
    "unique_edges",
    "bending_pairs",
    "euler_characteristic",
    "vertex_adjacency_matrix",
    "rcm_ordering",
    "reorder_mesh",
    "mesh_bandwidth",
    "ReferenceState",
    "skalak_forces",
    "skalak_energy",
    "bending_forces",
    "bending_energy",
    "dihedral_angles",
    "area_volume_forces",
    "membrane_forces",
    "mesh_volume",
    "mesh_area",
    "face_areas",
    "taylor_deformation",
    "elongation_index",
    "asphericity",
    "deformation_report",
    "Cell",
    "CellKind",
    "make_rbc",
    "make_ctc",
]
