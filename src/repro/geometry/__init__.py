"""Simulation geometries: SDF primitives, voxelization, vasculature.

HARVEY consumes patient-derived vascular geometries as OFF surface meshes;
those data are proprietary, so every geometry here is a signed-distance
function: analytic primitives and synthetic Murray's-law vascular trees
(:mod:`repro.geometry.vasculature`) that supply the two things the APR
machinery needs from a geometry: a wall mask for the lattice and a
centerline path for the moving window.
"""

from .primitives import (
    BoxChannel,
    Tube,
    ExpandingChannel,
    sdf_capsule,
)
from .voxelize import solid_mask_from_sdf, solid_mask_for_grid
from .vasculature import VascularTree, murray_tree, cerebral_tree, upper_body_tree

__all__ = [
    "BoxChannel",
    "Tube",
    "ExpandingChannel",
    "sdf_capsule",
    "solid_mask_from_sdf",
    "solid_mask_for_grid",
    "VascularTree",
    "murray_tree",
    "cerebral_tree",
    "upper_body_tree",
]
