"""Simulation geometries: SDF primitives, voxelization, vasculature.

HARVEY consumes patient-derived vascular geometries as OFF surface meshes;
those data are proprietary, so every geometry here is a signed-distance
function: analytic primitives and synthetic Murray's-law vascular trees
(:mod:`repro.geometry.vasculature`) that supply the two things the APR
machinery needs from a geometry: a wall mask for the lattice and a
centerline path for the moving window.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".primitives": ("BoxChannel", "Tube", "ExpandingChannel", "sdf_capsule"),
    ".voxelize": ("solid_mask_from_sdf", "solid_mask_for_grid"),
    ".vasculature": (
        "VascularTree",
        "murray_tree",
        "upper_body_tree",
    ),
})
