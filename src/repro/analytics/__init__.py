"""Analytical solutions, experimental correlations and metrics.

Everything the paper's evaluation compares against lives here:

* Eq. 8 — three-layer variable-viscosity Couette profile (Fig. 4 / Table 1)
* Eqs. 9-10 — Pries et al. relative apparent blood viscosity (Fig. 5C)
* Eq. 11 — Fahraeus tube/discharge hematocrit relation
* Eq. 12 — Poiseuille effective viscosity from pressure drop
* trajectory / margination metrics for the Fig. 6 comparison
* hematocrit measurement utilities for Fig. 5B
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".shear": (
        "three_layer_couette_profile",
        "three_layer_shear_stress",
        "l2_error_norm",
    ),
    ".rheology": (
        "pries_mu45",
        "pries_shape_C",
        "pries_relative_viscosity",
        "fahraeus_ratio",
        "tube_from_discharge_hematocrit",
        "discharge_from_tube_hematocrit",
        "poiseuille_effective_viscosity",
        "poiseuille_pressure_drop",
    ),
    ".trajectory": (
        "radial_displacement",
        "margination_metrics",
        "trajectory_rms_difference",
    ),
    ".hematocrit": ("region_hematocrit", "cell_volume_in_box"),
})
