"""Relaxation-time relations across the resolution/viscosity interface.

Equation 7 of the paper: with a coarse-to-fine spacing ratio ``n``
(acoustic scaling, dt_f = dt_c / n) and a kinematic viscosity contrast
``lambda = nu_f / nu_c`` between the window (plasma) and bulk (whole
blood) fluids,

    tau_f = 1/2 + n * lambda * (tau_c - 1/2).

Derivation: nu_lat = cs^2 (tau - 1/2) on each grid in its own lattice
units, and nu_lat_f / nu_lat_c = (nu_f dt_f / dx_f^2) / (nu_c dt_c / dx_c^2)
= lambda * n under acoustic scaling.

The paper notes (Section 3.1) that lambda < 1 *reduces* tau_f relative to
a single-viscosity refinement, permitting larger tau_c or larger n than a
single-viscosity simulation would tolerate — :func:`max_stable_ratio`
quantifies that observation.
"""

from __future__ import annotations


def lambda_from_viscosities(nu_fine: float, nu_coarse: float) -> float:
    """Viscosity contrast lambda = nu_f / nu_c (plasma/whole blood ~ 0.3)."""
    if nu_fine <= 0 or nu_coarse <= 0:
        raise ValueError("viscosities must be positive")
    return nu_fine / nu_coarse


def tau_fine_from_coarse(tau_coarse: float, n: int, lam: float) -> float:
    """Fine-lattice relaxation time from Eq. 7."""
    if tau_coarse <= 0.5:
        raise ValueError("tau_coarse must exceed 1/2")
    if n < 1:
        raise ValueError("refinement ratio must be >= 1")
    if lam <= 0:
        raise ValueError("viscosity contrast must be positive")
    return 0.5 + n * lam * (tau_coarse - 0.5)


def tau_coarse_from_fine(tau_fine: float, n: int, lam: float) -> float:
    """Inverse of Eq. 7."""
    if tau_fine <= 0.5:
        raise ValueError("tau_fine must exceed 1/2")
    return 0.5 + (tau_fine - 0.5) / (n * lam)


def stress_match_scale_to_fine(tau_coarse_local, tau_fine: float):
    """Per-node f^neq rescale factor coarse -> fine, by traction continuity.

    The coarse lattice carries the local effective viscosity in its
    (possibly spatially varying) tau field.  Requiring the physical
    deviatoric stress encoded in f^neq to be continuous across the
    interface — nu_f S_f = nu_c(x) S_c(x), with f^neq_g ~ tau_g dt_g S_g
    and nu_g ~ (tau_g - 1/2) dx_g^2 / dt_g — gives

        scale(x) = tau_f (tau_c(x) - 1/2) / (tau_c(x) (tau_f - 1/2))

    independent of the refinement ratio.  When the two grids realize the
    same physical viscosity (single-fluid refinement, Eq. 7 with the
    window-local coarse tau) this reduces to the classical Dupuis-Chopard
    factor tau_f / (n tau_c).
    """
    import numpy as np

    tau_c = np.asarray(tau_coarse_local, dtype=np.float64)
    return tau_fine * (tau_c - 0.5) / (tau_c * (tau_fine - 0.5))


def stress_match_scale_to_coarse(tau_coarse_local, tau_fine: float):
    """Inverse of :func:`stress_match_scale_to_fine` (restriction path)."""
    return 1.0 / stress_match_scale_to_fine(tau_coarse_local, tau_fine)


def max_stable_ratio(
    tau_coarse: float, lam: float, tau_fine_limit: float = 2.0
) -> int:
    """Largest refinement ratio keeping tau_f below a stability comfort cap.

    Quantifies the paper's remark that lambda < 1 'permits using a
    relatively more significant tau_c value, or relatively larger n
    values' than single-viscosity refinement.
    """
    n = 1
    while tau_fine_from_coarse(tau_coarse, n + 1, lam) <= tau_fine_limit:
        n += 1
    return n
