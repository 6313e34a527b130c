"""Blood rheology correlations (Eqs. 9-12 of the paper).

* Pries, Neuhaus & Gaehtgens (1992): relative apparent viscosity of blood
  in tube flow as a function of tube diameter D [um] and discharge
  hematocrit (Eqs. 9-10).
* Pries et al. (1990): Fahraeus effect fit relating tube hematocrit to
  discharge hematocrit (Eq. 11).
* Poiseuille's law for the effective viscosity inferred from a simulated
  pressure drop (Eq. 12).
"""

from __future__ import annotations

import numpy as np


def pries_mu45(diameter_um: float | np.ndarray) -> np.ndarray:
    """mu_45: relative apparent viscosity at Ht_d = 45% (Eq. 10, first line)."""
    D = np.asarray(diameter_um, dtype=np.float64)
    return 220.0 * np.exp(-1.3 * D) + 3.2 - 2.44 * np.exp(-0.06 * D**0.645)


def pries_shape_C(diameter_um: float | np.ndarray) -> np.ndarray:
    """Shape parameter C of the hematocrit dependence (Eq. 10, second line)."""
    D = np.asarray(diameter_um, dtype=np.float64)
    gate = 1.0 / (1.0 + 1e-11 * D**12)
    return (0.8 + np.exp(-0.075 * D)) * (-1.0 + gate) + gate


def pries_relative_viscosity(
    diameter_um: float | np.ndarray, hematocrit_discharge: float | np.ndarray
) -> np.ndarray:
    """Relative apparent viscosity mu_rel(D, Ht_d) (Eq. 9).

    Multiply by the plasma viscosity to get the absolute apparent
    viscosity of blood in the tube.
    """
    D = np.asarray(diameter_um, dtype=np.float64)
    Htd = np.asarray(hematocrit_discharge, dtype=np.float64)
    if np.any(Htd < 0) or np.any(Htd >= 1):
        raise ValueError("discharge hematocrit must be in [0, 1)")
    mu45 = pries_mu45(D)
    C = pries_shape_C(D)
    num = (1.0 - Htd) ** C - 1.0
    den = (1.0 - 0.45) ** C - 1.0
    return 1.0 + (mu45 - 1.0) * num / den


def fahraeus_ratio(
    diameter_um: float | np.ndarray, hematocrit_discharge: float | np.ndarray
) -> np.ndarray:
    """Ht_t / Ht_d: tube-to-discharge hematocrit ratio (Eq. 11).

    Note: the published manuscript's rendering of Eq. 11 drops the minus
    signs from the exponents; the coefficients used here are the canonical
    Pries et al. (1990) fit, ``1 + 1.7 e^{-0.415 D} - 0.6 e^{-0.011 D}``,
    which is monotone and bounded in (0, 1] as the Fahraeus effect requires.
    """
    D = np.asarray(diameter_um, dtype=np.float64)
    Htd = np.asarray(hematocrit_discharge, dtype=np.float64)
    return Htd + (1.0 - Htd) * (
        1.0 + 1.7 * np.exp(-0.415 * D) - 0.6 * np.exp(-0.011 * D)
    )


def tube_from_discharge_hematocrit(
    diameter_um: float, hematocrit_discharge: float
) -> float:
    """Tube hematocrit Ht_t given discharge hematocrit Ht_d."""
    return float(
        hematocrit_discharge * fahraeus_ratio(diameter_um, hematocrit_discharge)
    )


def discharge_from_tube_hematocrit(
    diameter_um: float, hematocrit_tube: float
) -> float:
    """Invert Eq. 11 numerically: discharge hematocrit from tube hematocrit.

    The simulation maintains a *tube* (volume-fraction) hematocrit in the
    window; the Pries correlation wants the *discharge* value, so the
    Fig. 5C comparison needs this inversion.
    """
    if not 0.0 <= hematocrit_tube < 1.0:
        raise ValueError("tube hematocrit must be in [0, 1)")
    if hematocrit_tube == 0.0:
        return 0.0
    # Imported here: ``import repro`` reaches this module, and loading
    # scipy.optimize is a fifth of that import in every worker process.
    from scipy.optimize import brentq

    def resid(htd: float) -> float:
        return htd * float(fahraeus_ratio(diameter_um, htd)) - hematocrit_tube

    return float(brentq(resid, 1e-9, 1.0 - 1e-9))


def poiseuille_effective_viscosity(
    pressure_drop: float, flow_rate: float, radius: float, length: float
) -> float:
    """Effective dynamic viscosity from a measured pressure drop (Eq. 12).

        mu_eff = dP * pi * R^4 / (8 Q L)

    SI units in, Pa*s out.
    """
    if flow_rate <= 0 or radius <= 0 or length <= 0:
        raise ValueError("flow rate, radius and length must be positive")
    return pressure_drop * np.pi * radius**4 / (8.0 * flow_rate * length)


def poiseuille_pressure_drop(
    viscosity: float, flow_rate: float, radius: float, length: float
) -> float:
    """Inverse of Eq. 12: pressure drop for a given viscosity."""
    return 8.0 * viscosity * flow_rate * length / (np.pi * radius**4)
