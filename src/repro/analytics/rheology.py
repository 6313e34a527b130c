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

import math

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

    def resid(htd: float) -> float:
        return htd * float(fahraeus_ratio(diameter_um, htd)) - hematocrit_tube

    return _brentq(resid, 1e-9, 1.0 - 1e-9)


#: ``scipy.optimize.brentq``'s default tolerances and iteration cap.
_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * float(np.finfo(float).eps)
_BRENTQ_MAXITER = 100


def _brentq(f, a: float, b: float) -> float:
    """A root of ``f`` in ``[a, b]`` by Brent's method.

    ``scipy.optimize.brentq`` with its default tolerances, operation for
    operation, so the root is bit-identical; ported so that one scalar
    inversion does not load ``scipy.optimize`` (8 MiB and a hundred
    modules).  Raises scipy's errors: ``ValueError`` when ``f(a)`` and
    ``f(b)`` have the same sign or ``f`` returns NaN, ``RuntimeError``
    after ``_BRENTQ_MAXITER`` iterations without convergence.
    """
    xtol, rtol = _BRENTQ_XTOL, _BRENTQ_RTOL

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"Failed to converge after {_BRENTQ_MAXITER} iterations."
    )


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
