"""Eq. 7 relaxation-time relations and stress-matching factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    lambda_from_viscosities,
    tau_coarse_from_fine,
    tau_fine_from_coarse,
)
from repro.core.viscosity import (
    max_stable_ratio,
    stress_match_scale_to_coarse,
    stress_match_scale_to_fine,
)
from repro.units import UnitSystem


def test_eq7_paper_form():
    """tau_f = 1/2 + n lambda (tau_c - 1/2), verbatim Eq. 7."""
    assert np.isclose(tau_fine_from_coarse(1.0, 10, 0.3), 0.5 + 10 * 0.3 * 0.5)


def test_eq7_identity_when_unrefined_single_fluid():
    assert np.isclose(tau_fine_from_coarse(0.9, 1, 1.0), 0.9)


def test_eq7_roundtrip():
    tau_f = tau_fine_from_coarse(1.1, 5, 0.25)
    assert np.isclose(tau_coarse_from_fine(tau_f, 5, 0.25), 1.1)


def test_eq7_consistent_with_unit_systems():
    """Eq. 7 must agree with converting physical viscosities per level."""
    nu_c, lam, n = 3.9e-6, 0.3, 4
    nu_f = lam * nu_c
    dx, tau_c = 2e-6, 1.0
    dt = (tau_c - 0.5) / 3.0 * dx**2 / nu_c
    units = UnitSystem(dx, dt)
    assert np.isclose(units.tau_for_viscosity(nu_c), tau_c)
    tau_f_units = units.refined(n).tau_for_viscosity(nu_f)
    assert np.isclose(tau_f_units, tau_fine_from_coarse(tau_c, n, lam))


def test_lambda_reduces_tau_fine():
    """Paper's Section 3.1 remark: lambda < 1 lowers tau_f, allowing
    larger tau_c or n than single-viscosity refinement."""
    single = tau_fine_from_coarse(1.0, 10, 1.0)
    contrast = tau_fine_from_coarse(1.0, 10, 0.3)
    assert contrast < single


def test_max_stable_ratio_grows_with_contrast():
    n_single = max_stable_ratio(1.0, 1.0, tau_fine_limit=2.0)
    n_contrast = max_stable_ratio(1.0, 0.3, tau_fine_limit=2.0)
    assert n_contrast > n_single


def test_validation():
    with pytest.raises(ValueError):
        tau_fine_from_coarse(0.5, 2, 0.5)
    with pytest.raises(ValueError):
        tau_fine_from_coarse(1.0, 0, 0.5)
    with pytest.raises(ValueError):
        tau_fine_from_coarse(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        lambda_from_viscosities(0.0, 1.0)


def test_stress_match_reduces_to_dupuis_chopard_single_fluid():
    """When the grids share a physical viscosity the stress-matching
    factor equals the classical tau_f / (n tau_c)."""
    tau_c, n = 1.0, 5
    tau_f = 0.5 + n * (tau_c - 0.5)
    assert np.isclose(
        stress_match_scale_to_fine(tau_c, tau_f), tau_f / (n * tau_c)
    )


def test_stress_match_inverse():
    s = stress_match_scale_to_fine(0.8, 1.3)
    assert np.isclose(s * stress_match_scale_to_coarse(0.8, 1.3), 1.0)


def test_stress_match_vectorized_over_tau_field():
    tau_c = np.array([0.7, 0.9, 1.2])
    s = stress_match_scale_to_fine(tau_c, 1.5)
    assert s.shape == (3,)
    assert np.all(np.diff(s) > 0)  # more viscous coarse -> larger factor


@settings(max_examples=30, deadline=None)
@given(
    tau_c=st.floats(0.55, 2.0),
    n=st.integers(2, 12),
    lam=st.floats(0.1, 1.0),
)
def test_eq7_viscosity_recovery_property(tau_c, n, lam):
    """Property: both lattices realize their target physical viscosities."""
    tau_f = tau_fine_from_coarse(tau_c, n, lam)
    nu_lat_c = (tau_c - 0.5) / 3.0
    nu_lat_f = (tau_f - 0.5) / 3.0
    # Acoustic scaling: nu_lat_f / nu_lat_c must equal n * lambda.
    assert np.isclose(nu_lat_f / nu_lat_c, n * lam, rtol=1e-12)
    assert tau_f > 0.5
