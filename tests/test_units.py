"""Unit conversion system: roundtrips, scaling laws, refinement."""

import numpy as np
import pytest

from repro.units import UnitSystem, nu_lattice_from_tau, tau_from_nu_lattice


def _units():
    return UnitSystem(dx=1e-6, dt=1e-7, rho=1025.0)


def test_validation():
    with pytest.raises(ValueError):
        UnitSystem(dx=0.0, dt=1e-7)
    with pytest.raises(ValueError):
        UnitSystem(dx=1e-6, dt=-1e-7)
    with pytest.raises(ValueError):
        UnitSystem(dx=1e-6, dt=1e-7, rho=0.0)


def test_velocity_scale():
    u = _units()
    # dx/dt = 10 m/s: physical 1 m/s -> 0.1 lattice.
    assert np.isclose(u.velocity_to_lattice(1.0), 0.1)


def test_viscosity_scale():
    u = _units()
    nu = 1e-6  # m^2/s
    nu_lat = u.kinematic_viscosity_to_lattice(nu)
    assert np.isclose(nu_lat, nu * 1e-7 / 1e-12)


def test_tau_viscosity_roundtrip():
    u = _units()
    tau = u.tau_for_viscosity(3.2e-6)
    assert np.isclose(nu_lattice_from_tau(tau) * u.dx**2 / u.dt, 3.2e-6)
    assert tau > 0.5


def test_force_conversions_consistent():
    """A point force F over a lattice cell equals density F/dx^3."""
    u = _units()
    F = 2.5e-12  # N
    as_density = u.force_density_to_lattice(F / u.dx**3)
    as_point = u.force_to_lattice(F)
    assert np.isclose(as_density, as_point)


def test_pressure_conversion():
    u = _units()
    # Lattice pressure 1 -> rho * (dx/dt)^2.
    assert np.isclose(u.pressure_to_physical(1.0), 1025.0 * 100.0)


def test_refined_acoustic_scaling():
    u = _units()
    f = u.refined(4)
    assert np.isclose(f.dx, u.dx / 4)
    assert np.isclose(f.dt, u.dt / 4)
    # Lattice velocity scale dx/dt is invariant (acoustic scaling).
    assert np.isclose(f.dx / f.dt, u.dx / u.dt)


def test_refined_viscosity_relation():
    """nu_lat on the fine grid is n x the coarse value for the same fluid."""
    u = _units()
    nu = 2e-6
    n = 5
    ratio = u.refined(n).kinematic_viscosity_to_lattice(nu) / u.kinematic_viscosity_to_lattice(nu)
    assert np.isclose(ratio, n)


def test_refined_validation():
    with pytest.raises(ValueError):
        _units().refined(0)


def test_module_level_tau_helpers():
    assert np.isclose(tau_from_nu_lattice(1.0 / 6.0), 1.0)
    assert np.isclose(nu_lattice_from_tau(1.0), 1.0 / 6.0)
    assert np.isclose(nu_lattice_from_tau(tau_from_nu_lattice(0.07)), 0.07)
