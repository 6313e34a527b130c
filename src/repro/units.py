"""Unit conversion between physical (SI) and lattice units.

The LBM operates in lattice units where the grid spacing and time step are
both 1.  A :class:`UnitSystem` fixes the physical grid spacing ``dx`` [m],
time step ``dt`` [s] and mass density scale ``rho`` [kg/m^3]; every other
conversion factor follows.

Multi-resolution grids use *acoustic scaling* (Section 2.4.1 of the paper):
a refinement ratio ``n`` between coarse and fine lattices divides both the
spacing and the time step by ``n``, so lattice velocities are continuous
across the interface and the relaxation-time relation of Eq. 7 holds:

    tau_f = 1/2 + n * lambda * (tau_c - 1/2)

where ``lambda = nu_f / nu_c`` is the viscosity contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import CS2


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors between physical SI units and lattice units.

    Parameters
    ----------
    dx:
        Physical size of one lattice spacing [m].
    dt:
        Physical duration of one time step [s].
    rho:
        Physical mass density corresponding to lattice density 1 [kg/m^3].
    """

    dx: float
    dt: float
    rho: float = 1000.0

    def __post_init__(self) -> None:
        if self.dx <= 0 or self.dt <= 0 or self.rho <= 0:
            raise ValueError("dx, dt and rho must all be positive")

    # -- velocities ------------------------------------------------------
    def velocity_to_lattice(self, u: float) -> float:
        """Convert a physical velocity [m/s] to lattice units."""
        return u * self.dt / self.dx

    # -- kinematic viscosity ---------------------------------------------
    def kinematic_viscosity_to_lattice(self, nu: float) -> float:
        """Convert a kinematic viscosity [m^2/s] to lattice units."""
        return nu * self.dt / self.dx**2

    # -- forces ----------------------------------------------------------
    def force_density_to_lattice(self, f: float) -> float:
        """Convert a body-force density [N/m^3] to lattice units."""
        return f * self.dt**2 / (self.rho * self.dx)

    def force_to_lattice(self, f: float) -> float:
        """Convert a point force [N] to lattice units."""
        return f * self.dt**2 / (self.rho * self.dx**4)

    def pressure_to_physical(self, p_lat: float) -> float:
        """Convert a lattice pressure (cs^2 * rho_lat deviation) to Pa."""
        return p_lat * self.rho * self.dx**2 / self.dt**2

    # -- derived ----------------------------------------------------------
    def tau_for_viscosity(self, nu: float) -> float:
        """Relaxation time that realizes physical kinematic viscosity ``nu``."""
        return self.kinematic_viscosity_to_lattice(nu) / CS2 + 0.5

    def refined(self, n: int) -> "UnitSystem":
        """Unit system of a grid refined by integer ratio ``n``.

        Acoustic scaling: both ``dx`` and ``dt`` shrink by ``n`` so that the
        lattice velocity scale ``dx/dt`` is unchanged across levels.
        """
        if n < 1:
            raise ValueError("refinement ratio must be >= 1")
        return UnitSystem(dx=self.dx / n, dt=self.dt / n, rho=self.rho)


def tau_from_nu_lattice(nu_lat: float) -> float:
    """Relaxation time from a lattice-units kinematic viscosity."""
    return nu_lat / CS2 + 0.5


def nu_lattice_from_tau(tau: float) -> float:
    """Lattice-units kinematic viscosity from a relaxation time."""
    return CS2 * (tau - 0.5)
