"""LBMSolver loop: conservation, diagnostics."""

import numpy as np

from repro.lbm import BounceBackWalls, Grid, LBMSolver


def test_periodic_mass_momentum_conserved(rng):
    g = Grid((6, 6, 6), tau=0.8)
    vel = 0.02 * rng.standard_normal((3,) + g.shape)
    g.init_equilibrium(1.0, vel)
    s = LBMSolver(g, [])
    m0, p0 = s.mass(), s.momentum()
    s.step(100)
    atol = 1e-10 if g.dtype == np.float64 else 5e-4
    assert np.isclose(s.mass(), m0)
    assert np.allclose(s.momentum(), p0, atol=atol)


def test_uniform_flow_is_invariant(rng):
    """A uniform velocity field is an exact steady state (Galilean)."""
    g = Grid((5, 5, 5), tau=0.9)
    vel = np.zeros((3,) + g.shape)
    vel[0] = 0.03
    g.init_equilibrium(1.0, vel)
    f0 = g.f.copy()
    LBMSolver(g, []).step(20)
    assert np.allclose(g.f, f0, atol=1e-14)


def test_body_force_accelerates_periodic_fluid():
    g = Grid((4, 4, 4), tau=0.8)
    g.force[1] = 1e-5
    s = LBMSolver(g, [])
    s.step(10)
    _, u = s.macroscopic()
    # Momentum grows by F per step; the Guo measurement adds the half-force
    # shift, so after n steps u = (n + 1/2) F / rho.
    rtol = 1e-6 if g.dtype == np.float64 else 5e-3
    assert np.allclose(u[1], 10.5 * 1e-5, rtol=rtol)


def test_step_count_advances():
    g = Grid((3, 3, 3), tau=0.8)
    s = LBMSolver(g, [])
    s.step(7)
    assert s.step_count == 7


def test_solid_nodes_excluded_from_diagnostics():
    g = Grid((4, 4, 4), tau=0.8)
    g.solid[0] = True
    s = LBMSolver(g, [BounceBackWalls(g.solid)])
    assert np.isclose(s.mass(), g.n_fluid)


def test_decay_of_shear_wave_matches_viscosity():
    """A sinusoidal shear wave decays at rate nu * k^2 (transport check)."""
    n = 32
    tau = 0.8
    g = Grid((n, 4, 4), tau=tau)
    k = 2 * np.pi / n
    x = np.arange(n)
    vel = np.zeros((3,) + g.shape)
    amp = 0.01
    vel[1] = amp * np.sin(k * x)[:, None, None]
    g.init_equilibrium(1.0, vel)
    s = LBMSolver(g, [])
    steps = 200
    s.step(steps)
    _, u = s.macroscopic()
    measured = np.abs(u[1, :, 2, 2]).max()
    expected = amp * np.exp(-g.nu * k**2 * steps)
    assert np.isclose(measured, expected, rtol=0.02)
