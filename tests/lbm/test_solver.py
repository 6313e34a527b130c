"""LBMSolver loop: conservation, diagnostics, the in-place step."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.lbm import (
    BounceBackWalls,
    Grid,
    LBMSolver,
    OutflowOutlet,
    PressureOutlet,
    VelocityInlet,
)
from repro.lbm.collision import _panel_buffers, macroscopic
from repro.telemetry import Telemetry, active

from .reference_bodies import two_buffer_step


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


def _channel(rng, tau_kind, wall, shape=(6, 8, 10)):
    """A walled channel with an inlet/outlet pair and a patchy force."""
    tau = {"one": 1.0, "other": 0.83,
           "field": rng.uniform(0.6, 1.6, shape)}[tau_kind]
    g = Grid(shape, tau=tau)
    vel = 0.02 * rng.standard_normal((3,) + shape)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(shape), vel)
    g.force[0, :3] = 1e-4  # zero elsewhere: both collide branches
    g.solid[:, 0] = g.solid[:, -1] = True
    uw = {"resting": None, "constant": np.array([0.02, 0.0, -0.01]),
          "field": 0.03 * rng.standard_normal((3,) + shape)}[wall]
    walls = BounceBackWalls(g.solid, wall_velocity=uw)
    inlet = VelocityInlet(axis=2, side="low", velocity=np.array([0, 0, 0.02]))
    outlet = (PressureOutlet(axis=2, side="high", rho=0.999)
              if wall == "field" else OutflowOutlet(axis=2, side="high"))
    return g, [walls, inlet, outlet]


@pytest.mark.parametrize("tau_kind", ["one", "other", "field"])
@pytest.mark.parametrize("wall", ["resting", "constant", "field"])
def test_in_place_step_equals_two_buffer_step(rng, tau_kind, wall):
    """Collide, stream and bounce back in one lattice: every handler
    order gives the bits of the two-lattice step with that order."""
    g0, handlers = _channel(rng, tau_kind, wall)
    for order in itertools.permutations(handlers):
        g = Grid(g0.shape, tau=g0.tau)
        g.f[:] = g0.f
        g.force[:] = g0.force
        ref = Grid(g0.shape, tau=g0.tau)
        ref.f[:] = g0.f
        ref.force[:] = g0.force
        LBMSolver(g, list(order)).step(3)
        for _ in range(3):
            two_buffer_step(ref, order)
        assert np.array_equal(g.f, ref.f), [type(h).__name__ for h in order]
        assert g._f_post is None


def test_step_allocates_nothing_lattice_sized():
    """Work-count guard: after warm-up, three steps of a walled, forced
    lattice with moving walls allocate well under a quarter of ``f`` at
    their peak, and never the second lattice."""
    g = Grid((24, 64, 32), tau=0.9)
    g.solid[:, 0] = g.solid[:, -1] = True
    g.force[0] = 1e-6
    s = LBMSolver(g, [BounceBackWalls(g.solid, np.array([0.01, 0, 0]))])
    s.step(2)
    tracemalloc.start()
    try:
        s.step(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.f.nbytes / 4
    assert g._f_post is None


def test_cell_free_solver_keeps_no_moment_cache():
    """Without a second reader of its moments a lattice allocates no
    cache: the collide forms them in its panels, and the diagnostics
    form theirs afresh, with the same values."""
    g = Grid((6, 7, 8), tau=0.8)
    g.force[0] = 1e-5
    s = LBMSolver(g, [])
    with active(Telemetry()) as tel:
        s.step(3)
        rho, u = s.macroscopic()
        s.momentum(), s.mass()
    assert g._moments is None
    assert "lbm.moment_caches" not in tel.metrics.counters
    want_rho, want_u = macroscopic(g.f, g.force)
    assert np.array_equal(rho, want_rho) and np.array_equal(u, want_u)
    assert s.mass() == float(want_rho[~g.solid].sum())
    with active(Telemetry()) as tel:
        g.moments()
        g.moments()
    assert tel.metrics.counters["lbm.moment_caches"].value == 1


def test_mass_allocates_a_density_row_only():
    """Work-count guard: ``mass()`` forms the density alone, no moment
    rows, no velocity and no cache."""
    g = Grid((24, 64, 32), tau=0.9)
    g.solid[:, 0] = g.solid[:, -1] = True
    s = LBMSolver(g, [BounceBackWalls(g.solid)])
    s.step(1)
    s.mass()
    tracemalloc.start()
    try:
        s.mass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.f.nbytes / 4
    assert g._moments is None


def test_f_post_is_allocated_on_first_access():
    g = Grid((3, 4, 5), tau=0.8)
    assert g._f_post is None
    post = g.f_post
    assert post.shape == g.f.shape and post.dtype == g.f.dtype
    assert g.f_post is post


def _forced_lattice(seed, shape, dtype, tau):
    """A periodic lattice with a patchy force: both collide branches."""
    rng = np.random.default_rng(seed)
    if tau == "field":
        tau = rng.uniform(0.6, 1.6, shape)
    g = Grid(shape, tau=tau, dtype=dtype)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(shape),
                       0.02 * rng.standard_normal((3,) + shape))
    half = shape[0] // 2
    g.force[:, :half] = 1e-4 * rng.standard_normal((3, half) + shape[1:])
    return g


def test_lattices_sharing_panel_scratch_step_as_if_alone():
    """The collide's panel buffers are one set per process and dtype:
    lattices of either dtype and of different shapes (several panels
    with a ragged end, less than one GEMM panel) stepped in turn give
    the bits of each stepped on its own."""
    specs = [((17, 16, 19), np.float64, 0.8),
             ((10, 11, 12), np.float64, "field"),
             ((13, 14, 15), np.float32, 0.9)]

    def solvers():
        return [LBMSolver(_forced_lattice(seed, shape, dtype, tau))
                for seed, (shape, dtype, tau) in enumerate(specs)]

    alone = solvers()
    for s in alone:
        s.step(4)
    in_turn = solvers()
    for _ in range(4):
        for s in in_turn:
            s.step()
    f64, f32 = (_panel_buffers(np.dtype(t), 0) for t in (np.float64, np.float32))
    assert f64[4] is not f32[4] and f32[4].dtype == np.float32
    for s, t in zip(alone, in_turn):
        assert t.grid.f.dtype == s.grid.f.dtype
        assert np.array_equal(t.grid.f, s.grid.f)
