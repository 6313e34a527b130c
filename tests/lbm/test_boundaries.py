"""Bounce-back walls (static and moving), inlet and outlet handlers."""

import numpy as np
import pytest

from repro.lbm import (
    BounceBackLinks,
    BounceBackWalls,
    Grid,
    LBMSolver,
    OutflowOutlet,
    VelocityInlet,
    apply_bounce_back,
)
from repro.lbm.streaming import (
    _INTERIOR,
    padded_upwind_solid_masks,
    upwind_solid_masks,
)

from .reference_bodies import mask_bounce_back


def _wall_velocity(rng, shape, kind):
    if kind == "constant":
        # a zero component: some directions see c . u_w == 0 exactly
        return np.array([0.02, 0.0, -0.01])
    if kind == "field":
        return 0.03 * rng.standard_normal((3,) + shape)
    return None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("wall", ["resting", "constant", "field"])
def test_link_table_equals_mask_oracle(rng, wall, dtype):
    shape = (9, 11, 13)
    solid = rng.random(shape) < 0.3
    f_new = rng.random((19,) + shape).astype(dtype)
    f_post = rng.random((19,) + shape).astype(dtype)
    uw = _wall_velocity(rng, shape, wall)
    want = f_new.copy()
    masks = upwind_solid_masks(solid)
    mask_bounce_back(want, f_post, masks, uw)
    got = f_new.copy()
    apply_bounce_back(got, f_post, BounceBackLinks(masks), uw)
    assert np.array_equal(got, want)

    walls = BounceBackWalls(solid, wall_velocity=uw)
    again = f_new.copy()
    walls.before_stream(f_post)
    walls.apply(again)
    assert np.array_equal(again, want)
    # the walls keep 1-D link arrays, no (19, ...) mask
    arrays = [*vars(walls).values(), *vars(walls._links).values()]
    assert not any(
        a.dtype == bool and a.ndim == 4
        for a in arrays if isinstance(a, np.ndarray)
    )
    walls.before_stream(f_post)
    with pytest.raises(ValueError):
        walls.apply(np.asfortranarray(again))
    # the gathered values serve one apply
    with pytest.raises(RuntimeError):
        walls.apply(again)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_padded_link_table_equals_mask_oracle_on_interior(rng, dtype):
    """The executor's variant: links index the whole padded block and
    touch only interior nodes, as the oracle on the interior views."""
    shape = (6, 7, 8)
    padded = tuple(n + 2 for n in shape)
    solid_padded = rng.random(padded) < 0.3
    masks = padded_upwind_solid_masks(solid_padded)
    idx = (slice(None),) + _INTERIOR
    assert masks.sum() == masks[idx].sum() > 0
    f_new = rng.random((19,) + padded).astype(dtype)
    f_post = rng.random((19,) + padded).astype(dtype)
    want = f_new.copy()
    mask_bounce_back(want[idx], f_post[idx], masks[idx])
    got = f_new.copy()
    apply_bounce_back(got, f_post, BounceBackLinks(masks))
    assert np.array_equal(got, want)


def _plate_grid(shape=(4, 12, 4), tau=0.8):
    g = Grid(shape, tau=tau)
    g.solid[:, 0, :] = True
    g.solid[:, -1, :] = True
    return g


def test_resting_walls_conserve_mass():
    g = _plate_grid()
    s = LBMSolver(g, [BounceBackWalls(g.solid)])
    m0 = s.mass()
    s.step(50)
    assert np.isclose(s.mass(), m0)


def test_resting_walls_damp_flow():
    """Unforced flow between plates decays to rest (no-slip dissipation)."""
    g = _plate_grid()
    vel = np.zeros((3,) + g.shape)
    vel[0] = 0.02
    vel[0, :, 0, :] = 0.0
    vel[0, :, -1, :] = 0.0
    g.init_equilibrium(1.0, vel)
    s = LBMSolver(g, [BounceBackWalls(g.solid)])
    s.step(800)
    _, u = s.macroscopic()
    assert np.abs(u[0][~g.solid]).max() < 2e-3


def test_moving_wall_drags_fluid():
    g = _plate_grid()
    uw = np.zeros((3,) + g.shape)
    uw[0, :, -2, :] = 0.05
    s = LBMSolver(g, [BounceBackWalls(g.solid, wall_velocity=uw)])
    s.step(400)
    _, u = s.macroscopic()
    # Near-wall fluid approaches the wall speed; far side stays slow.
    assert u[0, 2, -2, 2] > 0.03
    assert u[0, 2, 1, 2] < 0.01


def test_couette_profile_linear():
    ny = 20
    g = _plate_grid((4, ny, 4))
    U = 0.04
    uw = np.zeros((3,) + g.shape)
    uw[0, :, -2, :] = U
    s = LBMSolver(g, [BounceBackWalls(g.solid, wall_velocity=uw)])
    s.step(3000)
    _, u = s.macroscopic()
    y = np.arange(ny)
    analytic = U * (y - 0.5) / (ny - 2.0)
    err = np.abs(u[0, 2, 1:-1, 2] - analytic[1:-1]).max() / U
    assert err < 0.01


def test_constant_wall_velocity_vector():
    """A (3,) constant wall velocity is accepted and drives flow."""
    g = Grid((4, 10, 4), tau=0.9)
    g.solid[:, 0, :] = True
    g.solid[:, -1, :] = True
    s = LBMSolver(g, [BounceBackWalls(g.solid, wall_velocity=np.array([0.02, 0, 0]))])
    s.step(200)
    _, u = s.macroscopic()
    # Both plates move in +x: the bulk is dragged along everywhere.
    assert u[0][~g.solid].min() > 0.0


def test_velocity_inlet_imposes_profile():
    g = Grid((6, 6, 16), tau=0.9)
    inlet = VelocityInlet(axis=2, side="low", velocity=np.array([0.0, 0.0, 0.03]))
    outlet = OutflowOutlet(axis=2, side="high")
    s = LBMSolver(g, [inlet, outlet])
    s.step(300)
    _, u = s.macroscopic()
    assert np.allclose(u[2, :, :, 0].mean(), 0.03, rtol=0.05)
    # Downstream carries the flow too.
    assert u[2, :, :, 8].mean() > 0.02


def test_outflow_copies_interior_slab():
    g = Grid((5, 5, 10), tau=0.8)
    outlet = OutflowOutlet(axis=2, side="high")
    g.f[:, :, :, -2] = 7.0
    outlet.apply(g.f)
    assert np.all(g.f[:, :, :, -1] == 7.0)


def test_poiseuille_profile_with_body_force():
    """Body-force-driven plate flow matches the parabolic solution."""
    ny = 18
    g = _plate_grid((4, ny, 4), tau=0.9)
    force = 1e-6
    g.force[0] = force
    s = LBMSolver(g, [BounceBackWalls(g.solid)])
    s.step(4000)
    _, u = s.macroscopic()
    nu = g.nu
    y = np.arange(ny) - 0.5
    h = ny - 2.0
    analytic = force / (2.0 * nu) * y * (h - y)
    sim = u[0, 2, 1:-1, 2]
    err = np.abs(sim - analytic[1:-1]).max() / analytic.max()
    assert err < 0.02


def test_pressure_outlet_sets_density():
    from repro.lbm import PressureOutlet
    from repro.lbm.collision import macroscopic

    g = Grid((5, 5, 12), tau=0.9)
    inlet = VelocityInlet(axis=2, side="low", velocity=np.array([0.0, 0.0, 0.02]))
    outlet = PressureOutlet(axis=2, side="high", rho=1.0)
    s = LBMSolver(g, [inlet, outlet])
    s.step(400)
    rho, u = macroscopic(g.f)
    assert np.isclose(rho[:, :, -1].mean(), 1.0, atol=1e-6)
    # Flow still passes through the outlet.
    assert u[2, :, :, -2].mean() > 0.01


def test_pressure_gradient_between_inlet_and_outlet():
    """Pressure inlet/outlet pair drives flow down the density gradient."""
    from repro.lbm import PressureOutlet

    g = Grid((4, 4, 20), tau=0.9)
    g.solid[:, 0, :] = True
    g.solid[:, -1, :] = True
    hi_p = PressureOutlet(axis=2, side="low", rho=1.01)
    lo_p = PressureOutlet(axis=2, side="high", rho=0.99)
    s = LBMSolver(g, [BounceBackWalls(g.solid), hi_p, lo_p])
    s.step(1500)
    _, u = s.macroscopic()
    assert u[2][~g.solid].mean() > 1e-4
