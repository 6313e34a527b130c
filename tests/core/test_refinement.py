"""Fine/coarse coupling operators: construction, consistency, accuracy."""

import numpy as np
import pytest

from repro.core import RefinedRegion, tau_fine_from_coarse
from repro.core.viscosity import stress_match_scale_to_fine
from repro.lbm import D3Q19, Grid, LBMSolver
from repro.lbm.collision import macroscopic

from ..lbm.reference_bodies import tensordot_equilibrium
from .reference_bodies import (
    interpolation_operator,
    operator_fill,
    trilinear,
    whole_block_fill,
)


def _coupled(n=2, coarse_shape=(12, 12, 12), w=4, tau_c=0.9, lam=1.0, i0=(3, 3, 3)):
    cg = Grid(coarse_shape, tau=tau_c, spacing=float(n))
    coarse = LBMSolver(cg, [])
    tau_f = tau_fine_from_coarse(tau_c, n, lam)
    fg = Grid(
        (n * w + 1,) * 3,
        tau=tau_f,
        origin=np.array(i0, dtype=float) * n,
        spacing=1.0,
    )
    fine = LBMSolver(fg, [])
    return coarse, fine, RefinedRegion(coarse, fine, n)


def _round_off(grid):
    """Tolerance for quantities exact up to rounding, in the grid's dtype
    (the measured errors are ≤ 3 eps in float64 and float32)."""
    return 64 * np.finfo(grid.f.dtype).eps


def test_construction_validates_ratio():
    cg = Grid((8, 8, 8), tau=0.9, spacing=2.0)
    fg = Grid((5, 5, 5), tau=0.9, origin=np.array([4.0, 4, 4]), spacing=1.5)
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2)


def test_construction_validates_origin_alignment():
    cg = Grid((8, 8, 8), tau=0.9, spacing=2.0)
    fg = Grid((5, 5, 5), tau=0.9, origin=np.array([3.0, 4, 4]), spacing=1.0)
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2)


def test_construction_validates_shape_alignment():
    cg = Grid((8, 8, 8), tau=0.9, spacing=2.0)
    fg = Grid((6, 5, 5), tau=0.9, origin=np.array([4.0, 4, 4]), spacing=1.0)
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2)


def test_construction_requires_interior_window():
    cg = Grid((6, 6, 6), tau=0.9, spacing=2.0)
    fg = Grid((9, 9, 9), tau=0.9, origin=np.zeros(3), spacing=1.0)
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2)


def test_rejects_variable_tau_fine():
    cg = Grid((10, 10, 10), tau=0.9, spacing=2.0)
    fg = Grid(
        (5, 5, 5), tau=np.full((5, 5, 5), 0.9), origin=np.array([4.0, 4, 4]), spacing=1.0
    )
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2)


def test_initialize_fine_reproduces_uniform_flow():
    coarse, fine, rr = _coupled()
    vel = np.zeros((3,) + coarse.grid.shape)
    vel[0] = 0.02
    coarse.grid.init_equilibrium(1.0, vel)
    rr.initialize_fine_from_coarse()
    rho, u = macroscopic(fine.grid.f)
    assert np.allclose(rho, 1.0, atol=1e-12)
    assert np.allclose(u[0], 0.02, atol=1e-12)
    assert np.allclose(u[1:], 0.0, atol=1e-12)


def test_initialize_fine_interpolates_gradient():
    coarse, fine, rr = _coupled()
    cg = coarse.grid
    x = cg.axis_coords(0) / cg.spacing  # coarse index coordinate
    vel = np.zeros((3,) + cg.shape)
    vel[1] = 0.001 * x[:, None, None]
    cg.init_equilibrium(1.0, vel)
    rr.initialize_fine_from_coarse()
    _, u = macroscopic(fine.grid.f)
    xf = fine.grid.axis_coords(0) / cg.spacing
    expected = 0.001 * xf
    mid = fine.grid.shape[1] // 2
    assert np.allclose(u[1, :, mid, mid], expected, atol=1e-6)


def test_uniform_flow_preserved_through_coupled_steps():
    """Galilean check: uniform flow is an exact steady state of the
    coupled system (ghosts, restriction and rescaling all consistent)."""
    coarse, fine, rr = _coupled(tau_c=0.8)
    vel = np.zeros((3,) + coarse.grid.shape)
    vel[2] = 0.03
    coarse.grid.init_equilibrium(1.0, vel)
    rr.initialize_fine_from_coarse()
    rr.step(5)
    _, u_c = macroscopic(coarse.grid.f)
    _, u_f = macroscopic(fine.grid.f)
    tol = _round_off(fine.grid)
    assert np.allclose(u_c[2], 0.03, atol=tol)
    assert np.allclose(u_f[2], 0.03, atol=tol)
    assert np.allclose(u_f[:2], 0.0, atol=tol)


def test_rest_state_is_fixed_point():
    coarse, fine, rr = _coupled(lam=0.5)
    rr.initialize_fine_from_coarse()
    rr.step(3)
    rho_c, u_c = macroscopic(coarse.grid.f)
    rho_f, u_f = macroscopic(fine.grid.f)
    assert np.allclose(u_c, 0.0, atol=1e-14)
    assert np.allclose(u_f, 0.0, atol=1e-14)
    assert np.allclose(rho_f, 1.0, atol=1e-14)


def test_mass_stays_bounded_under_coupling():
    coarse, fine, rr = _coupled()
    vel = np.zeros((3,) + coarse.grid.shape)
    vel[0] = 0.02
    coarse.grid.init_equilibrium(1.0, vel)
    rr.initialize_fine_from_coarse()
    rr.step(10)
    rho_c, _ = macroscopic(coarse.grid.f)
    assert abs(rho_c.mean() - 1.0) < 1e-6


def test_periodic_axes_window_spans_domain():
    n = 2
    cg = Grid((6, 10, 6), tau=0.9, spacing=2.0)
    coarse = LBMSolver(cg, [])
    fg = Grid((12, 2 * 4 + 1, 12), tau=0.9, origin=np.array([0.0, 6.0, 0.0]), spacing=1.0)
    fine = LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n, periodic_axes=(0, 2))
    vel = np.zeros((3,) + cg.shape)
    vel[0] = 0.01
    cg.init_equilibrium(1.0, vel)
    rr.initialize_fine_from_coarse()
    rr.step(2)
    _, u_f = macroscopic(fg.f)
    assert np.allclose(u_f[0], 0.01, atol=1e-10)


def test_periodic_axes_validation():
    cg = Grid((6, 10, 6), tau=0.9, spacing=2.0)
    fg = Grid((11, 9, 12), tau=0.9, origin=np.array([0.0, 6.0, 0.0]), spacing=1.0)
    with pytest.raises(ValueError):
        RefinedRegion(LBMSolver(cg, []), LBMSolver(fg, []), 2, periodic_axes=(0, 2))


def test_trilinear_matches_manual():
    field = np.arange(27, dtype=float).reshape(3, 3, 3)
    v = trilinear(field, np.array([[0.5, 0.0, 0.0]]))
    assert np.isclose(v[0], 0.5 * (field[0, 0, 0] + field[1, 0, 0]))


def test_shear_verification_small_scale():
    """End-to-end Table 1 style check at the smallest usable size."""
    from repro.experiments.shear_layers import run_shear_layers

    r = run_shear_layers(lam=0.5, n=2, ny_channel=12, nxz=4, steps=1200, u_top=0.02)
    assert r.error_bulk < 0.05
    assert r.error_window < 0.08


# ----------------------------------------------------------------------
# Ghost coupling: the first implementation -- time-blend the whole coarse
# fields, then three `trilinear` passes -- is kept here as the oracle.

def _oracle_coarse_state(cg):
    rho, u = macroscopic(cg.f, cg.force)
    return rho, u, cg.f - tensordot_equilibrium(rho, u)


def _oracle_populations(rr, state, idx):
    """f^eq + scale * f^neq at fine nodes ``idx`` (N, 3) from a coarse
    ``(rho, u, fneq)`` state, by three-pass trilinear: (19, N)."""
    cg, fg = rr.coarse.grid, rr.fine.grid
    mode = "wrap" if rr.periodic_axes else "clip"
    frac = (fg.origin + fg.spacing * idx - cg.origin) / cg.spacing
    rho, u, fneq = state
    rho_i = trilinear(rho, frac, mode)
    u_i = trilinear(u, frac, mode)
    fneq_i = trilinear(fneq, frac, mode).T
    if isinstance(cg.tau, np.ndarray):
        tau_c = trilinear(cg.tau, frac, mode)
    else:
        tau_c = np.full(len(frac), float(cg.tau))
    scale = stress_match_scale_to_fine(tau_c, fg.tau)
    feq = tensordot_equilibrium(rho_i, np.ascontiguousarray(u_i.T))
    return feq + scale[None, :] * fneq_i


def _oracle_shell(rr):
    fg = rr.fine.grid
    mask = np.zeros(fg.shape, dtype=bool)
    for d in range(3):
        if d not in rr.periodic_axes:
            mask[(slice(None),) * d + (0,)] = True
            mask[(slice(None),) * d + (-1,)] = True
    return mask & ~fg.solid


def _perturb(grid, rng, amplitude=0.01):
    """Out-of-equilibrium random state (non-zero f^neq everywhere)."""
    vel = amplitude * rng.standard_normal((3,) + grid.shape)
    grid.init_equilibrium(1.0 + amplitude * rng.standard_normal(grid.shape), vel)
    grid.f *= 1.0 + amplitude * rng.standard_normal(grid.f.shape)
    grid.mark_f_modified()


def _coupling_case(case, dtype):
    """(coarse, fine, rr) for one named coupling configuration."""
    rng = np.random.default_rng(3)
    n, tau_c = 2, 0.9
    if case == "wrap":
        cshape, fshape = (6, 10, 6), (12, 9, 12)
        origin, periodic = np.array([0.0, 6.0, 0.0]), (0, 2)
    else:
        cshape, fshape = (12, 11, 10), (9, 9, 9)
        origin, periodic = np.array([6.0, 4.0, 6.0]), ()
    tau = tau_c
    if case == "tau_field":
        tau = 0.7 + 0.5 * rng.random(cshape)
    cg = Grid(cshape, tau=tau, spacing=float(n), dtype=dtype)
    fg = Grid(
        fshape, tau=tau_fine_from_coarse(tau_c, n, 0.7), origin=origin,
        spacing=1.0, dtype=dtype,
    )
    if case == "solid_shell":
        fg.solid[:, :3, :] = True  # wall slab cutting through five faces
        fg.solid[6:, 6:, 8] = True  # and a patch on the sixth
    if case == "body_force":
        cg.force[:] = 1e-3 * rng.standard_normal(cg.force.shape)
    coarse, fine = LBMSolver(cg, []), LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n, periodic_axes=periodic)
    _perturb(cg, rng)
    return coarse, fine, rr


def _tolerance(grid):
    return 1e-13 if grid.f.dtype == np.float64 else 1e-5


CASES = ("clip", "wrap", "tau_field", "solid_shell", "body_force")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_imposed_shell_matches_blend_then_trilinear_oracle(case, dtype):
    coarse, fine, rr = _coupling_case(case, dtype)
    fg = fine.grid
    prev = _oracle_coarse_state(coarse.grid)
    rr._state_prev = rr._ghost_state()
    coarse.step()
    nxt = _oracle_coarse_state(coarse.grid)
    rr._state_next = rr._ghost_state()
    shell = _oracle_shell(rr)
    idx = np.argwhere(shell)
    assert len(idx) > 0
    for theta in (0.0, 0.25, 0.5, 1.0):
        blended = tuple((1 - theta) * a + theta * b for a, b in zip(prev, nxt))
        expected = _oracle_populations(rr, blended, idx)
        fg.f[:] = np.nan
        rr._impose_ghosts(theta)
        # exactly the fluid shell nodes were written, nothing else
        assert np.isnan(fg.f[:, ~shell]).all()
        got = fg.f[:, shell].astype(np.float64)
        assert np.abs(got - expected).max() <= _tolerance(fg)
        # shell mass and momentum equal the oracle's
        c = D3Q19.c.astype(np.float64)
        sum_tol = len(idx) * (1e-12 if fg.f.dtype == np.float64 else 1e-5)
        assert abs(got.sum() - expected.sum()) <= sum_tol
        momentum_gap = c.T @ (got.sum(axis=1) - expected.sum(axis=1))
        assert np.abs(momentum_gap).max() <= sum_tol


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_initialize_fine_matches_trilinear_oracle(case, dtype):
    coarse, fine, rr = _coupling_case(case, dtype)
    fg = fine.grid
    fluid = ~fg.solid
    expected = _oracle_populations(
        rr, _oracle_coarse_state(coarse.grid), np.argwhere(fluid)
    )
    fg.f[:] = np.nan
    version = fg.f_version
    rr.initialize_fine_from_coarse()
    assert fg.f_version > version
    assert np.isnan(fg.f[:, ~fluid]).all()
    assert np.abs(fg.f[:, fluid] - expected).max() <= _tolerance(fg)


@pytest.mark.parametrize("n", [2, 4])
def test_affine_velocity_reproduced_on_shell_at_every_theta(n):
    """Physics gate for the coupling layer: trilinear interpolation and
    the linear time blend are both exact on affine fields, so an affine
    coarse velocity with uniform density must arrive on the shell
    unchanged (to rounding) at every sub-step."""
    coarse, fine, rr = _coupled(n=n, coarse_shape=(12, 11, 10), w=3, i0=(3, 4, 2))
    cg, fg = coarse.grid, fine.grid
    rng = np.random.default_rng(11)

    def affine(grid, a, b):
        x = grid.node_positions() / cg.spacing  # (nx, ny, nz, 3), coarse units
        return np.moveaxis(a + x @ b.T, -1, 0)

    fields = []
    for _ in range(2):
        a = 0.02 * rng.standard_normal(3)
        b = 0.002 * rng.standard_normal((3, 3))
        fields.append((a, b))
        cg.init_equilibrium(1.0, affine(cg, a, b))
        fields[-1] += (rr._ghost_state(),)
    rr._state_prev, rr._state_next = fields[0][2], fields[1][2]
    shell = _oracle_shell(rr)
    tol = _round_off(fg)
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        rr._impose_ghosts(theta)
        rho, u = macroscopic(fg.f)
        expected = (1 - theta) * affine(fg, *fields[0][:2]) + theta * affine(
            fg, *fields[1][:2]
        )
        assert np.abs(rho[shell] - 1.0).max() <= tol
        assert np.abs(u[:, shell] - expected[:, shell]).max() <= tol


def test_interpolation_operator_contract():
    rng = np.random.default_rng(5)
    shape = (5, 6, 7)
    phi = rng.standard_normal(shape)
    # interior points, points coincident with nodes, and (wrap) points in
    # the last cell of each axis
    frac = np.concatenate([
        rng.random((40, 3)) * (np.array(shape) - 1),
        np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 4.0], [4.0, 5.0, 6.0], [1.5, 2.0, 3.0]]),
    ])
    for mode in ("clip", "wrap"):
        pts = frac if mode == "clip" else np.concatenate(
            [frac, rng.random((10, 3)) + (np.array(shape) - 1)]
        )
        op, src = interpolation_operator(pts, shape, mode)
        assert op.shape == (len(pts), len(src))
        assert np.all(np.diff(src) > 0) and src.max() < phi.size
        assert op.data.min() > 0.0  # zero weights eliminated
        nnz_per_row = np.diff(op.indptr)
        assert nnz_per_row.max() <= 8
        assert np.allclose(op.sum(axis=1), 1.0, atol=1e-15)
        coincident = np.all(pts == np.floor(pts), axis=1)
        assert np.all(nnz_per_row[coincident] == 1)
        gap = op @ phi.reshape(-1)[src] - trilinear(phi, pts, mode)
        assert np.abs(gap).max() < 1e-14


def test_impose_before_state_capture_raises():
    _, _, rr = _coupled()
    with pytest.raises(RuntimeError):
        rr._impose_ghosts(0.0)


def _impose_peak_bytes(coarse_shape):
    import tracemalloc

    n = 2
    cg = Grid(coarse_shape, tau=0.9, spacing=float(n))
    fg = Grid((17,) * 3, tau=0.9, origin=np.array([6.0, 6.0, 6.0]), spacing=1.0)
    coarse, fine = LBMSolver(cg, []), LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n)
    rr.step(1)  # captures both states and warms every cache
    tracemalloc.start()
    try:
        rr._impose_ghosts(0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, int(_oracle_shell(rr).sum())


def test_impose_allocation_is_shell_sized_and_independent_of_coarse_grid():
    """Guard on the per-sub-step cost that does not depend on timing:
    imposing the shell allocates a few shell-sized arrays and nothing
    that scales with the coarse lattice."""
    peak, n_ghost = _impose_peak_bytes((16, 16, 16))
    assert peak <= 4 * (23 * n_ghost * 8)
    peak_doubled, _ = _impose_peak_bytes((32, 16, 16))
    assert peak_doubled <= 1.05 * peak


def test_one_step_captures_shell_state_twice_and_imposes_n_plus_one_times():
    """The first step captures the shell state at both ends of the coarse
    step and imposes it n + 1 times.  A later step reuses the previous
    step's θ = 1 state and skips its θ = 0 impose (one capture, n
    imposes), unless the coarse f or force at the face nodes changed or
    the fine lattice was written since that θ = 1 impose."""
    n = 4
    coarse, fine, rr = _coupled(n=n, coarse_shape=(10, 10, 10), w=3)
    cg, fg = coarse.grid, fine.grid
    _perturb(cg, np.random.default_rng(4))
    calls = {"capture": 0, "impose": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    rr._ghost_state = counted("capture", rr._ghost_state)
    rr._impose_ghosts = counted("impose", rr._impose_ghosts)

    def step_costs(write=None):
        if write is not None:
            write()
        before = dict(calls)
        rr.step(1)
        return calls["capture"] - before["capture"], calls["impose"] - before["impose"]

    def coarse_write():
        cg.f *= 1.0 + 1e-7
        cg.mark_f_modified()

    def force_change():
        cg.force[0] += 1e-6  # no version bump: compared by value

    def fine_write():
        fg.f[:, 2, 2, 2] *= 1.0 + 1e-7  # away from the shell
        fg.mark_f_modified()

    def coarse_write_off_shell():
        cg.f[:, 0, 0, 0] *= 1.0 + 1e-7  # outside the window
        cg.mark_f_modified()

    assert step_costs() == (2, n + 1)
    assert step_costs() == (1, n)
    assert step_costs() == (1, n)
    for write in (coarse_write, force_change, fine_write):
        assert step_costs(write) == (2, n + 1)
        assert step_costs() == (1, n)
    # The face nodes' f and force are unchanged: the shell still holds
    # what θ = 0 would write.
    assert step_costs(coarse_write_off_shell) == (1, n)


# ----------------------------------------------------------------------
# The window fill as a separable prolongation: the operator-based fill it
# replaced (`tests/core/reference_bodies.py`) is the oracle.

def _fill_case(case, n):
    """(coarse, fine, rr) for one float64 fill configuration, coarse
    perturbed."""
    rng = np.random.default_rng(17 + n)
    tau_c = 0.9
    periodic = ()
    if case == "wrap":
        cshape, w = (5, 9, 4), (5, 3, 4)
        origin = np.array([0.0, 3.0, 0.0])
        periodic = (0, 2)
    else:
        cshape, w = (9, 8, 10), (3, 2, 4)
        origin = np.array([2.0, 3.0, 4.0])
    fshape = tuple(
        n * w[d] if d in periodic else n * w[d] + 1 for d in range(3)
    )
    tau = 0.7 + 0.5 * rng.random(cshape) if case == "tau_field" else tau_c
    cg = Grid(cshape, tau=tau, spacing=float(n), dtype="float64")
    fg = Grid(fshape, tau=tau_fine_from_coarse(tau_c, n, 0.6),
              origin=origin * n, spacing=1.0, dtype="float64")
    if case == "walled":
        x, y, z = np.meshgrid(*[np.arange(s) for s in fshape], indexing="ij")
        r2 = (y - fshape[1] / 2) ** 2 + (z - fshape[2] / 2) ** 2
        fg.solid[:] = r2 > (0.4 * min(fshape[1:])) ** 2
    cg.force[:] = 1e-3 * rng.standard_normal(cg.force.shape)
    coarse, fine = LBMSolver(cg, []), LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n, periodic_axes=periodic)
    _perturb(cg, rng)
    return coarse, fine, rr


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", ["clip", "wrap", "walled", "tau_field"])
def test_fill_matches_operator_fill(case, n):
    _, fine, rr = _fill_case(case, n)
    fg = fine.grid
    nodes, expected = operator_fill(rr)
    fg.f[:] = np.nan
    rr.initialize_fine_from_coarse()
    got = fg.f.reshape(19, -1)
    # solid nodes untouched, every fluid node written
    assert np.isnan(np.delete(got, nodes, axis=1)).all()
    assert np.abs(got[:, nodes] - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", ["clip", "wrap", "walled", "tau_field"])
def test_fill_is_bitwise_the_whole_block_fill(case, n):
    """Prolonging one coarse x-plane along y at a time runs the GEMMs of
    the whole-block prolongation, so the fill is the same bits."""
    _, fine, rr = _fill_case(case, n)
    fg = fine.grid
    fg.f[:] = np.nan
    whole_block_fill(rr)
    want = fg.f.copy()
    fg.f[:] = np.nan
    rr.initialize_fine_from_coarse()
    assert np.array_equal(fg.f, want, equal_nan=True)


@pytest.mark.parametrize("n", [2, 4])
def test_fill_and_shell_agree_on_the_shell(n):
    """The fill and the θ = 0 shell prolong the same coarse rows with the
    same 1-D rules, so on the shell they write the same populations (to
    the last ulp: their GEMMs have different shapes)."""
    _, fine, rr = _fill_case("walled", n)
    fg = fine.grid
    rr.initialize_fine_from_coarse()
    filled = fg.f.reshape(19, -1)[:, rr._ghost_flat].copy()
    rr._state_prev = rr._state_next = rr._ghost_state()
    rr._impose_ghosts(0.0)
    gap = np.abs(fg.f.reshape(19, -1)[:, rr._ghost_flat] - filled).max()
    assert gap <= 4 * np.finfo(np.float64).eps * np.abs(filled).max()


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_shell_endpoints_write_the_captured_state(theta):
    """At θ = 0 and θ = 1 the shell takes the captured state as is: f^eq
    of its (rho, u) rows plus its (already rescaled) f^neq rows."""
    from repro.lbm.collision import equilibrium

    coarse, fine, rr = _coupling_case("tau_field", "float64")
    rr._state_prev = rr._ghost_state()
    coarse.step()
    rr._state_next = rr._ghost_state()
    state = rr._state_next if theta else rr._state_prev
    before = state.copy()
    rr._impose_ghosts(theta)
    want = equilibrium(state[0], state[1:4]) + state[4:]
    assert np.array_equal(fine.grid.f.reshape(19, -1)[:, rr._ghost_flat], want)
    assert np.array_equal(state, before)


def _fill_peak_bytes(walled):
    import tracemalloc

    n = 4
    cg = Grid((20, 20, 20), tau=0.9, spacing=float(n))
    fg = Grid((33,) * 3, tau=0.9, origin=np.array([12.0, 12.0, 12.0]),
              spacing=1.0)
    if walled:
        x, y, z = np.meshgrid(*[np.arange(33)] * 3, indexing="ij")
        fg.solid[:] = (y - 16) ** 2 + (z - 16) ** 2 > 10.5 ** 2
    coarse, fine = LBMSolver(cg, []), LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n)
    _perturb(cg, np.random.default_rng(2))
    rr.initialize_fine_from_coarse()  # warm every cache
    tracemalloc.start()
    try:
        rr.initialize_fine_from_coarse()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the fill works in float64 whatever the lattice dtype
    return peak, 8 * fg.f.size, float((~fg.solid).mean())


@pytest.mark.parametrize("walled", [False, True])
def test_fill_allocates_a_fraction_of_the_fine_lattice(walled):
    """The fill prolongs one coarse cell of fine planes at a time: its
    peak allocation stays below the (float64) fine lattice it writes
    (measured 0.62x all-fluid, 0.76x walled at ~32% fluid), where the
    operator fill allocated 3.96x and 1.28x."""
    peak, lattice_bytes, fluid = _fill_peak_bytes(walled)
    assert (0.3 < fluid < 0.34) if walled else fluid == 1.0
    assert peak <= 0.85 * lattice_bytes
