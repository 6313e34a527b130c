"""BGK collision, equilibrium, and Guo forcing properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm import D3Q19
from repro.lbm.collision import (
    GEMM_COLS,
    PANEL,
    CollisionScratch,
    _panel_buffers,
    collide_bgk,
    density,
    equilibrium,
    macroscopic,
    moments,
    patch_moments,
)

from .reference_bodies import tensordot_equilibrium

SHAPE = (4, 5, 6)


# ----------------------------------------------------------------------
# Oracle: the multi-pass collide that the moment-space GEMM form replaced
# (equilibrium, BGK relaxation and Guo source as separate lattice-sized
# NumPy passes).  Kept here, not in src/, as the reference the new body
# is held to.


def guo_source(u, force, tau):
    """Guo forcing source term S_i = (1 - 1/(2 tau)) w_i [...] . F."""
    cs2 = D3Q19.cs2
    c = D3Q19.c.astype(u.dtype)
    w = D3Q19.w.astype(u.dtype)
    cu = np.tensordot(c, u, axes=([1], [0]))
    cF = np.tensordot(c, force, axes=([1], [0]))
    uF = (u * force).sum(axis=0)
    # (c_i - u)/cs2 . F  +  (c_i . u)(c_i . F)/cs2^2
    out = cu * cF / cs2**2 + (cF - uF[None]) / cs2
    out *= 1.0 - 0.5 / tau
    out *= w[:, None, None, None]
    return out


def collide_multipass(f, tau, force=None):
    """One BGK collision step, pass by pass; returns ``(f_post, rho, u)``."""
    rho = f.sum(axis=0)
    mom = np.tensordot(D3Q19.c.T.astype(f.dtype), f, axes=([1], [0]))
    if force is not None:
        mom = mom + 0.5 * force
    u = mom / rho
    feq = tensordot_equilibrium(rho, u)
    out = (f - feq) * (1.0 - 1.0 / tau) + feq
    if force is not None:
        out += guo_source(u, force, tau)
    return out, rho, u


def _random_state(rng, u_scale=0.05):
    rho = 1.0 + 0.02 * rng.standard_normal(SHAPE)
    u = u_scale * rng.standard_normal((3,) + SHAPE)
    return rho, u


def test_equilibrium_moments_match_inputs(rng):
    rho, u = _random_state(rng)
    feq = equilibrium(rho, u)
    rho2, u2 = macroscopic(feq)
    assert np.allclose(rho2, rho)
    assert np.allclose(u2, u, atol=1e-12)


def test_equilibrium_at_rest_is_weights(rng):
    feq = equilibrium(np.ones(SHAPE), np.zeros((3,) + SHAPE))
    for q in range(D3Q19.Q):
        assert np.allclose(feq[q], D3Q19.w[q])


def test_equilibrium_positive_at_moderate_velocity(rng):
    rho, u = _random_state(rng, u_scale=0.05)
    assert np.all(equilibrium(rho, u) > 0)


def test_collision_conserves_mass_and_momentum(rng):
    rho, u = _random_state(rng)
    f = equilibrium(rho, u) * (1.0 + 0.01 * rng.standard_normal((19,) + SHAPE))
    post = collide_bgk(f, tau=0.8)
    rho0, u0 = macroscopic(f)
    rho1, u1 = macroscopic(post)
    assert np.allclose(rho1, rho0)
    assert np.allclose(rho1[None] * u1, rho0[None] * u0, atol=1e-14)


def test_collision_fixed_point_is_equilibrium(rng):
    rho, u = _random_state(rng)
    feq = equilibrium(rho, u)
    post = collide_bgk(feq.copy(), tau=0.9)
    assert np.allclose(post, feq)


def test_collision_tau_one_projects_to_equilibrium(rng):
    rho, u = _random_state(rng)
    f = equilibrium(rho, u) * (1.0 + 0.01 * rng.standard_normal((19,) + SHAPE))
    post = collide_bgk(f, tau=1.0)
    rho_pre, u_pre = macroscopic(f)
    assert np.allclose(post, equilibrium(rho_pre, u_pre))


def test_collision_out_buffer_reused(rng):
    rho, u = _random_state(rng)
    f = equilibrium(rho, u)
    out = np.empty_like(f)
    post = collide_bgk(f, tau=0.7, out=out)
    assert post is out


def test_variable_tau_matches_scalar_on_uniform_field(rng):
    rho, u = _random_state(rng)
    f = equilibrium(rho, u) * (1.0 + 0.01 * rng.standard_normal((19,) + SHAPE))
    post_scalar = collide_bgk(f.copy(), tau=0.8)
    post_field = collide_bgk(f.copy(), tau=np.full(SHAPE, 0.8))
    assert np.allclose(post_scalar, post_field)


def test_variable_tau_acts_locally(rng):
    rho, u = _random_state(rng)
    f = equilibrium(rho, u) * (1.0 + 0.01 * rng.standard_normal((19,) + SHAPE))
    tau = np.full(SHAPE, 0.8)
    tau[2, :, :] = 1.5
    post = collide_bgk(f.copy(), tau=tau)
    post_ref = collide_bgk(f.copy(), tau=0.8)
    # Away from the modified slab, identical; on it, different.
    assert np.allclose(post[:, 0], post_ref[:, 0])
    assert not np.allclose(post[:, 2], post_ref[:, 2])


def test_guo_velocity_shift_halves_force(rng):
    """Macroscopic velocity includes the +F/2 Guo correction."""
    rho = np.ones(SHAPE)
    u = np.zeros((3,) + SHAPE)
    f = equilibrium(rho, u)
    force = np.zeros((3,) + SHAPE)
    force[0] = 1e-4
    _, u_shifted = macroscopic(f, force)
    assert np.allclose(u_shifted[0], 0.5e-4)


def test_guo_source_adds_momentum(rng):
    """One forced collision adds (1 - 1/(2 tau)) F to the bare momentum.

    Starting from rest equilibrium, the pre-collision velocity measured
    with the half-force shift is F/2; the Guo source then deposits
    (1 - 1/(2 tau)) F so that, combined with the shift, exactly F of
    momentum is gained per time step in steady forcing.
    """
    tau = 0.9
    rho = np.ones(SHAPE)
    u = np.zeros((3,) + SHAPE)
    f = equilibrium(rho, u)
    force = np.zeros((3,) + SHAPE)
    force[2] = 2e-5
    post = collide_bgk(f, tau=tau, force=force)
    mom = np.einsum("qa,qxyz->axyz", D3Q19.c.astype(float), post)
    # Collision sees u = F/2 (half-shift) relaxing from u=0 state plus the
    # source term: net bare momentum after one collision:
    expected = (1.0 / tau) * 0.5 * force[2] + (1.0 - 0.5 / tau) * force[2]
    assert np.allclose(mom[2], expected)


def test_guo_source_zero_without_force(rng):
    u = 0.01 * rng.standard_normal((3,) + SHAPE)
    src = guo_source(u, np.zeros((3,) + SHAPE), tau=0.8)
    assert np.allclose(src, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    ux=st.floats(-0.08, 0.08),
    uy=st.floats(-0.08, 0.08),
    uz=st.floats(-0.08, 0.08),
    rho=st.floats(0.9, 1.1),
)
def test_equilibrium_moment_property(ux, uy, uz, rho):
    """Property: f^eq reproduces (rho, u) for any moderate input."""
    shape = (2, 2, 2)
    rho_f = np.full(shape, rho)
    u = np.zeros((3,) + shape)
    u[0], u[1], u[2] = ux, uy, uz
    feq = equilibrium(rho_f, u)
    rho2, u2 = macroscopic(feq)
    assert np.allclose(rho2, rho)
    assert np.allclose(u2[0], ux, atol=1e-12)
    assert np.allclose(u2[2], uz, atol=1e-12)


# ----------------------------------------------------------------------
# Moment-space collide vs the multi-pass oracle

#: Node counts: under one GEMM panel; exactly one work chunk; a chunk
#: plus a tail shorter than a GEMM panel; a chunk plus a longer tail;
#: two chunks plus a tail.
_SHAPES = [SHAPE, (16, 16, PANEL // 256), (23, 24, 24), (24, 24, 29),
           (30, 29, 31)]
_FORCES = [None, "zero", "sparse", "dense"]


def _perturbed_state(rng, shape, dtype=np.float64):
    rho = 1.0 + 0.05 * rng.standard_normal(shape)
    u = 0.05 * rng.standard_normal((3,) + shape)
    f = equilibrium(rho, u) * (1.0 + 0.02 * rng.standard_normal((19,) + shape))
    return f.astype(dtype)


def _force(rng, shape, kind, dtype=np.float64):
    if kind is None:
        return None
    force = np.zeros((3,) + shape, dtype=dtype)
    if kind == "sparse":
        mask = rng.random(shape) < 0.3
        force[:, mask] = 1e-3 * rng.standard_normal((3, int(mask.sum())))
    elif kind == "dense":
        force[:] = 1e-3 * rng.standard_normal((3,) + shape)
    return force


#: ``"one"`` is the scalar tau = 1 whose (1 - omega) f pass is skipped.
_TAUS = ["scalar", "field", "one"]


def _tau(rng, shape, kind, dtype=np.float64):
    if kind == "scalar":
        return 0.8
    if kind == "one":
        return 1.0
    return (0.6 + rng.random(shape)).astype(dtype)


def test_shapes_cover_the_panel_cases():
    counts = [int(np.prod(shape)) for shape in _SHAPES]
    assert counts[0] < GEMM_COLS
    assert counts[1] == PANEL
    assert 0 < counts[2] - PANEL < GEMM_COLS
    assert GEMM_COLS < counts[3] - PANEL < PANEL
    assert counts[4] > 2 * PANEL and counts[4] % GEMM_COLS


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-13), (np.float32, 1e-5)])
@pytest.mark.parametrize("tau_kind", _TAUS)
@pytest.mark.parametrize("force_kind", _FORCES)
@pytest.mark.parametrize("shape", _SHAPES)
def test_collide_matches_multipass_oracle(rng, shape, force_kind, tau_kind,
                                          dtype, tol):
    f = _perturbed_state(rng, shape, dtype)
    force = _force(rng, shape, force_kind, dtype)
    tau = _tau(rng, shape, tau_kind, dtype)
    want, rho_w, u_w = collide_multipass(f, tau, force)
    got = collide_bgk(f, tau, force)
    rho_g, u_g = macroscopic(f, force)
    scale = np.abs(want).max()
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= tol * scale
    assert np.abs(rho_g - rho_w).max() <= tol
    assert np.abs(u_g - u_w).max() <= tol
    # the scratch/out path is the same arithmetic
    out = np.empty_like(f)
    again = collide_bgk(
        f, tau, force, out=out, scratch=CollisionScratch(shape, dtype=dtype)
    )
    assert again is out
    assert np.array_equal(again, got)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("tau_kind", _TAUS)
@pytest.mark.parametrize("force_kind", _FORCES)
@pytest.mark.parametrize("shape", _SHAPES)
def test_collide_in_panel_moments_equal_cached(rng, shape, force_kind,
                                               tau_kind, dtype):
    """Without ``moments_in`` every panel forms its own moments with the
    GEMM calls of :func:`moments`: the same bits as handing them over."""
    f = _perturbed_state(rng, shape, dtype)
    force = _force(rng, shape, force_kind, dtype)
    tau = _tau(rng, shape, tau_kind, dtype)
    own = collide_bgk(f, tau, force)
    handed = collide_bgk(f, tau, force, moments_in=moments(f))
    assert np.array_equal(own, handed)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", _SHAPES)
def test_density_is_row_zero_of_moments(rng, shape, dtype):
    f = _perturbed_state(rng, shape, dtype)
    rho = density(f)
    assert rho.shape == shape and rho.dtype == dtype
    assert np.array_equal(rho, moments(f)[0])
    gathered = f.reshape(19, -1)[:, ::7]
    assert np.array_equal(density(gathered), moments(gathered)[0])


@pytest.mark.parametrize("tau_kind", _TAUS)
@pytest.mark.parametrize("force_kind", _FORCES)
def test_collide_on_strided_slab_views(rng, force_kind, tau_kind):
    """Strided views of every operand give the packed copy's result."""
    shape = (12, 15, 17)
    f = _perturbed_state(rng, shape)
    force = _force(rng, shape, force_kind)
    tau = _tau(rng, shape, tau_kind)
    sl = (slice(1, -1), slice(2, -2), slice(1, -3))
    idx = (slice(None),) + sl
    rho, mom = moments(f)
    out = np.full_like(f, np.nan)
    collide_bgk(
        f[idx], tau[sl] if tau_kind == "field" else tau,
        None if force is None else force[idx],
        out=out[idx], moments_in=(rho[sl], mom[idx]),
    )
    want = collide_bgk(
        np.ascontiguousarray(f[idx]),
        np.ascontiguousarray(tau[sl]) if tau_kind == "field" else tau,
        None if force is None else np.ascontiguousarray(force[idx]),
    )
    assert np.array_equal(out[idx], want)
    untouched = np.ones(shape, dtype=bool)
    untouched[sl] = False
    assert np.isnan(out[:, untouched]).all()
    oracle, _, _ = collide_multipass(f, tau, force)
    assert np.abs(want - oracle[idx]).max() <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_collide_and_moments_do_not_depend_on_block_shape(data):
    """A node's result is bitwise the same in any block that contains it.

    Random sub-blocks of a random lattice, copied contiguous, against
    the same nodes of the full-lattice result: this is what keeps a
    decomposed lattice equal to the single grid, whatever the shapes,
    down to a block of one node.
    """
    dims = st.integers(5, 30)
    shape = (data.draw(dims), data.draw(dims), data.draw(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tau_kind = data.draw(st.sampled_from(_TAUS))
    force_kind = data.draw(st.sampled_from(_FORCES))
    f = _perturbed_state(rng, shape)
    force = _force(rng, shape, force_kind)
    tau = _tau(rng, shape, tau_kind)
    rho_full, mom_full = moments(f)
    post_full = collide_bgk(f, tau, force)
    u_full = macroscopic(f, force)[1]
    for _ in range(3):
        sl = []
        for n in shape:
            lo = data.draw(st.integers(0, n - 1))
            sl.append(slice(lo, data.draw(st.integers(lo + 1, n))))
        sl = tuple(sl)
        idx = (slice(None),) + sl
        f_blk = np.ascontiguousarray(f[idx])
        rho_blk, mom_blk = moments(f_blk)
        assert np.array_equal(rho_blk, rho_full[sl])
        assert np.array_equal(mom_blk, mom_full[idx])
        force_blk = None if force is None else np.ascontiguousarray(force[idx])
        post_blk = collide_bgk(
            f_blk,
            np.ascontiguousarray(tau[sl]) if tau_kind == "field" else tau,
            force_blk,
        )
        u_blk = macroscopic(f_blk, force_blk)[1]
        assert np.array_equal(u_blk, u_full[idx])
        assert np.array_equal(post_blk, post_full[idx])


@pytest.mark.parametrize("tau_kind", _TAUS)
@pytest.mark.parametrize("force_kind", _FORCES)
def test_collide_exact_invariants(rng, force_kind, tau_kind):
    """Sum_i f_post = rho and Sum_i c_i f_post = mom + F, to round-off."""
    shape = (13, 14, 15)
    f = _perturbed_state(rng, shape)
    force = _force(rng, shape, force_kind)
    tau = _tau(rng, shape, tau_kind)
    rho, mom = moments(f)
    post = collide_bgk(f, tau, force)
    rho_post, mom_post = moments(post)
    assert np.abs(rho_post - rho).max() <= 1e-14
    gained = 0.0 if force is None else force
    assert np.abs(mom_post - (mom + gained)).max() <= 1e-14


@pytest.mark.parametrize("tau_kind", _TAUS)
def test_zero_force_array_equals_no_force(rng, tau_kind):
    shape = (13, 14, 15)
    f = _perturbed_state(rng, shape)
    tau = _tau(rng, shape, tau_kind)
    zero = np.zeros((3,) + shape)
    unforced = collide_bgk(f, tau, None)
    zeroed = collide_bgk(f, tau, zero)
    assert np.array_equal(unforced, zeroed)
    assert np.array_equal(macroscopic(f)[1], macroscopic(f, zero)[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("force_kind", _FORCES)
def test_tau_one_skip_equals_relaxation_through_tau_field(rng, force_kind,
                                                          dtype):
    """At scalar tau = 1 the (1 - omega) f pass is left out; a tau field
    of ones still forms it (as exact zeros) and scales the Guo rows by
    exactly 1/2, so both give the same bits."""
    shape = (17, 16, 23)
    f = _perturbed_state(rng, shape, dtype)
    force = _force(rng, shape, force_kind, dtype)
    skipped = collide_bgk(f, 1.0, force)
    relaxed = collide_bgk(f, np.ones(shape, dtype=dtype), force)
    assert np.array_equal(skipped, relaxed)
    # in place, as the distributed collide may run it
    aliased = f.copy()
    collide_bgk(aliased, 1.0, force, out=aliased)
    assert np.array_equal(aliased, skipped)


# ----------------------------------------------------------------------
# Equilibrium as M @ Phi vs the term-by-term oracle


def _rho_input(rng, shape, kind):
    if kind == "one":
        return 1.0
    if kind == "scalar":
        return 1.03
    return 1.0 + 0.05 * rng.standard_normal(shape)


def _u_input(rng, shape, kind, dtype):
    if kind == "constant":
        vec = (0.05 * rng.standard_normal(3)).astype(dtype)
        return np.broadcast_to(vec.reshape(3, 1, 1, 1), (3,) + shape)
    return (0.05 * rng.standard_normal((3,) + shape)).astype(dtype)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-14), (np.float32, 1e-6)])
@pytest.mark.parametrize("u_kind", ["field", "constant"])
@pytest.mark.parametrize("rho_kind", ["one", "scalar", "field"])
@pytest.mark.parametrize("shape", _SHAPES)
def test_equilibrium_matches_tensordot_oracle(rng, shape, rho_kind, u_kind,
                                              dtype, tol):
    rho = _rho_input(rng, shape, rho_kind)
    u = _u_input(rng, shape, u_kind, dtype)
    got = equilibrium(rho, u)
    want = tensordot_equilibrium(rho, np.ascontiguousarray(u))
    assert got.shape == (19,) + shape and got.dtype == dtype
    assert np.abs(got / want - 1.0).max() <= tol
    out = np.full_like(got, np.nan)
    assert equilibrium(rho, u, out=out) is out
    assert np.array_equal(out, got)


def test_equilibrium_into_strided_out(rng):
    """``out`` may be a view that has no ``(19, N)`` form."""
    shape = (6, 7, 8)
    rho = _rho_input(rng, shape, "field")
    u = _u_input(rng, shape, "field", np.float64)
    want = equilibrium(rho, u)
    buf = np.full((19,) + (6, 9, 8), np.nan)
    view = buf[:, :, 1:8]
    assert equilibrium(rho, u, out=view) is view
    assert np.array_equal(view, want)
    assert np.isnan(buf[:, :, [0, 8]]).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", _SHAPES)
def test_tau_one_collide_is_the_equilibrium_bit_for_bit(rng, shape, dtype):
    """Without a force, ``collide_bgk(f, 1)`` is ``M @ Phi(rho, mom/rho)``,
    which is what ``equilibrium`` evaluates."""
    f = _perturbed_state(rng, shape, dtype)
    post = collide_bgk(f, 1.0)
    rho, mom = moments(f)
    assert np.array_equal(post, equilibrium(rho, mom / rho))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equilibrium_does_not_depend_on_block_shape(data):
    """f^eq of a sub-block is bitwise the same columns of the whole."""
    dims = st.integers(1, 30)
    shape = (data.draw(dims), data.draw(dims), data.draw(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = _rho_input(rng, shape, data.draw(st.sampled_from(["one", "field"])))
    u = _u_input(rng, shape, "field", np.float64)
    full = equilibrium(rho, u)
    for _ in range(3):
        sl = []
        for n in shape:
            lo = data.draw(st.integers(0, n - 1))
            sl.append(slice(lo, data.draw(st.integers(lo + 1, n))))
        sl = tuple(sl)
        idx = (slice(None),) + sl
        blk = equilibrium(
            rho if np.ndim(rho) == 0 else np.ascontiguousarray(rho[sl]),
            np.ascontiguousarray(u[idx]),
        )
        assert np.array_equal(blk, full[idx])
        flat = equilibrium(
            rho if np.ndim(rho) == 0 else rho[sl].reshape(-1),
            u[idx].reshape(3, -1),
        )
        assert np.array_equal(flat, full[idx].reshape(19, -1))


# ----------------------------------------------------------------------
# Moments: one [1; c^T] GEMM


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_moments_agree_across_layouts_and_with_plain_sums(rng, dtype):
    """The lattice, a sub-block, a transposed gather and ``patch_moments``
    give the same bits; against ``f.sum(axis=0)`` / ``c^T @ f`` the GEMM
    is held to round-off only, because equality depends on the BLAS
    kernel."""
    shape = (21, 22, 23)
    f = _perturbed_state(rng, shape, dtype)
    rho, mom = moments(f)
    flat_rho, flat_mom = rho.reshape(-1), mom.reshape(3, -1)

    sl = (slice(3, 17), slice(5, 6), slice(0, 19))
    blk_rho, blk_mom = moments(np.ascontiguousarray(f[(slice(None),) + sl]))
    assert np.array_equal(blk_rho, rho[sl])
    assert np.array_equal(blk_mom, mom[(slice(None),) + sl])

    nodes = rng.permutation(f[0].size)[: 2 * GEMM_COLS + 7]
    gathered = f.reshape(19, -1)[:, nodes]
    assert not gathered.flags.c_contiguous
    g_rho, g_mom = moments(gathered)
    assert np.array_equal(g_rho, flat_rho[nodes])
    assert np.array_equal(g_mom, flat_mom[:, nodes])

    patched = np.zeros((4,) + shape, dtype=dtype)
    patch_moments(patched, nodes, gathered)
    assert np.array_equal(patched[0].reshape(-1)[nodes], flat_rho[nodes])
    assert np.array_equal(patched[1:].reshape(3, -1)[:, nodes],
                          flat_mom[:, nodes])

    tol = 1e-15 if dtype == np.float64 else 1e-6
    scale = np.abs(rho).max()
    c = D3Q19.c.T.astype(dtype)
    assert np.abs(rho - f.sum(axis=0)).max() <= tol * scale
    assert np.abs(mom - np.tensordot(c, f, axes=1)).max() <= tol * scale


# ----------------------------------------------------------------------
# What the collide and the lattice keep between steps


def _held_bytes(*objs) -> int:
    """Bytes of the distinct buffers behind the array attributes of ``objs``."""
    buffers = {}
    for obj in objs:
        for a in vars(obj).values():
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def test_collide_scratch_holds_no_lattice_sized_buffer():
    """Nothing in a scratch grows with the lattice, not even once the
    grid caches its moments (``Grid.moments()``); the velocity, density
    floor, moments and work rows of the collide are panel-sized, one set
    per half of a pass."""
    from repro.lbm import Grid, LBMSolver

    def grown(step):
        fields = []
        for shape in ((10, 11, 12), (20, 21, 22)):
            solver = LBMSolver(Grid(shape, tau=0.8))
            step(solver)
            fields.append(vars(solver._scratch))
        small, large = fields
        return sorted(
            name for name, a in small.items()
            if isinstance(a, np.ndarray) and a.shape != large[name].shape
        )

    assert grown(lambda s: s.step(2)) == []
    assert grown(lambda s: (s.step(2), s.grid.moments(), s.step(1))) == []
    for half in (0, 1):
        rows = _panel_buffers(np.dtype(np.float64), half)
        assert [r.shape for r in rows] == [(19, PANEL), (19, PANEL)]


def _per_node_bytes(prepare) -> float:
    """Growth of what a float64 Grid and its LBMSolver hold, per node,
    between two lattice sizes, after ``prepare(solver)``."""
    from repro.lbm import Grid, LBMSolver

    def held(shape):
        grid = Grid(shape, tau=0.8, dtype=np.float64)
        solver = LBMSolver(grid)
        prepare(solver)
        return _held_bytes(grid, solver, solver._scratch)

    small, large = (10, 11, 12), (20, 21, 22)
    return (held(large) - held(small)) / (np.prod(large) - np.prod(small))


def test_cell_free_lattice_state_is_177_bytes_per_float64_node():
    """``f`` 152 + force 24 + solid 1: a stepped lattice whose moments
    have no second reader, diagnostics included, keeps no moment cache."""

    def run(solver):
        solver.step(3)
        solver.mass()
        solver.macroscopic()

    assert _per_node_bytes(run) == 177


def test_lattice_state_is_209_bytes_per_float64_node():
    """``f`` 152 + force 24 + moments 32 + solid 1, once the moments have
    a second reader (``Grid.moments()``, as cell advection calls it)."""

    def run(solver):
        solver.step(1)
        solver.grid.moments()
        solver.step(1)

    assert _per_node_bytes(run) == 209


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(3, 4, 5), (30, 29, 31)])
def test_velocity_in_the_force_field_is_the_lattice_wide_quotient(dtype,
                                                                  shape):
    """``out=force`` forms ``(F/2 + mom) / max(rho, floor)`` in the force
    field itself, the floor one panel at a time (one ragged panel, or
    several and a ragged tail): the same bits as the lattice-wide
    floor, with vacuum nodes held up by the floor."""
    from repro.lbm.collision import _rho_floor, velocity_from_moments

    rng = np.random.default_rng(2)
    rho = (1.0 + 0.1 * rng.standard_normal(shape)).astype(dtype)
    rho.reshape(-1)[::7] = 0.0
    mom = (0.01 * rng.standard_normal((3,) + shape)).astype(dtype)
    force = (1e-4 * rng.standard_normal((3,) + shape)).astype(dtype)
    den = np.maximum(rho, _rho_floor(rho.dtype))
    want = (np.multiply(force, 0.5) + mom) / den
    mom_before = mom.copy()
    u = velocity_from_moments(rho, mom, force, out=force)
    assert u is force and u.dtype == dtype
    assert np.array_equal(u, want)
    assert np.array_equal(mom, mom_before)
    assert (rho.size > 2 * PANEL) == (shape == (30, 29, 31))
    assert rho.size % PANEL
