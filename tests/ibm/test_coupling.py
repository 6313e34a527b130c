"""IBM interpolation and spreading (Eqs. 4, 6)."""

import numpy as np
import pytest

from repro.ibm import interpolate, spread
from repro.lbm import Grid

from .runtime_cells import runtime_with_cells


def _linear_vector_field(shape):
    field = np.zeros((3,) + shape)
    x, y, z = np.meshgrid(*map(np.arange, shape), indexing="ij")
    field[0] = 0.1 * x + 0.2 * y - 0.05 * z + 0.3
    field[1] = -0.07 * x + 0.01 * z
    field[2] = 0.02 * y
    return field


def test_interpolate_constant_field_exact():
    field = np.full((3, 8, 8, 8), 1.7)
    pos = np.array([[3.1, 4.9, 2.2], [1.5, 1.5, 1.5]])
    for kernel in ("cosine4", "peskin4", "linear2"):
        v = interpolate(field, pos, kernel)
        assert np.allclose(v, 1.7)


def test_interpolate_linear_field_exact_with_linear_kernel():
    field = _linear_vector_field((10, 10, 10))
    pos = np.array([[4.3, 5.7, 3.2], [2.0, 2.5, 6.9]])
    v = interpolate(field, pos, "linear2")
    for m, p in enumerate(pos):
        assert np.isclose(v[m, 0], 0.1 * p[0] + 0.2 * p[1] - 0.05 * p[2] + 0.3)


def test_interpolate_linear_field_cosine4_small_error():
    field = _linear_vector_field((10, 10, 10))
    pos = np.array([[4.3, 5.7, 3.2]])
    v = interpolate(field, pos, "cosine4")
    exact = 0.1 * 4.3 + 0.2 * 5.7 - 0.05 * 3.2 + 0.3
    assert abs(v[0, 0] - exact) < 0.02 * abs(exact)


def test_interpolate_at_node_with_peskin_not_exact_but_close():
    field = _linear_vector_field((10, 10, 10))
    pos = np.array([[5.0, 5.0, 5.0]])
    v = interpolate(field, pos, "peskin4")
    assert np.isclose(v[0, 0], field[0, 5, 5, 5], rtol=0.05)


def test_interpolate_scalar_field():
    field = np.zeros((8, 8, 8))
    field[:] = np.arange(8)[:, None, None]
    v = interpolate(field, np.array([[3.5, 2.0, 2.0]]), "linear2")
    assert np.isclose(v[0], 3.5)


def test_spread_conserves_total_force():
    out = np.zeros((3, 9, 9, 9))
    G = np.array([[1.0, -2.0, 0.5], [0.2, 0.3, -0.1], [0.0, 5.0, 0.0]])
    pos = np.array([[4.2, 4.7, 4.1], [2.9, 3.3, 6.6], [5.5, 5.5, 5.5]])
    spread(G, pos, out, "cosine4")
    assert np.allclose(out.sum(axis=(1, 2, 3)), G.sum(axis=0))


def test_spread_scalar_conserves():
    out = np.zeros((7, 7, 7))
    spread(np.array([[2.5]]), np.array([[3.2, 3.9, 2.1]]), out, "peskin4")
    assert np.isclose(out.sum(), 2.5)


def test_spread_localized_within_support():
    out = np.zeros((3, 12, 12, 12))
    spread(np.array([[1.0, 0, 0]]), np.array([[6.0, 6.0, 6.0]]), out, "cosine4")
    assert out[0, :4].sum() == 0.0
    assert out[0, 9:].sum() == 0.0


def test_spread_interpolate_adjoint(rng):
    """<spread(G), u> == <G, interp(u)> — the discrete adjoint identity."""
    shape = (8, 8, 8)
    u = rng.standard_normal((3,) + shape)
    pos = rng.uniform(2.0, 5.5, size=(6, 3))
    G = rng.standard_normal((6, 3))
    out = np.zeros((3,) + shape)
    spread(G, pos, out, "cosine4")
    lhs = float((out * u).sum())
    rhs = float((G * interpolate(u, pos, "cosine4")).sum())
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_wrap_mode_spreads_across_boundary():
    out = np.zeros((3, 6, 6, 6))
    spread(np.array([[1.0, 0, 0]]), np.array([[0.1, 3.0, 3.0]]), out, "cosine4", mode="wrap")
    # With a marker near x=0, weight lands on the wrapped x=5 plane.
    assert out[0, 5].sum() > 0
    assert np.isclose(out[0].sum(), 1.0)


def test_clip_mode_piles_on_edge():
    out = np.zeros((3, 6, 6, 6))
    spread(np.array([[1.0, 0, 0]]), np.array([[0.1, 3.0, 3.0]]), out, "cosine4", mode="clip")
    assert out[0, 5].sum() == 0.0
    assert np.isclose(out[0].sum(), 1.0)


def test_unknown_mode_raises():
    with pytest.raises(ValueError):
        interpolate(np.zeros((4, 4, 4)), np.array([[1, 1, 1.0]]), "cosine4", mode="bogus")


def test_coupler_physical_units():
    origin = np.array([1e-6, 0.0, 0.0])
    g = Grid((12, 12, 12), tau=0.8, origin=origin, spacing=0.5e-6)
    # A cell about the physical position of lattice node (6, 6, 6).
    rt, _, phys = runtime_with_cells(g, [origin + 6 * 0.5e-6], mode="clip")
    u = _linear_vector_field(g.shape)
    rt.begin_step(phys)
    v = rt.interpolate(u)
    # The runtime's markers sit at their lattice positions, under the
    # paper's cosine kernel.
    frac = (phys - origin) / 0.5e-6
    assert np.allclose(v, interpolate(u, frac, "cosine4"), rtol=0, atol=1e-12)


def test_coupler_spread_into_grid_force():
    g = Grid((8, 8, 8), tau=0.8, spacing=1e-6)
    rt, _, pos = runtime_with_cells(g, [(4e-6, 4e-6, 4e-6)], mode="clip")
    forces = np.zeros(pos.shape)
    forces[:, 2] = 2.0
    rt.begin_step(pos)
    rt.spread(forces, g.force)
    assert np.isclose(g.force[2].sum(), 2.0 * len(pos))
    assert g.force[:2].sum() == 0.0


@pytest.mark.parametrize("body", [0.0, 3.7e-4])
@pytest.mark.parametrize("mode", ["clip", "wrap"])
def test_spread_by_component_is_bitwise_the_transposed_product(body, mode):
    """``out[c] += S.T @ F[:, c]`` against the one ``(N, 3)`` product
    ``S.T @ F`` added back transposed, on a zero and a non-zero body
    force, with markers that share nodes and straddle the box edge."""
    from repro.ibm.coupling import make_stencil, spread_with_stencil

    rng = np.random.default_rng(4)
    shape = (11, 9, 10)
    pos = rng.uniform(-1.0, 11.0, size=(300, 3))
    forces = rng.standard_normal((300, 3))
    stencil = make_stencil(pos, shape, "cosine4", mode)
    field = np.full((3,) + shape, body)
    want = field.copy()
    want.reshape(3, -1)[...] += (stencil.matrix.T @ forces).T
    spread_with_stencil(forces, stencil, field)
    assert np.array_equal(field, want)
