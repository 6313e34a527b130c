"""Grid container: validation, coordinates, initialization, compute dtype."""

import numpy as np
import pytest

from repro.kernels import DEFAULT_DTYPE, DTYPE_ENV_VAR, resolve_dtype
from repro.lbm import Grid
from repro.lbm.collision import equilibrium, macroscopic


def test_rejects_unstable_tau():
    with pytest.raises(ValueError):
        Grid((4, 4, 4), tau=0.5)


def test_rejects_bad_shape():
    with pytest.raises(ValueError):
        Grid((0, 4, 4), tau=0.8)


def test_rejects_mismatched_tau_field():
    with pytest.raises(ValueError):
        Grid((4, 4, 4), tau=np.full((3, 4, 4), 0.8))


def test_accepts_tau_field():
    tau = np.full((4, 4, 4), 0.8)
    tau[0] = 1.2
    g = Grid((4, 4, 4), tau=tau)
    assert np.allclose(g.tau_at(np.array([[0, 0, 0]])), 1.2)
    assert np.allclose(g.tau_at(np.array([[2, 0, 0]])), 0.8)


def test_tau_at_scalar_grid():
    g = Grid((3, 3, 3), tau=0.9)
    assert np.allclose(g.tau_at(np.array([[1, 1, 1], [0, 0, 0]])), 0.9)


def test_initial_state_is_rest_equilibrium():
    g = Grid((3, 3, 3), tau=0.8)
    rho, u = macroscopic(g.f)
    assert np.allclose(rho, 1.0)
    assert np.allclose(u, 0.0)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_rest_fill_is_the_equilibrium_bit_for_bit(dtype):
    """The rest-state fill writes w, which is what equilibrium(1, 0)
    evaluates to, so skipping the evaluation changes no value."""
    g = Grid((3, 4, 5), tau=0.8, dtype=dtype)
    full = equilibrium(np.ones(g.shape), np.zeros((3,) + g.shape))
    assert np.array_equal(g.f, full.astype(dtype))
    g.f[:] = 0.0
    version = g.f_version
    g.init_equilibrium(1.0)
    assert np.array_equal(g.f, full.astype(dtype))
    assert g.f_version == version + 1


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("rho_kind", ["one", "scalar", "field"])
def test_warm_start_is_the_equilibrium_bit_for_bit(dtype, rho_kind, rng):
    """init_equilibrium(rho, u) writes into f what equilibrium() of the
    broadcast density field gives, with no multiply for a scalar 1."""
    g = Grid((3, 4, 5), tau=0.8, dtype=dtype)
    rho = {"one": 1.0, "scalar": 1.02,
           "field": 1.0 + 0.01 * rng.standard_normal(g.shape)}[rho_kind]
    vel = 0.02 * rng.standard_normal((3,) + g.shape)
    want = equilibrium(np.broadcast_to(np.asarray(rho), g.shape), vel)
    f, version = g.f, g.f_version
    g.init_equilibrium(rho, vel)
    assert g.f is f and g.f_version == version + 1
    assert np.array_equal(g.f, want.astype(dtype))


def test_init_equilibrium_with_fields(rng):
    g = Grid((4, 4, 4), tau=0.8)
    rho = 1.0 + 0.01 * rng.standard_normal(g.shape)
    vel = 0.02 * rng.standard_normal((3,) + g.shape)
    g.init_equilibrium(rho, vel)
    rho2, u2 = macroscopic(g.f)
    atol = 1e-12 if g.dtype == np.float64 else 1e-6
    assert np.allclose(rho2, rho)
    assert np.allclose(u2, vel, atol=atol)


@pytest.mark.parametrize("shape", [(4, 4, 3), (5, 6, 7)])
def test_init_equilibrium_with_one_velocity_for_every_node(shape):
    """A ``(3,)`` velocity is the same vector at every node, on any shape
    (on a grid with nz == 3 it is not three values along z)."""
    g = Grid(shape, tau=0.8)
    vel = np.array([0.05, 0.0, -0.01])
    g.init_equilibrium(1.0, vel)
    _, u = macroscopic(g.f)
    tol = 1e-15 if g.dtype == np.float64 else 1e-7
    assert np.abs(u - vel[:, None, None, None]).max() <= tol
    field = np.ascontiguousarray(np.broadcast_to(vel[:, None, None, None],
                                                 (3,) + shape))
    assert np.array_equal(g.f, equilibrium(1.0, field).astype(g.dtype))


@pytest.mark.parametrize("bad", [(1, 3), (3, 4), (3, 4, 4, 1), (2, 4, 4, 3)])
def test_init_equilibrium_rejects_other_velocity_shapes(bad):
    g = Grid((4, 4, 3), tau=0.8)
    with pytest.raises(ValueError, match=r"\(3, 4, 4, 3\)"):
        g.init_equilibrium(1.0, np.zeros(bad))


def test_node_positions_and_axis_coords():
    g = Grid((3, 4, 5), tau=0.8, origin=np.array([1.0, 2.0, 3.0]), spacing=0.5)
    pos = g.node_positions()
    assert pos.shape == (3, 4, 5, 3)
    assert np.allclose(pos[0, 0, 0], [1.0, 2.0, 3.0])
    assert np.allclose(pos[2, 3, 4], [2.0, 3.5, 5.0])
    assert np.allclose(g.axis_coords(1), [2.0, 2.5, 3.0, 3.5])


def test_contains_with_margin():
    g = Grid((5, 5, 5), tau=0.8, spacing=1.0)
    pts = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0], [2.0, 2.0, 2.0], [4.5, 2, 2]])
    inside = g.contains(pts)
    assert list(inside) == [True, True, True, False]
    inside_margin = g.contains(pts, margin=0.5)
    assert list(inside_margin) == [False, False, True, False]


def test_physical_to_index():
    g = Grid((5, 5, 5), tau=0.8, origin=np.array([1.0, 0.0, 0.0]), spacing=2.0)
    idx = g.physical_to_index(np.array([[3.0, 4.0, 1.0]]))
    assert np.allclose(idx, [[1.0, 2.0, 0.5]])


def test_n_fluid_counts_non_solid():
    g = Grid((4, 4, 4), tau=0.8)
    g.solid[0] = True
    assert g.n_fluid == 64 - 16


def test_nu_property():
    g = Grid((3, 3, 3), tau=1.1)
    assert np.isclose(g.nu, (1.1 - 0.5) / 3.0)


# ----------------------------------------------------------------------
# resolve_dtype precedence (argument > REPRO_DTYPE > float64)


def test_resolve_dtype_default(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    assert resolve_dtype() == np.dtype(DEFAULT_DTYPE) == np.float64


def test_resolve_dtype_ctor_arg(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    assert resolve_dtype("float32") == np.float32
    assert resolve_dtype(np.float32) == np.float32
    assert resolve_dtype(np.dtype(np.float64)) == np.float64


def test_resolve_dtype_arg_wins_over_env(monkeypatch):
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    assert resolve_dtype() == np.float32
    assert resolve_dtype("float64") == np.float64
    assert Grid((3, 3, 3), tau=0.8, dtype="float64").dtype == np.float64


def test_resolve_dtype_rejects_non_compute_dtypes(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="float16"):
        resolve_dtype("float16")
    with pytest.raises(ValueError):
        resolve_dtype("int32")


def test_resolve_dtype_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(DTYPE_ENV_VAR, "float16")
    with pytest.raises(ValueError, match=DTYPE_ENV_VAR):
        resolve_dtype()
