"""D3Q19 stencil invariants."""

import numpy as np

from repro.lbm import D3Q19


def test_q19_has_19_velocities():
    assert D3Q19.Q == 19
    assert D3Q19.c.shape == (19, 3)
    assert D3Q19.w.shape == (19,)


def test_rest_velocity_first():
    assert np.all(D3Q19.c[0] == 0)


def test_weights_sum_to_one():
    assert np.isclose(D3Q19.w.sum(), 1.0)


def test_weight_values_by_speed():
    speed2 = (D3Q19.c**2).sum(axis=1)
    assert np.allclose(D3Q19.w[speed2 == 0], 1.0 / 3.0)
    assert np.allclose(D3Q19.w[speed2 == 1], 1.0 / 18.0)
    assert np.allclose(D3Q19.w[speed2 == 2], 1.0 / 36.0)


def test_velocity_set_symmetric():
    """Every velocity has its exact opposite in the set."""
    for i in range(D3Q19.Q):
        j = D3Q19.opp[i]
        assert np.all(D3Q19.c[j] == -D3Q19.c[i])
        assert D3Q19.opp[j] == i


def test_opposite_weights_equal():
    assert np.allclose(D3Q19.w[D3Q19.opp], D3Q19.w)


def test_first_moment_vanishes():
    assert np.allclose(np.einsum("q,qa->a", D3Q19.w, D3Q19.c.astype(float)), 0)


def test_second_moment_isotropic():
    m2 = np.einsum("q,qa,qb->ab", D3Q19.w, D3Q19.c.astype(float), D3Q19.c.astype(float))
    assert np.allclose(m2, D3Q19.cs2 * np.eye(3))


def test_fourth_moment_isotropic():
    """Galilean-invariance condition for the Navier-Stokes limit."""
    c = D3Q19.c.astype(float)
    m4 = np.einsum("q,qa,qb,qc,qd->abcd", D3Q19.w, c, c, c, c)
    cs4 = D3Q19.cs2**2
    delta = np.eye(3)
    expected = cs4 * (
        np.einsum("ab,cd->abcd", delta, delta)
        + np.einsum("ac,bd->abcd", delta, delta)
        + np.einsum("ad,bc->abcd", delta, delta)
    )
    assert np.allclose(m4, expected)


def test_constants_are_readonly():
    assert not D3Q19.c.flags.writeable
    assert not D3Q19.w.flags.writeable
