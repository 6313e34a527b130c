"""Intercellular contact repulsion."""

import numpy as np

from repro.fsi import contact_forces


def test_no_force_beyond_cutoff():
    verts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    f = contact_forces(verts, np.array([0, 1]), cutoff=1.0, stiffness=1.0)
    assert np.allclose(f, 0.0)


def test_pair_force_equal_and_opposite():
    verts = np.array([[0.0, 0, 0], [0.5, 0, 0]])
    f = contact_forces(verts, np.array([0, 1]), cutoff=1.0, stiffness=2.0)
    assert np.allclose(f[0], -f[1])
    assert f[0, 0] < 0 < f[1, 0]  # repulsion pushes apart


def test_force_magnitude_linear_ramp():
    verts = np.array([[0.0, 0, 0], [0.25, 0, 0]])
    f = contact_forces(verts, np.array([0, 1]), cutoff=1.0, stiffness=4.0)
    assert np.isclose(abs(f[0, 0]), 4.0 * (1 - 0.25))


def test_same_cell_vertices_excluded():
    verts = np.array([[0.0, 0, 0], [0.3, 0, 0]])
    f = contact_forces(verts, np.array([0, 0]), cutoff=1.0, stiffness=1.0)
    assert np.allclose(f, 0.0)


def test_total_momentum_free(rng):
    verts = rng.uniform(0, 2.0, size=(50, 3))
    cells = rng.integers(0, 5, size=50)
    f = contact_forces(verts, cells, cutoff=0.6, stiffness=1.0)
    assert np.abs(f.sum(axis=0)).max() < 1e-12 * max(np.abs(f).max(), 1.0)


def test_empty_input():
    f = contact_forces(np.empty((0, 3)), np.empty(0, dtype=int), 0.5, 1.0)
    assert f.shape == (0, 3)


def test_zero_cutoff_disables():
    verts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
    f = contact_forces(verts, np.array([0, 1]), cutoff=0.0, stiffness=1.0)
    assert np.allclose(f, 0.0)


def _reference_contact(verts, cells, cutoff, stiffness):
    """The stateless oracle: a fresh tree at the cutoff, pairs in
    lexicographic ``(i, j)`` order, two np.add.at passes over them."""
    from scipy.spatial import cKDTree

    forces = np.zeros_like(verts, dtype=np.float64)
    if cutoff <= 0.0 or len(verts) < 2:
        return forces
    pairs = cKDTree(verts).query_pairs(cutoff, output_type="ndarray")
    if len(pairs) == 0:
        return forces
    i, j = pairs[:, 0], pairs[:, 1]
    keep = np.asarray(cells)[i] != np.asarray(cells)[j]
    i, j = i[keep], j[keep]
    if len(i) == 0:
        return forces
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    d = verts[i] - verts[j]
    dist = np.linalg.norm(d, axis=1)
    dist = np.maximum(dist, 1e-12 * cutoff)
    mag = stiffness * (1.0 - dist / cutoff)
    fij = (mag / dist)[:, None] * d
    np.add.at(forces, i, fij)
    np.add.at(forces, j, -fij)
    return forces


def test_bincount_scatter_bitwise_equals_add_at(rng):
    """The bincount scatter over the contact list's active pairs must
    reproduce the add.at path over the lexicographically ordered pairs
    of a fresh tree bit-for-bit (same per-vertex summation order)."""
    for n in (2, 17, 120):
        verts = rng.uniform(0.0, 1.5, size=(n, 3))
        cells = rng.integers(0, max(2, n // 8), size=n)
        got = contact_forces(verts, cells, cutoff=0.4, stiffness=1.7)
        want = _reference_contact(verts, cells, 0.4, 1.7)
        assert np.array_equal(got, want)


def test_scratch_reuse_across_calls(rng):
    """Repeated calls reuse scratch buffers without corrupting results.

    Call sites fold the returned array immediately, so the module-level
    scratch may be recycled; a second call with different input must not
    perturb a copy taken from the first."""
    verts_a = rng.uniform(0.0, 1.0, size=(30, 3))
    cells_a = rng.integers(0, 4, size=30)
    first = contact_forces(verts_a, cells_a, cutoff=0.5, stiffness=1.0).copy()
    verts_b = rng.uniform(0.0, 1.0, size=(45, 3))
    cells_b = rng.integers(0, 4, size=45)
    contact_forces(verts_b, cells_b, cutoff=0.5, stiffness=2.0)
    again = contact_forces(verts_a, cells_a, cutoff=0.5, stiffness=1.0)
    assert np.array_equal(first, again)


def test_three_body_superposition():
    """Middle vertex feels the sum of both pair forces."""
    verts = np.array([[-0.3, 0, 0], [0.0, 0, 0], [0.3, 0, 0]])
    cells = np.array([0, 1, 2])
    f = contact_forces(verts, cells, cutoff=1.0, stiffness=1.0)
    # Symmetric neighbors cancel on the middle vertex.
    assert np.isclose(f[1, 0], 0.0, atol=1e-12)
    assert f[0, 0] < 0 < f[2, 0]
