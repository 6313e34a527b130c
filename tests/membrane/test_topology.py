"""Mesh topology: edges, bending quads, RCM reordering (Section 2.4.5)."""

import numpy as np
import pytest

from repro.membrane import (
    bending_pairs,
    icosphere,
    mesh_bandwidth,
    rcm_ordering,
    reorder_mesh,
    unique_edges,
    vertex_adjacency_matrix,
)

from .reference_bodies import dict_bending_pairs


def test_edge_count_closed_triangulation():
    """Closed triangle mesh: E = 3F/2."""
    verts, faces = icosphere(2)
    edges = unique_edges(faces)
    assert len(edges) == 3 * len(faces) // 2


def test_edges_sorted_and_unique():
    _, faces = icosphere(1)
    edges = unique_edges(faces)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == len(edges)


def test_bending_pairs_one_per_edge():
    _, faces = icosphere(2)
    quads = bending_pairs(faces)
    assert len(quads) == len(unique_edges(faces))


def test_bending_pairs_vertices_distinct():
    _, faces = icosphere(1)
    for quad in bending_pairs(faces):
        assert len(set(int(v) for v in quad)) == 4


def test_bending_pairs_opposite_vertices_from_incident_faces():
    _, faces = icosphere(1)
    face_sets = {frozenset(map(int, f)) for f in faces}
    for v1, v2, v3, v4 in bending_pairs(faces):
        assert frozenset((int(v1), int(v2), int(v3))) in face_sets
        assert frozenset((int(v1), int(v2), int(v4))) in face_sets


def test_bending_pairs_rejects_open_mesh():
    faces = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        bending_pairs(faces)


def test_bending_pairs_rejects_inconsistent_orientation():
    # Two faces sharing edge (0,1) with the SAME half-edge direction.
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValueError):
        bending_pairs(faces)


def test_adjacency_symmetric():
    _, faces = icosphere(1)
    adj = vertex_adjacency_matrix(faces, 42)
    assert (adj != adj.T).nnz == 0


def test_icosphere_vertex_degree():
    """Subdivided icosahedra: 12 degree-5 vertices, the rest degree 6."""
    _, faces = icosphere(2)
    adj = vertex_adjacency_matrix(faces, 162)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    assert (deg == 5).sum() == 12
    assert (deg == 6).sum() == 150


def test_rcm_is_permutation():
    _, faces = icosphere(2)
    perm = rcm_ordering(faces, 162)
    assert sorted(perm) == list(range(162))


def test_rcm_reduces_bandwidth():
    """The Section 2.4.5 claim: RCM improves FEM access locality."""
    verts, faces = icosphere(3)
    # Scramble first so the input ordering is arbitrary.
    rng = np.random.default_rng(5)
    scramble = rng.permutation(len(verts))
    v2, f2 = reorder_mesh(verts, faces, scramble)
    before = mesh_bandwidth(f2, len(verts))
    perm = rcm_ordering(f2, len(verts))
    v3, f3 = reorder_mesh(v2, f2, perm)
    after = mesh_bandwidth(f3, len(verts))
    assert after < before / 4


def test_reorder_preserves_geometry():
    verts, faces = icosphere(2)
    perm = rcm_ordering(faces, len(verts))
    v2, f2 = reorder_mesh(verts, faces, perm)
    # Same triangles as point sets, same total area/volume.
    from repro.membrane import mesh_area, mesh_volume

    assert np.isclose(mesh_area(v2, f2), mesh_area(verts, faces))
    assert np.isclose(mesh_volume(v2, f2), mesh_volume(verts, faces))


def test_reorder_roundtrip():
    verts, faces = icosphere(1)
    perm = np.random.default_rng(0).permutation(len(verts))
    v2, f2 = reorder_mesh(verts, faces, perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    # Applying the mapping twice with the inverse restores the original.
    v3, f3 = reorder_mesh(v2, f2, inv[np.arange(len(perm))][np.argsort(perm)] if False else np.argsort(perm))
    assert np.allclose(v3, verts)
    assert np.array_equal(np.sort(np.sort(f3, axis=1), axis=0), np.sort(np.sort(faces, axis=1), axis=0))


def test_bandwidth_empty_mesh():
    assert mesh_bandwidth(np.empty((0, 3), dtype=np.int64), 0) == 0


# -- sort-matched half-edges vs the dict-walk oracle -------------------------


def _meshes():
    from repro.membrane.meshgen import biconcave_rbc

    rng = np.random.default_rng(11)
    for sub in (0, 1, 2, 3):
        _, faces = icosphere(sub)
        yield faces
        # Arbitrary vertex labels and face order exercise the twin search.
        scramble = rng.permutation(faces.max() + 1)
        yield scramble[faces][rng.permutation(len(faces))]
        # Rotating each face's corners keeps the orientation.
        yield np.roll(faces, int(rng.integers(1, 3)), axis=1)
    yield biconcave_rbc(7.8e-6, 3)[1]


@pytest.mark.parametrize("faces", list(_meshes()))
def test_bending_pairs_match_dict_oracle(faces):
    got = bending_pairs(faces)
    want = dict_bending_pairs(faces)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "faces",
    [
        np.array([[0, 1, 2]]),  # boundary edge
        np.array([[0, 1, 2], [0, 1, 3]]),  # repeated half-edge
        np.array([[0, 1, 2], [2, 1, 0], [0, 1, 3]]),  # both, repeat first
        icosphere(1)[1][1:],  # closed mesh with one face removed
    ],
)
def test_bending_pairs_errors_match_dict_oracle(faces):
    with pytest.raises(ValueError) as want:
        dict_bending_pairs(faces)
    with pytest.raises(ValueError) as got:
        bending_pairs(faces)
    assert str(got.value) == str(want.value)
