"""Mesh topology utilities: edges, adjacency, Euler checks, RCM reordering.

The reverse Cuthill-McKee reordering implements the paper's FEM vertex
locality optimization (Section 2.4.5, "Vertex Re-ordering for FEM
Calculations"): each element gathers data from its surrounding vertices,
so clustering connected vertices in memory improves access locality.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix


def unique_edges(faces: np.ndarray) -> np.ndarray:
    """Sorted unique undirected edges of a triangle mesh, shape (E, 2)."""
    faces = np.asarray(faces, dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e = np.sort(e, axis=1)
    return np.unique(e, axis=0)


def bending_pairs(faces: np.ndarray) -> np.ndarray:
    """Interior-edge quadruples (v1, v2, v3, v4) for dihedral bending.

    For each edge (v1, v2) shared by exactly two triangles, v3 and v4 are
    the opposite vertices of the two incident faces.  v3 belongs to the
    face in which the edge appears with orientation v1 -> v2, making the
    dihedral angle sign convention deterministic.

    Raises on non-manifold meshes (an edge in more than two faces) and on
    boundary edges (closed cell surfaces have none).
    """
    faces = np.asarray(faces, dtype=np.int64)
    # Half-edge h = 3f + k runs u[h] -> v[h]; w[h] is the face's third corner.
    u = faces.reshape(-1)
    v = np.roll(faces, -1, axis=1).reshape(-1)
    w = np.roll(faces, -2, axis=1).reshape(-1)
    n = int(u.max(initial=-1)) + 1
    key, twin_key = u * n + v, v * n + u
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("non-manifold or inconsistently oriented mesh")
    pos = np.minimum(np.searchsorted(sorted_keys, twin_key), len(u) - 1)
    has_twin = sorted_keys[pos] == twin_key
    if not has_twin.all():
        h = int(np.argmin(has_twin))
        raise ValueError(
            f"boundary edge {(u[h], v[h])}: cell meshes must be closed"
        )
    twin = order[pos]
    # One quad per edge, from whichever half-edge comes first.
    first = np.arange(len(u)) < twin
    return np.stack([u[first], v[first], w[first], w[twin[first]]], axis=1)


def euler_characteristic(n_vertices: int, faces: np.ndarray) -> int:
    """V - E + F; equals 2 for a closed genus-0 surface."""
    return n_vertices - len(unique_edges(faces)) + len(faces)


def vertex_adjacency_matrix(faces: np.ndarray, n_vertices: int):
    """Sparse symmetric vertex adjacency (CSR) from triangle connectivity."""
    edges = unique_edges(faces)
    i = np.concatenate([edges[:, 0], edges[:, 1]])
    j = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(len(i), dtype=np.int8)
    return coo_matrix((data, (i, j)), shape=(n_vertices, n_vertices)).tocsr()


def rcm_ordering(faces: np.ndarray, n_vertices: int) -> np.ndarray:
    """Reverse Cuthill-McKee permutation of the mesh vertices.

    Returns ``perm`` such that new vertex ``k`` is old vertex ``perm[k]``.
    """
    # Imported here: csgraph loads scipy.linalg and scipy.special, which
    # no stepping process otherwise needs.
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    adj = vertex_adjacency_matrix(faces, n_vertices)
    return np.asarray(reverse_cuthill_mckee(adj, symmetric_mode=True))


def reorder_mesh(
    vertices: np.ndarray, faces: np.ndarray, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a vertex permutation to a mesh.

    ``perm[k]`` is the old index of new vertex ``k`` (the convention
    returned by :func:`rcm_ordering`).
    """
    vertices = np.asarray(vertices)
    faces = np.asarray(faces, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    return vertices[perm], inverse[faces]


def mesh_bandwidth(faces: np.ndarray, n_vertices: int) -> int:
    """Maximum index distance across any mesh edge (locality metric)."""
    edges = unique_edges(faces)
    if len(edges) == 0:
        return 0
    return int(np.abs(edges[:, 0] - edges[:, 1]).max())
