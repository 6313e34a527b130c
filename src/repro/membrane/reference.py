"""Precomputed reference (unstressed) state for a cell mesh.

The Skalak law measures deformation relative to the unstressed shape, and
the bending model remembers the unstressed dihedral angles (shape memory of
the biconcave discocyte).  A :class:`ReferenceState` bundles everything the
force kernels need, computed once per cell *type* and shared by every cell
instance of that type — the paper's cells likewise share one reference mesh.

Per-face in-plane reference data uses a local orthonormal frame
(e1 along the first edge, e2 perpendicular in the face plane), where the
edge matrix is upper triangular with positive diagonal; its inverse is
stored for the deformation-gradient computation in
:mod:`repro.membrane.skalak`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .topology import bending_pairs, unique_edges
from .constraints import mesh_area, mesh_volume


def local_frame_edges(vertices: np.ndarray, faces: np.ndarray):
    """Per-face local 2x2 edge matrices and frame vectors.

    Parameters
    ----------
    vertices:
        (..., V, 3) vertex positions (leading batch axes allowed).
    faces:
        (F, 3) triangle connectivity.

    Returns
    -------
    D : (..., F, 2, 2) upper-triangular local edge matrices
    e1, e2 : (..., F, 3) in-plane orthonormal frame vectors
    area : (..., F) triangle areas
    """
    v = np.asarray(vertices, dtype=np.float64)
    x0 = v[..., faces[:, 0], :]
    x1 = v[..., faces[:, 1], :]
    x2 = v[..., faces[:, 2], :]
    d1 = x1 - x0
    d2 = x2 - x0
    n = np.cross(d1, d2)
    n_norm = np.linalg.norm(n, axis=-1)
    area = 0.5 * n_norm
    l1 = np.linalg.norm(d1, axis=-1)
    e1 = d1 / l1[..., None]
    n_hat = n / n_norm[..., None]
    e2 = np.cross(n_hat, e1)
    D = np.zeros(v.shape[:-2] + (len(faces), 2, 2))
    D[..., 0, 0] = l1
    D[..., 0, 1] = np.einsum("...a,...a->...", d2, e1)
    D[..., 1, 1] = np.einsum("...a,...a->...", d2, e2)
    return D, e1, e2, area


def invert_upper_2x2(D: np.ndarray) -> np.ndarray:
    """Inverse of stacked upper-triangular 2x2 matrices."""
    a = D[..., 0, 0]
    b = D[..., 0, 1]
    d = D[..., 1, 1]
    inv = np.zeros_like(D)
    inv[..., 0, 0] = 1.0 / a
    inv[..., 0, 1] = -b / (a * d)
    inv[..., 1, 1] = 1.0 / d
    return inv


@dataclass(frozen=True)
class ReferenceState:
    """Unstressed-shape data shared by all cells of one type."""

    vertices: np.ndarray  # (V, 3) reference positions (centroid at origin)
    faces: np.ndarray  # (F, 3)
    edges: np.ndarray  # (E, 2)
    quads: np.ndarray  # (E, 4) bending quadruples (v1, v2, v3, v4)
    Dr_inv: np.ndarray  # (F, 2, 2) inverse reference local edge matrices
    ref_face_area: np.ndarray  # (F,)
    theta0: np.ndarray  # (E,) spontaneous dihedral angles
    area0: float  # total reference surface area
    volume0: float  # reference enclosed volume

    @classmethod
    def from_mesh(cls, vertices: np.ndarray, faces: np.ndarray) -> "ReferenceState":
        from .bending import dihedral_angles  # local import avoids a cycle

        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        centroid = vertices.mean(axis=0)
        verts = vertices - centroid
        D, _, _, area = local_frame_edges(verts, faces)
        quads = bending_pairs(faces)
        theta0 = dihedral_angles(verts, quads)
        ref = cls(
            vertices=verts,
            faces=faces,
            edges=unique_edges(faces),
            quads=quads,
            Dr_inv=invert_upper_2x2(D),
            ref_face_area=area,
            theta0=theta0,
            area0=float(mesh_area(verts, faces)),
            volume0=float(mesh_volume(verts, faces)),
        )
        for arr in (ref.vertices, ref.faces, ref.edges, ref.quads,
                    ref.Dr_inv, ref.ref_face_area, ref.theta0):
            arr.setflags(write=False)
        return ref

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def force_operator(self):
        """Gather index + incidence matrix of the fused force function,
        built on first use (see :mod:`repro.membrane.forces`)."""
        from .forces import ForceOperator  # local import avoids a cycle

        return ForceOperator(self)

    @property
    def n_faces(self) -> int:
        return len(self.faces)
