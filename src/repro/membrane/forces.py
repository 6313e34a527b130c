"""Total membrane force as one geometry pass and one scatter.

:func:`membrane_forces` evaluates Skalak elasticity (Eq. 2), dihedral
bending (Eq. 3 stand-in) and the global area / volume penalties for a
batch of cells sharing one topology.  The per-term functions
(:func:`~repro.membrane.skalak.skalak_forces`,
:func:`~repro.membrane.bending.bending_forces`,
:func:`~repro.membrane.constraints.area_volume_forces`) each gather the
face corners, rebuild normals and areas, and scatter with ``bincount``;
summing them costs three geometry passes and 39 ``bincount`` calls per
group.  Here the topology-dependent part is a :class:`ForceOperator`
built once per :class:`~repro.membrane.reference.ReferenceState`:

* one gather index pulls the three corners of every face and the four
  vertices of every bending quadruple out of the vertex array at once;
* one CSR incidence matrix ``(V, 3F + 4E)`` sums the per-corner
  contributions back onto the vertices.

Everything in between is elementwise arithmetic on ``(F, B)`` / ``(E, B)``
component planes (``B`` cells on the fast axis), sharing ``d1``, ``d2``,
the normal, the area and the local frame between the three face terms
and the edge vector and face normals between angle and gradient.

Per-cell results do not depend on the batch they are evaluated in: the
elementwise work has no cross-cell term, the per-cell area and volume
are reduced along a contiguous face axis, and the incidence matrix adds
contributions in a fixed column order.  The ``processes`` FSI backend
relies on this to shard a group by cell chunks bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _per_cell_sum(plane: np.ndarray) -> np.ndarray:
    """Sum an ``(F, B)`` plane over faces, in a batch-independent order.

    Reducing the leading axis directly would sum sequentially for B > 1
    but pairwise for B == 1; a contiguous ``(B, F)`` copy always takes
    the pairwise inner loop.
    """
    return np.ascontiguousarray(plane.T).sum(axis=1)


#: Elements per ``(F, B)`` component plane of one evaluation block.  The
#: ~100 live planes of a block then stay cache-resident; one 272-cell RBC
#: batch evaluates about twice as fast in 32-cell blocks as in one piece.
BLOCK_PLANE = 10240


class ForceOperator:
    """Topology-only data of :func:`membrane_forces` for one reference."""

    def __init__(self, ref) -> None:
        faces, quads = ref.faces, ref.quads
        self.n_vertices = ref.n_vertices
        self.n_faces = len(faces)
        self.n_edges = len(quads)
        self.block_cells = max(1, BLOCK_PLANE // self.n_faces)
        #: Row k of the gathered / contribution block belongs to vertex
        #: ``gather[k]``: face corners 0, 1, 2 then quad vertices 1..4.
        self.gather = np.concatenate(
            [faces[:, c] for c in range(3)] + [quads[:, c] for c in range(4)]
        ).astype(np.intp)
        k = len(self.gather)
        self.incidence = sparse.csr_matrix(
            (np.ones(k), (self.gather, np.arange(k))),
            shape=(self.n_vertices, k),
        )
        # Reference-frame constants as (F, 1) / (E, 1) columns.
        self.dr_a = ref.Dr_inv[:, 0, 0, None]
        self.dr_b = ref.Dr_inv[:, 0, 1, None]
        self.dr_d = ref.Dr_inv[:, 1, 1, None]
        self.ref_area = ref.ref_face_area[:, None]
        self.theta0 = ref.theta0[:, None]
        self.area0 = ref.area0
        self.volume0 = ref.volume0


def membrane_forces(
    vertices: np.ndarray,
    ref,
    shear_modulus: float,
    skalak_C: float,
    k_bend: float,
    k_area: float,
    k_volume: float,
) -> np.ndarray:
    """Skalak + bending + area/volume nodal forces, shape (..., V, 3) [N].

    Equal to ``skalak_forces + bending_forces + area_volume_forces`` to
    rounding (the per-term functions are the test oracle).
    """
    v = np.asarray(vertices, dtype=np.float64)
    op = ref.force_operator
    batch = v.reshape(-1, op.n_vertices, 3)
    moduli = (shear_modulus, skalak_C, k_bend, k_area, k_volume)
    force = np.empty_like(batch)
    for lo in range(0, batch.shape[0], op.block_cells):
        hi = lo + op.block_cells
        force[lo:hi] = _block_forces(batch[lo:hi], op, *moduli)
    return force.reshape(v.shape)


def _block_forces(batch, op, shear_modulus, skalak_C, k_bend, k_area,
                  k_volume) -> np.ndarray:
    """:func:`membrane_forces` for one ``(B, V, 3)`` block of cells."""
    nv, nf, ne = op.n_vertices, op.n_faces, op.n_edges
    nb = batch.shape[0]

    # (V, 3, B) so one row gather yields every corner, component-major.
    x = np.take(np.ascontiguousarray(batch.transpose(1, 2, 0)), op.gather,
                axis=0)
    out = np.empty_like(x)  # per-corner contributions, same row layout

    def rows(lo, n):
        """Components of gathered rows ``lo..lo+n-1`` as (n, B) planes."""
        return tuple(x[lo:lo + n, c] for c in range(3))

    # -- faces: Skalak + global area + volume on shared geometry --------
    x0, x1, x2 = (rows(i * nf, nf) for i in range(3))
    d1 = _sub(x1, x0)
    d2 = _sub(x2, x0)
    n = _cross(d1, d2)
    n_norm = np.sqrt(_dot(n, n))
    l1 = np.sqrt(_dot(d1, d1))
    e1 = tuple(c / l1 for c in d1)
    n_hat = tuple(c / n_norm for c in n)
    e2 = _cross(n_hat, e1)

    # Deformation gradient F = Dd @ Dr_inv; both are upper triangular.
    f00 = l1 * op.dr_a
    f01 = l1 * op.dr_b + _dot(d2, e1) * op.dr_d
    f11 = _dot(d2, e2) * op.dr_d
    det_f = f00 * f11
    det_g = det_f * det_f
    i1 = f00 * f00 + (f01 * f01 + f11 * f11) - 2.0
    i2 = det_g - 1.0
    coef_f = shear_modulus * (i1 + 1.0)
    coef_inv = shear_modulus * (skalak_C * i2 - 1.0) * det_g / det_f
    # First Piola-Kirchhoff stress P = coef_f F + coef_inv det_f F^{-T}.
    p00 = coef_f * f00 + coef_inv * f11
    p01 = coef_f * f01
    p10 = -(coef_inv * f01)
    p11 = coef_f * f11 + coef_inv * f00
    # Local nodal forces -A_ref (P @ Dr_inv^T) columns.
    s1a = -op.ref_area * (p00 * op.dr_a + p01 * op.dr_b)
    s1b = -op.ref_area * (p10 * op.dr_a + p11 * op.dr_b)
    s2a = -op.ref_area * (p01 * op.dr_d)
    s2b = -op.ref_area * (p11 * op.dr_d)
    c1 = [s1a * e1[c] + s1b * e2[c] for c in range(3)]
    c2 = [s2a * e1[c] + s2b * e2[c] for c in range(3)]
    c0 = [-(c1[c] + c2[c]) for c in range(3)]

    if k_area != 0.0:
        area = _per_cell_sum(0.5 * n_norm)
        half = (-k_area * (area - op.area0) / op.area0) * 0.5
        # dA/dx0 = n_hat x (x2-x1)/2, dA/dx1 = n_hat x (x0-x2)/2, ...
        g1 = _cross(n_hat, d1)
        g2 = _cross(n_hat, d2)
        for c in range(3):
            c0[c] += half * (g2[c] - g1[c])
            c1[c] -= half * g2[c]
            c2[c] += half * g1[c]
    if k_volume != 0.0:
        x01 = _cross(x0, x1)
        volume = _per_cell_sum(_dot(x01, x2)) / 6.0
        sixth = (-k_volume * (volume - op.volume0) / op.volume0) / 6.0
        x12 = _cross(x1, x2)
        x20 = _cross(x2, x0)
        for c in range(3):
            c0[c] += sixth * x12[c]
            c1[c] += sixth * x20[c]
            c2[c] += sixth * x01[c]
    for i, contrib in enumerate((c0, c1, c2)):
        for c in range(3):
            out[i * nf:(i + 1) * nf, c] = contrib[c]

    # -- edges: dihedral angle and its gradient on shared geometry ------
    q1, q2, q3, q4 = (rows(3 * nf + i * ne, ne) for i in range(4))
    e = _sub(q2, q1)
    a3 = _sub(q3, q1)
    a4 = _sub(q4, q1)
    n_a = _cross(e, a3)
    n_b = _cross(a4, e)
    l2 = _dot(e, e)
    ln = np.sqrt(l2)
    # sin(theta) |nA||nB| = (nA x nB).e / |e| = -(nA.a4) |e|
    theta = np.arctan2(-_dot(n_a, a4) * ln, _dot(n_a, n_b))
    coeff = (-2.0 * k_bend) * (theta - op.theta0)
    s_a = coeff * ln / _dot(n_a, n_a)
    s_b = coeff * ln / _dot(n_b, n_b)
    alpha = _dot(a3, e) / l2
    beta = _dot(a4, e) / l2
    lo = 3 * nf
    # g_i = coeff * dtheta/dx_i; g1 follows from translation invariance.
    for c in range(3):
        g3 = -s_a * n_a[c]
        g4 = -s_b * n_b[c]
        g2 = -(alpha * g3 + beta * g4)
        out[lo:lo + ne, c] = -(g2 + g3 + g4)
        out[lo + ne:lo + 2 * ne, c] = g2
        out[lo + 2 * ne:lo + 3 * ne, c] = g3
        out[lo + 3 * ne:lo + 4 * ne, c] = g4

    force = op.incidence @ out.reshape(len(op.gather), 3 * nb)
    return force.reshape(nv, 3, nb).transpose(2, 0, 1)
