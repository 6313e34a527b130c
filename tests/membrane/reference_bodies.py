"""Bodies the membrane code replaced, kept as test oracles.

``dict_bending_pairs``: until the half-edge twins were matched with one
sort, ``bending_pairs`` walked the faces into a ``{(u, v): face}`` dict
and, per edge, looked up the twin and picked each face's third corner
with ``np.isin``.  It works from the face array alone, so it checks
:func:`repro.membrane.topology.bending_pairs` without going through it.

``row_major_block_forces``: the membrane force block before the
component-major workspace (see its section below).
"""

import numpy as np


def dict_bending_pairs(faces):
    """Interior-edge quadruples (v1, v2, v3, v4), one per edge."""
    faces = np.asarray(faces, dtype=np.int64)
    half_edges: dict[tuple[int, int], int] = {}
    for f_idx, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in half_edges:
                raise ValueError("non-manifold or inconsistently oriented mesh")
            half_edges[(u, v)] = f_idx

    quads = []
    seen = set()
    for (u, v), f_idx in half_edges.items():
        if (v, u) in seen or (u, v) in seen:
            continue
        twin = half_edges.get((v, u))
        if twin is None:
            raise ValueError(f"boundary edge {(u, v)}: cell meshes must be closed")
        tri_a = faces[f_idx]
        tri_b = faces[twin]
        w_a = int(tri_a[~np.isin(tri_a, (u, v))][0])
        w_b = int(tri_b[~np.isin(tri_b, (u, v))][0])
        quads.append((u, v, w_a, w_b))
        seen.add((u, v))
    return np.array(quads, dtype=np.int64)


# -- row-major membrane force block ------------------------------------------
#
# Until the force pass moved into a component-major workspace,
# ``membrane_forces`` evaluated each block of cells with the body below:
# corners gathered row-major as ``(rows, 3, B)`` (so every component
# plane was a strided view), every intermediate a fresh array, and one
# incidence product over ``(rows, 3 B)``.  It reads only the operator's
# gather index, incidence matrix and reference-frame columns, so it
# checks the workspace pass bit for bit without going through it.


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


def row_major_block_forces(batch, op, shear_modulus, skalak_C, k_bend, k_area,
                  k_volume) -> np.ndarray:
    """``membrane_forces`` of one ``(B, V, 3)`` block of at most
    ``op.block_cells`` cells, row-major: returns ``(B, V, 3)``."""
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
