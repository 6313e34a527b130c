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

* one gather index whose seven parts pull the three corners of every
  face and the four vertices of every bending quadruple out of the
  vertex array;
* one CSR incidence matrix ``(V, 3F + 4E)`` that sums the per-corner
  contributions back onto the vertices;
* one workspace that every intermediate of a block of cells is written
  into (see "Workspace").

Everything in between is elementwise arithmetic on ``(F, B)`` / ``(E, B)``
component planes (``B`` cells on the fast axis), sharing ``d1``, ``d2``,
the normal, the area and the local frame between the three face terms
and the edge vector and face normals between angle and gradient.

Workspace
---------
A group is evaluated in blocks of ``B = BLOCK_PLANE // F`` cells.  The
block's per-corner contributions are laid out component-major,
``(3, 3F + 4E, B)``, so that each ``(F, B)`` / ``(E, B)`` plane is one
contiguous run and the incidence product runs once per component.  The
face pass gathers its corners into scratch planes and writes its three
contributions into the face rows; until the edge pass starts, the edge
rows are scratch for the face pass.  The edge pass gathers its four
vertices straight into the edge rows, forms the edge vectors there in
place and overwrites them with its contributions.  Besides the
contribution block the workspace holds the block's vertices,
``(3, V, B)``, and six ``(E, B)`` scratch planes: 96 kB per cell
of the block for the 162-vertex RBC.  It is sized for the largest block
the operator has evaluated, so a group of ``b < B`` cells holds ``b``
cells' worth.  Every plane of a block of ``b`` cells is the first
``rows * b`` elements of its region, so it is contiguous whatever ``b``
is.

Per-cell results do not depend on the batch they are evaluated in: the
elementwise work has no cross-cell term, the per-cell area and volume
are reduced along a contiguous face axis, and the incidence matrix adds
contributions in a fixed column order.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

#: ``(j, k)`` of cross-product row ``i``: ``(a x b)_i = a_j b_k - a_k b_j``.
_CROSS_ROWS = ((1, 2), (2, 0), (0, 1))

#: Scratch planes of the face pass (``(F, B)``) and of the edge pass
#: (``(E, B)``); the face pass takes the edge rows of the contribution
#: block first.
_FACE_PLANES = 25
_EDGE_PLANES = 6


def _cross_row(a, b, j, k, out, tmp):
    """``out = a_j b_k - a_k b_j``."""
    np.multiply(a[j], b[k], out=out)
    np.multiply(a[k], b[j], out=tmp)
    out -= tmp
    return out


def _cross(a, b, out, tmp):
    """``out = a x b`` per component, ``out`` a sequence of three planes."""
    for i, (j, k) in enumerate(_CROSS_ROWS):
        _cross_row(a, b, j, k, out[i], tmp)
    return out


def _dot(a, b, out, tmp):
    """``out = a_0 b_0 + a_1 b_1 + a_2 b_2``, summed left to right."""
    np.multiply(a[0], b[0], out=out)
    for c in (1, 2):
        np.multiply(a[c], b[c], out=tmp)
        out += tmp
    return out


def _per_cell_sum(plane: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum an ``(F, B)`` plane over faces, in a batch-independent order.

    Reducing the leading axis directly would sum sequentially for B > 1
    but pairwise for B == 1; summing a contiguous ``(B, F)`` copy (made
    in ``scratch``, a plane of the same size) always takes the pairwise
    inner loop.
    """
    rows = scratch.reshape(plane.shape[::-1])
    np.copyto(rows, plane.T)
    return rows.sum(axis=1)


def _planes(chunks, rows: int, cols: int, count: int) -> list[np.ndarray]:
    """The first ``count`` contiguous ``(rows, cols)`` planes carved one
    after the other out of the flat buffers ``chunks``, in order."""
    size = rows * cols
    out = []
    for flat in chunks:
        flat = flat.reshape(-1)
        n = min(count - len(out), flat.size // size)
        out += [flat[i * size:(i + 1) * size].reshape(rows, cols)
                for i in range(n)]
    return out


#: Elements per ``(F, B)`` component plane of one evaluation block.  A
#: group is evaluated in blocks of ``BLOCK_PLANE // F`` cells (32 for the
#: 320-face RBC): one NumPy call then covers many cells, while the
#: workspace stays a few MiB per operator.  The planes do not stay cache
#: resident at this size: a block's contribution block alone is 2.1 MiB
#: for that RBC, the size of one core's L2.
BLOCK_PLANE = 10240


class ForceOperator:
    """Topology-only data and the workspace of :func:`membrane_forces`
    for one reference."""

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
        #: The block workspace (module docstring, "Workspace"): flat
        #: buffers for blocks of up to ``workspace_cells`` cells.
        self.workspace_cells = 0
        self.verts = self.contrib = self.scratch = np.empty(0)

    def reserve(self, cells: int) -> None:
        """Size the workspace for blocks of ``cells`` cells, if smaller.

        Called with the group's block size, so an operator holds what its
        largest block needs — one cell's worth for a lone CTC, not
        :attr:`block_cells` cells'.
        """
        if cells <= self.workspace_cells:
            return
        nv, nf, ne = self.n_vertices, self.n_faces, self.n_edges
        face_spill = _FACE_PLANES - 3 * (4 * ne // nf)
        self.verts = self.contrib = self.scratch = None  # freed first
        self.verts = np.empty(3 * nv * cells)
        self.contrib = np.empty(3 * len(self.gather) * cells)
        self.scratch = np.empty(
            max(_EDGE_PLANES * ne, face_spill * nf) * cells)
        self.workspace_cells = cells

    @property
    def workspace_nbytes(self) -> int:
        """Bytes the workspace holds."""
        return self.verts.nbytes + self.contrib.nbytes + self.scratch.nbytes


def membrane_forces(
    vertices: np.ndarray,
    ref,
    shear_modulus: float,
    skalak_C: float,
    k_bend: float,
    k_area: float,
    k_volume: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Skalak + bending + area/volume nodal forces, shape (..., V, 3) [N].

    Equal to ``skalak_forces + bending_forces + area_volume_forces`` to
    rounding (the per-term functions are the test oracle).  ``out`` is a
    C-contiguous float64 array shaped like ``vertices`` that receives the
    forces instead of a new array.
    """
    v = np.asarray(vertices, dtype=np.float64)
    op = ref.force_operator
    batch = v.reshape(-1, op.n_vertices, 3)
    if out is None:
        out = np.empty(v.shape)
    elif not out.flags.c_contiguous or out.shape != v.shape:
        raise ValueError("out must be C-contiguous and shaped like vertices")
    force = out.reshape(batch.shape)
    op.reserve(min(batch.shape[0], op.block_cells))
    moduli = (shear_modulus, skalak_C, k_bend, k_area, k_volume)
    for lo in range(0, batch.shape[0], op.block_cells):
        hi = lo + op.block_cells
        _block_forces(batch[lo:hi], op, force[lo:hi], *moduli)
    return out


def _block_forces(batch, op, force, shear_modulus, skalak_C, k_bend, k_area,
                  k_volume) -> None:
    """:func:`membrane_forces` of one ``(b, V, 3)`` block of cells, into
    ``force`` of the same shape, through the operator's workspace."""
    nv, nf, ne = op.n_vertices, op.n_faces, op.n_edges
    nb = batch.shape[0]
    rows = len(op.gather)
    verts = op.verts[:3 * nv * nb].reshape(3, nv, nb)
    np.copyto(verts, batch.transpose(2, 1, 0))
    contrib = op.contrib[:3 * rows * nb].reshape(3, rows, nb)

    def gather(lo, n, out):
        """Gathered rows ``lo..lo+n-1`` into the three planes ``out``."""
        index = op.gather[lo:lo + n]
        for c in range(3):
            # mode="clip" (the indices are in range) writes ``out`` directly.
            np.take(verts[c], index, axis=0, out=out[c], mode="clip")
        return out

    def slot(lo, n):
        """Contribution rows ``lo..lo+n-1`` as three (n, b) planes."""
        return [contrib[c, lo:lo + n] for c in range(3)]

    # -- faces: Skalak + global area + volume on shared geometry --------
    c0, c1, c2 = (slot(i * nf, nf) for i in range(3))
    s = _planes([contrib[c, 3 * nf:] for c in range(3)] + [op.scratch],
                nf, nb, _FACE_PLANES)
    t = s[12]
    x0, d1, d2 = gather(0, nf, s[0:3]), s[6:9], s[9:12]
    x1 = gather(nf, nf, s[3:6])
    for c in range(3):
        np.subtract(x1[c], x0[c], out=d1[c])
    x2 = gather(2 * nf, nf, s[3:6])
    for c in range(3):
        np.subtract(x2[c], x0[c], out=d2[c])
    n = _cross(d1, d2, s[0:3], t)
    n_norm = np.sqrt(_dot(n, n, s[3], t), out=s[3])
    l1 = np.sqrt(_dot(d1, d1, s[4], t), out=s[4])
    e1 = s[13:16]
    for c in range(3):
        np.divide(d1[c], l1, out=e1[c])
        np.divide(n[c], n_norm, out=n[c])
    n_hat = n
    e2 = _cross(n_hat, e1, s[16:19], t)
    if k_area != 0.0:
        n_norm *= 0.5
        area = _per_cell_sum(n_norm, s[5])
        half = (-k_area * (area - op.area0) / op.area0) * 0.5

    # Deformation gradient F = Dd @ Dr_inv; both are upper triangular.
    f00 = np.multiply(l1, op.dr_a, out=s[5])
    f01 = _dot(d2, e1, s[19], t)
    f01 *= op.dr_d
    f01 += np.multiply(l1, op.dr_b, out=t)
    f11 = _dot(d2, e2, s[20], t)
    f11 *= op.dr_d
    det_f = np.multiply(f00, f11, out=s[3])
    det_g = np.multiply(det_f, det_f, out=s[4])
    # coef_f = G (i1 + 1) with i1 = f00^2 + (f01^2 + f11^2) - 2.
    coef_f = np.multiply(f01, f01, out=s[21])
    coef_f += np.multiply(f11, f11, out=t)
    np.add(np.multiply(f00, f00, out=t), coef_f, out=coef_f)
    coef_f -= 2.0
    coef_f += 1.0
    coef_f *= shear_modulus
    # coef_inv = G (C i2 - 1) det_g / det_f with i2 = det_g - 1.
    coef_inv = np.subtract(det_g, 1.0, out=s[22])
    coef_inv *= skalak_C
    coef_inv -= 1.0
    coef_inv *= shear_modulus
    coef_inv *= det_g
    coef_inv /= det_f
    # First Piola-Kirchhoff stress P = coef_f F + coef_inv det_f F^{-T}.
    p00 = np.multiply(coef_f, f00, out=s[3])
    p00 += np.multiply(coef_inv, f11, out=t)
    p01 = np.multiply(coef_f, f01, out=s[4])
    p10 = np.negative(np.multiply(coef_inv, f01, out=s[23]), out=s[23])
    p11 = np.multiply(coef_f, f11, out=s[24])
    p11 += np.multiply(coef_inv, f00, out=t)
    # Local nodal forces -A_ref (P @ Dr_inv^T) columns, in place of P.
    neg_area = -op.ref_area
    s1a = p00
    s1a *= op.dr_a
    s1a += np.multiply(p01, op.dr_b, out=t)
    s1a *= neg_area
    s1b = p10
    s1b *= op.dr_a
    s1b += np.multiply(p11, op.dr_b, out=t)
    s1b *= neg_area
    s2a = p01
    s2a *= op.dr_d
    s2a *= neg_area
    s2b = p11
    s2b *= op.dr_d
    s2b *= neg_area
    for c in range(3):
        np.multiply(s1a, e1[c], out=c1[c])
        c1[c] += np.multiply(s1b, e2[c], out=t)
        np.multiply(s2a, e1[c], out=c2[c])
        c2[c] += np.multiply(s2b, e2[c], out=t)
        np.negative(np.add(c1[c], c2[c], out=c0[c]), out=c0[c])

    if k_area != 0.0:
        # dA/dx0 = n_hat x (x2-x1)/2, dA/dx1 = n_hat x (x0-x2)/2, ...
        g1 = _cross(n_hat, d1, s[13:16], t)
        g2 = _cross(n_hat, d2, s[16:19], t)
        for c in range(3):
            c0[c] += np.multiply(np.subtract(g2[c], g1[c], out=t), half, out=t)
            c1[c] -= np.multiply(g2[c], half, out=t)
            c2[c] += np.multiply(g1[c], half, out=t)
    if k_volume != 0.0:
        x0 = gather(0, nf, s[0:3])
        x1 = gather(nf, nf, s[3:6])
        x2 = gather(2 * nf, nf, s[6:9])
        x01 = _cross(x0, x1, s[9:12], t)
        volume = _per_cell_sum(_dot(x01, x2, s[13], t), s[14]) / 6.0
        sixth = (-k_volume * (volume - op.volume0) / op.volume0) / 6.0
        for c, (j, k) in enumerate(_CROSS_ROWS):
            c0[c] += np.multiply(_cross_row(x1, x2, j, k, t, s[13]), sixth,
                                 out=t)
            c1[c] += np.multiply(_cross_row(x2, x0, j, k, t, s[13]), sixth,
                                 out=t)
            c2[c] += np.multiply(x01[c], sixth, out=t)

    # -- edges: dihedral angle and its gradient on shared geometry ------
    q1, q2, q3, q4 = (
        gather(3 * nf + i * ne, ne, slot(3 * nf + i * ne, ne))
        for i in range(4)
    )
    p = _planes([op.scratch], ne, nb, _EDGE_PLANES)
    t = p[0]
    e, a3, a4 = q2, q3, q4  # formed in place
    for c in range(3):
        np.subtract(q2[c], q1[c], out=e[c])
        np.subtract(q3[c], q1[c], out=a3[c])
        np.subtract(q4[c], q1[c], out=a4[c])
    n_a = _cross(e, a3, q1, t)
    l2 = _dot(e, e, p[1], t)
    alpha = _dot(a3, e, p[2], t)
    alpha /= l2
    n_b = _cross(a4, e, a3, t)  # a3 is not read again
    ln = np.sqrt(l2, out=p[3])
    # sin(theta) |nA||nB| = (nA x nB).e / |e| = -(nA.a4) |e|
    y = np.negative(_dot(n_a, a4, p[4], t), out=p[4])
    y *= ln
    theta = np.arctan2(y, _dot(n_a, n_b, p[5], t), out=p[4])
    coeff = theta
    coeff -= op.theta0
    coeff *= -2.0 * k_bend
    coeff *= ln  # the common numerator coeff |e| of s_a and s_b
    s_a = np.divide(coeff, _dot(n_a, n_a, p[3], t), out=p[3])
    s_b = np.divide(coeff, _dot(n_b, n_b, p[5], t), out=p[5])
    beta = _dot(a4, e, p[4], t)
    beta /= l2
    np.negative(s_a, out=s_a)
    np.negative(s_b, out=s_b)
    # g_i = coeff * dtheta/dx_i; g1 follows from translation invariance.
    # Component c of each g_i overwrites what only component c needed:
    # g4 the spent a4, g3 n_b (read by g4 just before), g2 e, g1 n_a.
    g1, g2, g3, g4 = q1, q2, q3, q4
    for c in range(3):
        np.multiply(s_b, n_b[c], out=g4[c])
        np.multiply(s_a, n_a[c], out=g3[c])
        np.multiply(beta, g4[c], out=g2[c])
        g2[c] += np.multiply(alpha, g3[c], out=t)
        np.negative(g2[c], out=g2[c])
        np.add(g2[c], g3[c], out=g1[c])
        g1[c] += g4[c]
        np.negative(g1[c], out=g1[c])

    for c in range(3):
        force[:, :, c] = (op.incidence @ contrib[c]).T
