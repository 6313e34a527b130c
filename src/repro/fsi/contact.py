"""Short-range intercellular contact forces.

Deformable-cell suspensions need a sub-grid repulsion to keep membranes
from interpenetrating where the IBM velocity field cannot resolve the
lubrication layer (standard practice in HARVEY-family FSI codes).  A
linear soft repulsion acts between vertex pairs of *different* cells
closer than a cutoff:

    F(r) = k_c (1 - r/r_c) r_hat      for r < r_c

Pairs are found with a cKDTree over the pooled vertex array (C-speed;
functionally equivalent to the uniform subgrid used for the rarer
overlap-removal events).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

#: Reusable scratch arrays, keyed by role; the vertex count is stable
#: between membership changes, so the per-step hot path reallocates
#: nothing.  Callers fold the returned forces into their own accumulator
#: and never retain the buffer, which makes cross-call reuse safe.
_scratch: dict[str, np.ndarray] = {}


def _scratch_buf(key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    buf = _scratch.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = _scratch[key] = np.empty(shape, dtype=dtype)
    return buf


def contact_scatter(vertices, i, j, cutoff, stiffness, out):
    """Contact pair force compute + equal-and-opposite scatter.

    ``(i, j)`` are the inter-cell vertex pairs already found by the
    KDTree in :func:`contact_forces`; ``out`` is the zeroed (N, 3) force
    accumulator, overwritten per component.
    """
    n = len(vertices)
    d = vertices[i] - vertices[j]
    r = np.linalg.norm(d, axis=1)
    r = np.maximum(r, 1e-12 * cutoff)
    mag = stiffness * (1.0 - r / cutoff)
    fij = (mag / r)[:, None] * d
    # One bincount over the stacked (i, j) index (a dense scatter).
    # Summation order per vertex: +fij contributions in pair order,
    # then -fij.
    m = len(i)
    idx = _scratch_buf("pair_idx", (2 * m,), np.int64)
    idx[:m] = i
    idx[m:] = j
    w = _scratch_buf("pair_w", (2 * m,))
    for axis in range(3):
        w[:m] = fij[:, axis]
        np.negative(fij[:, axis], out=w[m:])
        out[:, axis] = np.bincount(idx, weights=w, minlength=n)


def contact_forces(
    vertices: np.ndarray,
    cell_index: np.ndarray,
    cutoff: float,
    stiffness: float,
) -> np.ndarray:
    """Pairwise repulsive forces between vertices of different cells.

    Parameters
    ----------
    vertices:
        All cell vertices stacked, shape (N, 3) [m].
    cell_index:
        Owning cell ordinal per vertex, shape (N,).
    cutoff:
        Interaction range r_c [m].
    stiffness:
        Peak force k_c at contact [N].

    Returns
    -------
    (N, 3) forces; equal and opposite within each pair (momentum-free).
    """
    n = len(vertices)
    forces = _scratch_buf("forces", (n, 3))
    forces.fill(0.0)
    if n == 0 or cutoff <= 0.0:
        return forces
    tree = cKDTree(vertices)
    pairs = tree.query_pairs(cutoff, output_type="ndarray")
    if len(pairs) == 0:
        return forces
    i, j = pairs[:, 0], pairs[:, 1]
    inter = cell_index[i] != cell_index[j]
    i, j = i[inter], j[inter]
    if len(i) == 0:
        return forces
    contact_scatter(vertices, i, j, cutoff, stiffness, forces)
    return forces
