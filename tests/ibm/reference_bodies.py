"""The pre-CSR spreading and interpolation bodies, kept as test oracles.

Until the stencil became a sparse matrix, spreading multiplied the weight
tensor by each force component and ``bincount``-reduced it over the
flattened node indices, and interpolation fancy-index-gathered a
``(3, N, S, S, S)`` block and contracted it with ``einsum``.  Both work
from a stencil's ``idx`` and ``w`` alone, so they check ``Stencil.matrix``
without going through it.

The weight evaluation itself is kept in its whole-population form
(``whole_population_weights``) as the oracle of the chunked one.
"""

import numpy as np


def bincount_spread(values, stencil, out_field) -> None:
    """Spread marker values onto ``out_field`` in place (Eq. 6)."""
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    shape = stencil.shape
    _, ny, nz = shape
    flat = (
        stencil.idx[0][:, :, None, None] * (ny * nz)
        + stencil.idx[1][:, None, :, None] * nz
        + stencil.idx[2][:, None, None, :]
    ).reshape(-1)
    size = shape[0] * shape[1] * shape[2]
    components = out_field if out_field.ndim == 4 else out_field[None]
    for d, component in enumerate(components):
        contrib = stencil.w * vals[:, d][:, None, None, None]
        component += np.bincount(
            flat, weights=contrib.reshape(-1), minlength=size
        ).reshape(shape)


def gather_einsum_interpolate(field, stencil) -> np.ndarray:
    """Interpolate ``field`` at the stencil's markers (Eq. 4)."""
    ia = stencil.idx[0][:, :, None, None]
    ib = stencil.idx[1][:, None, :, None]
    ic = stencil.idx[2][:, None, None, :]
    if field.ndim == 4:
        vals = field[:, ia, ib, ic]  # (3, N, S, S, S)
        return np.einsum("dnabc,nabc->nd", vals, stencil.w)
    return np.einsum("nabc,nabc->n", field[ia, ib, ic], stencil.w)


def reference_stencil(positions, shape, kernel, mode):
    """The from-nothing stencil build that preceded the shared builder:
    one three-operand ``einsum`` for the weights and the per-axis
    clip/wrap formula for every marker's node indices.

    Returns ``(w, flat, n_clipped)``: weights ``(N, S, S, S)``, flat node
    indices ``(N, S**3)`` and the count of clamped markers.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    offsets = kernel.offsets()
    base = np.floor(pos).astype(np.int64)
    idx, w1d = [], []
    clipped = np.zeros(pos.shape[0], dtype=bool)
    for d in range(3):
        nodes = base[:, d : d + 1] + offsets[None, :]
        w1d.append(kernel.phi(pos[:, d : d + 1] - nodes))
        if mode == "wrap":
            nodes = np.mod(nodes, shape[d])
        else:
            clipped |= (nodes[:, 0] < 0) | (nodes[:, -1] > shape[d] - 1)
            nodes = np.clip(nodes, 0, shape[d] - 1)
        idx.append(nodes)
    w = np.einsum("na,nb,nc->nabc", *w1d)
    _, ny, nz = shape
    flat = (
        idx[0][:, :, None, None] * (ny * nz)
        + idx[1][:, None, :, None] * nz
        + idx[2][:, None, None, :]
    ).reshape(len(pos), -1)
    return w, flat, int(np.count_nonzero(clipped))


def whole_population_weights(positions, kernel):
    """The weight evaluation before it went in marker chunks: one
    ``(N, 3, S)`` kernel call over every marker, then the ``(N, S*S)``
    outer product times each ``c`` slice.  Returns ``(base, w)`` like ``_marker_weights``."""
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    n, s = pos.shape[0], kernel.support
    base = np.floor(pos).astype(np.int64)
    nodes = base[:, :, None] + kernel.offsets()
    wa, wb, wc = np.moveaxis(kernel.phi(pos[:, :, None] - nodes), 1, 0)
    ab = (wa[:, :, None] * wb[:, None, :]).reshape(n, s * s)
    w = np.empty((n, s * s, s), dtype=np.float64)
    for c in range(s):
        np.multiply(ab, wc[:, c, None], out=w[:, :, c])
    return base, w.reshape(n, s, s, s)
