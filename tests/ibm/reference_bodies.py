"""The pre-CSR spreading and interpolation bodies, kept as test oracles.

Until the stencil became a sparse matrix, spreading multiplied the weight
tensor by each force component and ``bincount``-reduced it over the
flattened node indices, and interpolation fancy-index-gathered a
``(3, N, S, S, S)`` block and contracted it with ``einsum``.  Both work
from a stencil's ``idx`` and ``w`` alone, so they check ``Stencil.matrix``
without going through it.
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
