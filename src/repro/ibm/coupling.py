"""Interpolation and spreading between Lagrangian markers and the lattice.

Positions are passed as *fractional lattice coordinates* (node index
units); :class:`~repro.parallel.fsi.ParallelFSIRuntime` does the
physical-to-lattice conversion plus kernel bookkeeping once per step.

Both operations share one weight tensor per call: for marker m and
neighbor offsets (a, b, c) within the kernel support,

    w[m, a, b, c] = phi(dx_a) phi(dy_b) phi(dz_c)

Interpolation (Eq. 4):  V[m] = sum_abc u[:, i+a, j+b, k+c] w[m, a, b, c]
Spreading (Eq. 6):      g[:, i+a, j+b, k+c] += G[m] w[m, a, b, c]

i.e. both are products with one sparse operator S (markers x lattice
nodes) holding the weights: V = S u and g += S^T G, adjoint by
construction.  Within one FSI step, spreading (pre-collision) and
interpolation (post-stream) act on the *same* marker positions, so S is
the same.  :class:`Stencil` builds it as a CSR matrix and the FSI runtime's
``begin_step`` computes it exactly once per step; the stepper
invalidates it after vertex advection.  From one step to the
next the weights all change but few markers change lattice cell, so
:class:`StencilBuilder` carries the node indices across steps and
rewrites only those markers' rows; :func:`make_stencil` is the stateless
entry on the same routines.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .kernels import KERNELS, DeltaKernel

#: Node indices are stored as int32: scipy then wraps the index arrays
#: without the range scan and down-cast copy it applies to int64 input.
INDEX_DTYPE = np.int32


#: Markers per pass of the weight evaluation.  The pass temporaries (the
#: ``(m, 3, S)`` kernel arguments and the ``(m, S*S)`` outer product)
#: then stay cache-sized instead of growing with the population.
WEIGHT_CHUNK = 2048


def _marker_weights(
    positions: np.ndarray,
    kernel: DeltaKernel,
    w_out: np.ndarray | None = None,
):
    """Base cells and combined kernel weights of each marker.

    The one weight evaluation of a stencil build (stateless and
    incremental alike), made :data:`WEIGHT_CHUNK` markers at a time.

    Returns
    -------
    base : (N, 3) int64 base cells ``floor(positions)``
    w : (N, S, S, S) weights ``phi(dx_a) phi(dy_b) phi(dz_c)``, written
        into ``w_out`` when given.  Formed as ``(wa * wb) * wc``: the
        ``(m, S*S)`` outer product of the first two axes, then one pass
        per ``c`` with inner loops of ``S*S`` (length-``S`` inner loops
        over all ``m * S**3`` entries cost twice as much).
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    n, s = pos.shape[0], kernel.support
    base = np.floor(pos).astype(np.int64)
    offsets = kernel.offsets()
    if w_out is None:
        w_out = np.empty((n, s, s, s), dtype=np.float64)
    w = w_out.reshape(n, s * s, s)
    for lo in range(0, n, WEIGHT_CHUNK):
        hi = min(lo + WEIGHT_CHUNK, n)
        nodes = base[lo:hi, :, None] + offsets  # (m, 3, S), unwrapped
        phi = kernel.phi(pos[lo:hi, :, None] - nodes)
        wa, wb, wc = np.moveaxis(phi, 1, 0)
        ab = (wa[:, :, None] * wb[:, None, :]).reshape(hi - lo, s * s)
        for c in range(s):
            np.multiply(ab, wc[:, c, None], out=w[lo:hi, :, c])
    return base, w.reshape(n, s, s, s)


def _edge_rows(base: np.ndarray, kernel: DeltaKernel,
               shape: tuple[int, int, int]) -> np.ndarray:
    """Mask of markers whose kernel support leaves the lattice box.

    A function of the base cell alone.  These are the rows that
    ``mode='clip'`` clamps (and counts) and ``mode='wrap'`` wraps; every
    other row's nodes are ``base + offsets`` as they stand.
    """
    offsets = kernel.offsets()
    hi = np.asarray(shape, dtype=np.int64) - 1 - offsets[-1]
    return ((base < -offsets[0]) | (base > hi)).any(axis=1)


def _axis_nodes(base: np.ndarray, kernel: DeltaKernel,
                shape: tuple[int, int, int], mode: str) -> list[np.ndarray]:
    """Per-axis lattice node indices, three ``(N, S)`` arrays, with the
    boundary rule of ``mode`` applied."""
    idx = []
    for d in range(3):
        nodes = base[:, d : d + 1] + kernel.offsets()[None, :]
        if mode == "wrap":
            nodes = np.mod(nodes, shape[d])
        else:
            nodes = np.clip(nodes, 0, shape[d] - 1)
        idx.append(nodes)
    return idx


def _flat_nodes(base: np.ndarray, edge: np.ndarray, kernel: DeltaKernel,
                shape: tuple[int, int, int], mode: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """Flat (C-order) node index per (marker, a, b, c): ``(N, S**3)``.

    Interior rows are ``base_flat[:, None] + offset_table[None, :]``;
    only the ``edge`` rows go through the per-axis clip/wrap formula.
    """
    _, ny, nz = shape
    off = kernel.offsets()
    table = (
        (off[:, None, None] * ny + off[None, :, None]) * nz
        + off[None, None, :]
    ).reshape(-1).astype(INDEX_DTYPE)
    # Edge rows may wrap around in the cast; they are overwritten below.
    base_flat = ((base[:, 0] * ny + base[:, 1]) * nz + base[:, 2]).astype(
        INDEX_DTYPE
    )
    flat = np.add(base_flat[:, None], table[None, :], out=out)
    rows = np.flatnonzero(edge)
    if len(rows):
        ia, ib, ic = (
            nodes.astype(INDEX_DTYPE)
            for nodes in _axis_nodes(base[rows], kernel, shape, mode)
        )
        ia *= INDEX_DTYPE(ny * nz)
        ib *= INDEX_DTYPE(nz)
        flat[rows] = (
            (ia[:, :, None] + ib[:, None])[:, :, :, None]
            + ic[:, None, None, :]
        ).reshape(len(rows), -1)
    return flat


def _check_mode(mode: str) -> None:
    if mode not in ("clip", "wrap"):
        raise ValueError(f"unknown boundary mode {mode!r}")


class Stencil:
    """Precomputed kernel support for one fixed set of marker positions.

    Holds what both coupling directions need: the per-axis node indices
    ``idx``, the combined weight tensor ``w``, and the IBM operator
    ``matrix`` (markers x lattice nodes, CSR).  Row m of the matrix holds
    marker m's ``support**3`` weights in kernel-offset order, so ``w``
    and the flat node indices *are* its ``data`` and ``indices`` —
    wrapped, not copied or sorted — and ``indptr`` is an arithmetic
    progression.  Interpolation is ``matrix @ u``, spreading is
    ``matrix.T @ F``.  ``n_clipped`` counts markers whose support was
    clamped onto the boundary in ``mode='clip'``.
    """

    __slots__ = ("idx", "w", "shape", "n_markers", "n_clipped", "matrix")

    def __init__(self, idx, w, flat, shape, n_clipped: int = 0):
        self.idx = idx
        self.w = w
        self.shape = tuple(shape)
        self.n_markers = n = w.shape[0]
        self.n_clipped = int(n_clipped)
        n_nodes = shape[0] * shape[1] * shape[2]
        if max(n_nodes, w.size) > np.iinfo(INDEX_DTYPE).max:
            raise ValueError(
                f"{n} markers on a {self.shape} lattice overflow "
                f"{np.dtype(INDEX_DTYPE).name} stencil indices"
            )
        per_row = w.size // n if n else 1
        indptr = np.arange(0, n * per_row + 1, per_row, dtype=INDEX_DTYPE)
        self.matrix = sparse.csr_matrix(
            (w.reshape(-1), flat.reshape(-1), indptr), shape=(n, n_nodes)
        )

    def flat_indices(self) -> np.ndarray:
        """Flattened lattice-node index per (marker, a, b, c) weight."""
        return self.matrix.indices


def _n_clipped(edge: np.ndarray, mode: str) -> int:
    return int(np.count_nonzero(edge)) if mode == "clip" else 0


def make_stencil(
    positions: np.ndarray,
    shape: tuple[int, int, int],
    kernel: DeltaKernel | str = "cosine4",
    mode: str = "clip",
) -> Stencil:
    """Build a :class:`Stencil` for fractional-coordinate ``positions``.

    The stateless entry: everything is derived from ``positions`` alone.
    A marker set stepped through time goes through
    :class:`StencilBuilder`, which produces the same arrays.
    """
    if isinstance(kernel, str):
        kernel = KERNELS[kernel]
    _check_mode(mode)
    base, w = _marker_weights(positions, kernel)
    edge = _edge_rows(base, kernel, shape)
    flat = _flat_nodes(base, edge, kernel, shape, mode)
    return Stencil(_axis_nodes(base, kernel, shape, mode), w, flat, shape,
                   _n_clipped(edge, mode))


class StencilBuilder:
    """Stencil of one marker set as it moves from step to step.

    A marker's flat node indices depend on its base cell ``floor(x)``
    alone, and markers move a small fraction of a lattice spacing per
    step, so the builder keeps the base cells of its last build and
    rewrites only the rows of the caller's persistent ``flat`` buffer
    whose base cell moved.  Weights change with every position and are
    evaluated in full, once per build.  The arrays equal those of
    :func:`make_stencil` at the same positions, entry for entry.

    The caller owns the buffers and must pass the same ``flat`` memory
    on consecutive builds; :meth:`reset` (or a change in the number of
    markers) forgets the carried base cells, after which the next build
    writes every row.
    """

    def __init__(self, shape: tuple[int, int, int],
                 kernel: DeltaKernel | str = "cosine4", mode: str = "clip"):
        _check_mode(mode)
        self.shape = tuple(shape)
        self.kernel = KERNELS[kernel] if isinstance(kernel, str) else kernel
        self.mode = mode
        self._base: np.ndarray | None = None
        #: Rows of ``flat`` the last build rewrote.
        self.rows_reindexed = 0

    def reset(self) -> None:
        """Forget the carried base cells (``flat`` is about to change)."""
        self._base = None

    def build(self, positions: np.ndarray, w: np.ndarray,
              flat: np.ndarray) -> Stencil:
        """Stencil for fractional ``positions``, written into ``w`` /
        ``flat`` (homes of ``N * support**3`` weights / node indices of
        :data:`INDEX_DTYPE`, any shape of that size)."""
        base, w = _marker_weights(positions, self.kernel, w_out=w)
        flat = flat.reshape(len(base), -1)
        edge = _edge_rows(base, self.kernel, self.shape)
        geometry = (self.kernel, self.shape, self.mode)
        prev = self._base
        if prev is None or prev.shape != base.shape:
            _flat_nodes(base, edge, *geometry, out=flat)
            self.rows_reindexed = len(base)
        else:
            rows = np.flatnonzero((base != prev).any(axis=1))
            if len(rows):
                flat[rows] = _flat_nodes(base[rows], edge[rows], *geometry)
            self.rows_reindexed = len(rows)
        self._base = base
        return Stencil(None, w, flat, self.shape,
                       _n_clipped(edge, self.mode))


def interpolate_with_stencil(field: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Interpolate an Eulerian field at the stencil's markers (Eq. 4).

    A vector field goes one component at a time into the columns of the
    ``(N, 3)`` result: each is a sparse mat-vec over the contiguous
    component, where one product with the transposed field would first
    copy it to C order.  Every row sums its terms in the same order
    either way.
    """
    if field.ndim == 4:
        return np.column_stack(
            [stencil.matrix @ component.reshape(-1) for component in field]
        )
    return stencil.matrix @ field.reshape(-1)


def spread_with_stencil(
    values: np.ndarray,
    stencil: Stencil,
    out_field: np.ndarray,
) -> None:
    """Spread marker values onto the Eulerian field, in place (Eq. 6).

    The adjoint of :func:`interpolate_with_stencil` by construction
    (``S.T @ values``).  A vector field is spread one component at a
    time, ``out[c] += S.T @ values[:, c]``, so the only temporary is one
    ``(N,)`` component.  It is the same bits as one ``(N, 3)`` product
    ``S.T @ values`` added back transposed: each node sums the same
    products in the same marker order from zero, then adds once.
    """
    if not out_field.flags.c_contiguous:
        raise ValueError("spreading needs a C-contiguous output field")
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    adjoint = stencil.matrix.T
    if out_field.ndim == 4:
        out = out_field.reshape(out_field.shape[0], -1)
        for c, row in enumerate(out):
            row += adjoint @ vals[:, c]
    else:
        out = out_field.reshape(-1)
        out += adjoint @ vals[:, 0]


def interpolate(
    field: np.ndarray,
    positions: np.ndarray,
    kernel: DeltaKernel | str = "cosine4",
    mode: str = "clip",
) -> np.ndarray:
    """Interpolate an Eulerian field at marker positions (Eq. 4).

    ``field`` is (3, nx, ny, nz) (vector) or (nx, ny, nz) (scalar);
    ``positions`` are fractional lattice coordinates, shape (N, 3).
    """
    shape = field.shape[1:] if field.ndim == 4 else field.shape
    return interpolate_with_stencil(
        field, make_stencil(positions, shape, kernel, mode)
    )


def spread(
    values: np.ndarray,
    positions: np.ndarray,
    out_field: np.ndarray,
    kernel: DeltaKernel | str = "cosine4",
    mode: str = "clip",
) -> None:
    """Spread marker values onto the Eulerian field, in place (Eq. 6)."""
    shape = out_field.shape[1:] if out_field.ndim == 4 else out_field.shape
    spread_with_stencil(values, make_stencil(positions, shape, kernel, mode), out_field)

