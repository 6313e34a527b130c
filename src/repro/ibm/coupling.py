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

From :data:`SPLIT_MARKERS` markers the weight evaluation, the
interpolation and the spread each run as two halves on the lattice
halves' helper thread (:mod:`repro.lbm.halves`): the weights and the
interpolation by marker rows, the spread by force component.  Every
marker row and every node sums the same terms in the same order either
way, so the result is the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from ..lbm import halves
from .kernels import KERNELS, DeltaKernel

#: Node indices are stored as int32: scipy then wraps the index arrays
#: without the range scan and down-cast copy it applies to int64 input.
INDEX_DTYPE = np.int32


#: Markers per pass of the weight evaluation.  The pass temporaries (the
#: ``(m, 3, S)`` kernel arguments and the ``(m, S*S)`` outer product)
#: then stay cache-sized instead of growing with the population.
WEIGHT_CHUNK = 2048

#: Fewest markers a population has before its weight evaluation,
#: interpolation and spread each run as two halves, one on the calling
#: thread and one on the lattice-halves helper (:mod:`repro.lbm.halves`),
#: when the process may use two CPUs.  From the measured inline-vs-split
#: crossover on the 2-CPU reference box (``benchmarks/marker_halves.py``,
#: docs/performance.md §1): every pass gains from about 4,000 markers;
#: the threshold sits at twice that, so the windows of ~4-6k markers
#: stay inline until their own step measurements say otherwise.
SPLIT_MARKERS = 8192

#: The helper half's weight-pass chunk buffer, per ``(support,
#: WEIGHT_CHUNK)``.  Made on the calling thread: a helper that allocated
#: its own would grow a malloc arena of its own.
_helper_scratch: dict[tuple[int, int], np.ndarray] = {}


def _marker_split(n: int, chunk: int = 1) -> int | None:
    """First row of the helper's half of an ``n``-marker pass cut at a
    ``chunk`` boundary, or ``None`` when the pass runs inline: below
    :data:`SPLIT_MARKERS` markers, or in a one-CPU process."""
    if n < SPLIT_MARKERS or halves.lattice_halves() < 2:
        return None
    mid = (-(-n // chunk) + 1) // 2 * chunk
    return mid if mid < n else None


def _weight_rows(pos, cells, offsets, kernel, w, lo, hi, scratch) -> None:
    """Weights of marker rows ``[lo, hi)`` into ``w`` (``(N, S*S, S)``),
    :data:`WEIGHT_CHUNK` rows at a time in ``scratch``, an
    ``(m, 3, S)`` buffer of at least that many rows: the node positions,
    then the kernel arguments, then the kernel values.

    The node positions are ``floor(pos) + offsets`` in float64, exact
    for any lattice index, so the kernel arguments ``pos - nodes`` are
    the bits of subtracting the integer nodes.  The ``wa * wb`` outer
    product is formed in the rows' last ``c`` slot of ``w``, which is
    multiplied by its own ``wc`` after the other slots have read it.
    """
    s = kernel.support
    for a in range(lo, hi, WEIGHT_CHUNK):
        b = min(a + WEIGHT_CHUNK, hi)
        m = b - a
        r = np.add(cells[a:b, :, None], offsets, out=scratch[:m])
        np.subtract(pos[a:b, :, None], r, out=r)
        wa, wb, wc = np.moveaxis(kernel.phi(r, out=r), 1, 0)
        rows = w[a:b]
        ab = rows[:, :, s - 1]
        np.multiply(wa[:, :, None], wb[:, None, :], out=ab.reshape(m, s, s))
        for c in range(s - 1):
            np.multiply(ab, wc[:, c, None], out=rows[:, :, c])
        np.multiply(ab, wc[:, s - 1, None], out=ab)


def _marker_weights(
    positions: np.ndarray,
    kernel: DeltaKernel,
    w_out: np.ndarray | None = None,
):
    """Base cells and combined kernel weights of each marker.

    The one weight evaluation of a stencil build (stateless and
    incremental alike), made :data:`WEIGHT_CHUNK` markers at a time, in
    two halves of whole chunks above :data:`SPLIT_MARKERS` markers.
    Every row's weights are a function of its own position alone, so a
    split gives the inline bits.

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
    cells = np.floor(pos)
    base = cells.astype(np.int64)
    offsets = kernel.offsets().astype(np.float64)
    if w_out is None:
        w_out = np.empty((n, s, s, s), dtype=np.float64)
    w = w_out.reshape(n, s * s, s)
    args = (pos, cells, offsets, kernel, w)
    chunk = (min(n, WEIGHT_CHUNK), 3, s)
    mid = _marker_split(n, WEIGHT_CHUNK)
    if mid is None:
        _weight_rows(*args, 0, n, np.empty(chunk))
    else:
        second = _helper_scratch.get((s, WEIGHT_CHUNK))
        if second is None:
            second = _helper_scratch[s, WEIGHT_CHUNK] = np.empty(
                (WEIGHT_CHUNK, 3, s))
        halves.run_halves(
            lambda: _weight_rows(*args, 0, mid, np.empty(chunk)),
            lambda: _weight_rows(*args, mid, n, second))
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

    A marker's flat node indices and its edge flag (:func:`_edge_rows`)
    depend on its base cell ``floor(x)`` alone, and markers move a small
    fraction of a lattice spacing per step, so the builder keeps the base
    cells and edge flags of its last build and rewrites only the rows of
    the caller's persistent ``flat`` buffer whose base cell moved.  Weights change with every position and are
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
        self._edge: np.ndarray | None = None
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
        geometry = (self.kernel, self.shape, self.mode)
        prev = self._base
        if prev is None or prev.shape != base.shape:
            edge = _edge_rows(base, self.kernel, self.shape)
            _flat_nodes(base, edge, *geometry, out=flat)
            self.rows_reindexed = len(base)
        else:
            # A row's edge flag, like its node indices, follows its base
            # cell: both are carried and rewritten where the cell moved.
            edge = self._edge
            rows = np.flatnonzero((base != prev).any(axis=1))
            if len(rows):
                moved = base[rows]
                edge[rows] = _edge_rows(moved, self.kernel, self.shape)
                flat[rows] = _flat_nodes(moved, edge[rows], *geometry)
            self.rows_reindexed = len(rows)
        self._base, self._edge = base, edge
        return Stencil(None, w, flat, self.shape,
                       _n_clipped(edge, self.mode))

    def outside_rows(self) -> np.ndarray:
        """Rows of the last build whose base cell lies outside the
        lattice box (some of its edge rows)."""
        rows = np.flatnonzero(self._edge)
        cells = self._base[rows]
        hi = np.asarray(self.shape, dtype=np.int64) - 1
        return rows[((cells < 0) | (cells > hi)).any(axis=1)]


def _rows_matvec(matrix, x: np.ndarray, y: np.ndarray, lo: int,
                 hi: int) -> None:
    """``y[lo:hi] += matrix[lo:hi] @ x`` in scipy's CSR kernel, in place.

    Each row sums its products onto its entry of ``y`` in stored order,
    so from a zero ``y`` these are the bits of ``matrix @ x``.  The
    kernel reads the rows' range of the shared ``indices`` / ``data``
    and writes ``y`` itself: no row slice is copied and no result is
    allocated, given contiguous float64 ``x`` and ``y``.
    """
    _sparsetools.csr_matvec(hi - lo, matrix.shape[1],
                            matrix.indptr[lo:hi + 1], matrix.indices,
                            matrix.data, x, y[lo:hi])


def _adjoint_matvec(matrix, x: np.ndarray, y: np.ndarray) -> None:
    """``y += matrix.T @ x`` in scipy's CSC kernel, in place.

    ``matrix.T`` is the CSC matrix on the same arrays; each entry of
    ``y`` accumulates its products in row (marker) order, so from a zero
    ``y`` these are the bits of ``matrix.T @ x``.  Contiguous float64
    ``x`` and ``y`` are neither copied nor allocated.
    """
    _sparsetools.csc_matvec(matrix.shape[1], matrix.shape[0],
                            matrix.indptr, matrix.indices, matrix.data,
                            x, y)


def interpolate_with_stencil(field: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Interpolate an Eulerian field at the stencil's markers (Eq. 4).

    A vector field goes one contiguous component at a time: each is a
    sparse mat-vec into its own row of a ``(3, N)`` result, returned
    transposed to ``(N, 3)`` C order.  From :data:`SPLIT_MARKERS`
    markers the rows are cut in two halves (:mod:`repro.lbm.halves`);
    a row's sum is the same either way.
    """
    n = stencil.n_markers
    comps = field.reshape(field.shape[0] if field.ndim == 4 else 1, -1)
    out = np.zeros((len(comps), n))
    matrix = stencil.matrix
    if comps.dtype != np.float64:
        for x, y in zip(comps, out):
            _rows_matvec(matrix, x.astype(np.float64), y, 0, n)
    else:
        def rows(lo: int, hi: int) -> None:
            for x, y in zip(comps, out):
                _rows_matvec(matrix, x, y, lo, hi)

        mid = _marker_split(n)
        if mid is None:
            rows(0, n)
        else:
            halves.run_halves(lambda: rows(0, mid), lambda: rows(mid, n))
    return np.ascontiguousarray(out.T) if field.ndim == 4 else out[0]


def spread_with_stencil(
    values: np.ndarray,
    stencil: Stencil,
    out_field: np.ndarray,
    base: np.ndarray | None = None,
) -> None:
    """Spread marker values onto the Eulerian field, in place (Eq. 6).

    The adjoint of :func:`interpolate_with_stencil` by construction
    (``S.T @ values``), one force component at a time: each node sums
    its products in marker order from zero, then meets the field once.

    * Without ``base`` the sum is added onto ``out_field``.
    * With ``base`` (one value per component) ``out_field`` becomes
      ``base[c] + S.T @ values[:, c]``, whatever it held: each component
      is zeroed, accumulates the sum in place and then adds ``base[c]``.
      IEEE addition commutes, so this is the bits of adding the sum onto
      a field that holds ``base``, with no lattice-sized temporary.  From
      :data:`SPLIT_MARKERS` markers component 1 is spread on the
      lattice-halves helper beside components 0 and 2 (a float64 field).
    """
    if not out_field.flags.c_contiguous:
        raise ValueError("spreading needs a C-contiguous output field")
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    # One contiguous vector per component: a view of column-major values.
    cols = np.ascontiguousarray(vals.T)
    out = out_field.reshape(out_field.shape[0] if out_field.ndim == 4 else 1,
                            -1)
    matrix = stencil.matrix
    if base is None or out.dtype != np.float64:
        for c, row in enumerate(out):
            if base is not None:
                row[...] = base[c]
            row += matrix.T @ cols[c]
        return

    def component(c: int) -> None:
        row = out[c]
        row.fill(0.0)
        _adjoint_matvec(matrix, cols[c], row)
        # A sum from +0.0 is never -0.0, so adding a zero is the identity.
        if base[c] != 0.0:
            row += base[c]

    if len(out) == 3 and _marker_split(stencil.n_markers) is not None:
        halves.run_halves(lambda: (component(0), component(2)),
                          lambda: component(1))
    else:
        for c in range(len(out)):
            component(c)


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

