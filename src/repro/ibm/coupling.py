"""Interpolation and spreading between Lagrangian markers and the lattice.

Positions are passed as *fractional lattice coordinates* (node index
units); :class:`IBMCoupler` wraps a :class:`repro.lbm.grid.Grid` and does
the physical-to-lattice conversion plus kernel bookkeeping once per step.

Both operations share one weight tensor per call: for marker m and
neighbor offsets (a, b, c) within the kernel support,

    w[m, a, b, c] = phi(dx_a) phi(dy_b) phi(dz_c)

Interpolation (Eq. 4):  V[m] = sum_abc u[:, i+a, j+b, k+c] w[m, a, b, c]
Spreading (Eq. 6):      g[:, i+a, j+b, k+c] += G[m] w[m, a, b, c]

i.e. both are products with one sparse operator S (markers x lattice
nodes) holding the weights: V = S u and g += S^T G, adjoint by
construction.  Within one FSI step, spreading (pre-collision) and
interpolation (post-stream) act on the *same* marker positions, so S is
the same.  :class:`Stencil` builds it as a CSR matrix and
:meth:`IBMCoupler.begin_step` computes it exactly once per step; the
stepper invalidates it after vertex advection.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

from ..telemetry import get_telemetry
from .kernels import KERNELS, DeltaKernel

#: Node indices are stored as int32: scipy then wraps the index arrays
#: without the range scan and down-cast copy it applies to int64 input.
INDEX_DTYPE = np.int32


def _weights_and_indices(
    positions: np.ndarray,
    shape: tuple[int, int, int],
    kernel: DeltaKernel,
    mode: str = "clip",
    w_out: np.ndarray | None = None,
):
    """Kernel weights and node indices for each marker.

    Returns
    -------
    idx : list of three (N, S) integer arrays (per axis)
    w : (N, S, S, S) combined weights (written into ``w_out`` when given)
    n_clipped : markers whose support was clamped in ``mode='clip'``
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    offsets = kernel.offsets()
    base = np.floor(pos).astype(np.int64)  # (N, 3)
    idx = []
    w1d = []
    clipped = np.zeros(pos.shape[0], dtype=bool)
    for d in range(3):
        nodes = base[:, d : d + 1] + offsets[None, :]  # (N, S)
        dist = pos[:, d : d + 1] - nodes
        w1d.append(kernel.phi(dist))
        if mode == "wrap":
            nodes = np.mod(nodes, shape[d])
        elif mode == "clip":
            clipped |= (nodes[:, 0] < 0) | (nodes[:, -1] > shape[d] - 1)
            nodes = np.clip(nodes, 0, shape[d] - 1)
        else:
            raise ValueError(f"unknown boundary mode {mode!r}")
        idx.append(nodes)
    if w_out is not None:
        w_out = w_out.reshape((pos.shape[0],) + (len(offsets),) * 3)
    w = np.einsum("na,nb,nc->nabc", w1d[0], w1d[1], w1d[2], out=w_out)
    return idx, w, int(np.count_nonzero(clipped))


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

    def columns(self, lo: int, hi: int) -> sparse.csr_matrix:
        """The sub-matrix of ``matrix`` over lattice nodes ``lo..hi-1``.

        Masking keeps every retained entry in its row, in order, so
        ``columns(lo, hi).T @ F`` accumulates each node's markers in the
        same order as ``matrix.T @ F`` does.
        """
        flat = self.matrix.indices
        mask = (flat >= lo) & (flat < hi)
        indptr = np.zeros(self.n_markers + 1, dtype=INDEX_DTYPE)
        np.cumsum(
            np.count_nonzero(mask.reshape(self.n_markers, -1), axis=1),
            out=indptr[1:],
        )
        return sparse.csr_matrix(
            (self.matrix.data[mask], flat[mask] - INDEX_DTYPE(lo), indptr),
            shape=(self.n_markers, hi - lo),
        )


def make_stencil(
    positions: np.ndarray,
    shape: tuple[int, int, int],
    kernel: DeltaKernel | str = "cosine4",
    mode: str = "clip",
    w_out: np.ndarray | None = None,
    flat_out: np.ndarray | None = None,
) -> Stencil:
    """Build a :class:`Stencil` for fractional-coordinate ``positions``.

    ``w_out`` / ``flat_out`` are optional preallocated homes for the
    ``N * support**3`` weights and node indices (any shape of that size;
    ``flat_out`` of :data:`INDEX_DTYPE`).
    """
    if isinstance(kernel, str):
        kernel = KERNELS[kernel]
    _, ny, nz = shape
    idx, w, n_clipped = _weights_and_indices(
        positions, shape, kernel, mode, w_out=w_out
    )
    if flat_out is None:
        flat_out = np.empty(w.size, dtype=INDEX_DTYPE)
    ia, ib, ic = (nodes.astype(INDEX_DTYPE) for nodes in idx)
    ia *= INDEX_DTYPE(ny * nz)
    ib *= INDEX_DTYPE(nz)
    np.add((ia[:, :, None] + ib[:, None])[:, :, :, None],
           ic[:, None, None, :], out=flat_out.reshape(w.shape))
    return Stencil(idx, w, flat_out, shape, n_clipped)


def interpolate_with_stencil(field: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Interpolate an Eulerian field at the stencil's markers (Eq. 4)."""
    if field.ndim == 4:
        return stencil.matrix @ field.reshape(field.shape[0], -1).T
    return stencil.matrix @ field.reshape(-1)


def spread_with_stencil(
    values: np.ndarray,
    stencil: Stencil,
    out_field: np.ndarray,
    node_range: tuple[int, int] | None = None,
) -> None:
    """Spread marker values onto the Eulerian field, in place (Eq. 6).

    The adjoint of :func:`interpolate_with_stencil` by construction
    (``S.T @ values``).  ``node_range=(lo, hi)`` restricts the scatter to
    flat (C-order) lattice nodes ``lo..hi-1`` and touches no other entry
    of ``out_field``; spreading over any partition of the lattice into
    node ranges is bitwise equal to the unrestricted spread.
    """
    if not out_field.flags.c_contiguous:
        raise ValueError("spreading needs a C-contiguous output field")
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    matrix = stencil.matrix
    lo, hi = (0, matrix.shape[1]) if node_range is None else node_range
    if (lo, hi) != (0, matrix.shape[1]):
        matrix = stencil.columns(lo, hi)
    if out_field.ndim == 4:
        out = out_field.reshape(out_field.shape[0], -1)
        out[:, lo:hi] += (matrix.T @ vals).T
    else:
        out_field.reshape(-1)[lo:hi] += matrix.T @ vals[:, 0]


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


class IBMCoupler:
    """Grid-bound IBM operations in physical units.

    Parameters
    ----------
    grid:
        The fine-window :class:`repro.lbm.grid.Grid` the cells live on.
    kernel:
        Delta kernel name or instance (default: the paper's cosine4).
    mode:
        'clip' for bounded windows, 'wrap' for periodic domains.

    Within one FSI step the stepper calls :meth:`begin_step` with the
    packed vertex array, then both :meth:`spread_forces` and
    :meth:`interpolate_velocity` with the *same array object*; the kernel
    stencil is built once and shared.  After vertex advection the stepper
    calls :meth:`end_step` so stale weights can never be reused.
    """

    def __init__(self, grid, kernel: DeltaKernel | str = "cosine4",
                 mode: str = "clip"):
        self.grid = grid
        self.kernel = KERNELS[kernel] if isinstance(kernel, str) else kernel
        self.mode = mode
        self._stencil: Stencil | None = None
        self._stencil_pos: np.ndarray | None = None
        # Reusable homes of the stencil's weights and node indices,
        # reallocated only when N changes.
        self._w_buf: np.ndarray | None = None
        self._flat_buf: np.ndarray | None = None
        self._warned_clip = False

    def to_fractional(self, positions: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(positions) - self.grid.origin) / self.grid.spacing

    # -- per-step stencil cache ----------------------------------------
    def begin_step(self, positions: np.ndarray) -> Stencil:
        """Build and cache the stencil for physical marker ``positions``.

        Later calls to :meth:`spread_forces` / :meth:`interpolate_velocity`
        that pass the *same array object* reuse the cached stencil instead
        of recomputing weights.  Call :meth:`end_step` once the markers
        move (vertex advection) to invalidate.
        """
        frac = self.to_fractional(positions)
        n, s = frac.shape[0], self.kernel.support
        if self._w_buf is None or self._w_buf.shape[0] != n:
            self._w_buf = np.empty((n, s, s, s), dtype=np.float64)
            self._flat_buf = np.empty(n * s**3, dtype=INDEX_DTYPE)
        stencil = make_stencil(
            frac, self.grid.shape, self.kernel, self.mode,
            w_out=self._w_buf, flat_out=self._flat_buf,
        )
        self._record_clipped(stencil)
        self._stencil = stencil
        self._stencil_pos = positions
        return stencil

    def end_step(self) -> None:
        """Drop the cached stencil (markers are about to move / moved)."""
        self._stencil = None
        self._stencil_pos = None

    def _stencil_for(self, positions: np.ndarray) -> tuple[Stencil, bool]:
        if self._stencil is not None and positions is self._stencil_pos:
            return self._stencil, True
        stencil = make_stencil(
            self.to_fractional(positions), self.grid.shape, self.kernel, self.mode
        )
        self._record_clipped(stencil)
        return stencil, False

    def _record_clipped(self, stencil: Stencil) -> None:
        if self.mode != "clip" or stencil.n_clipped == 0:
            return
        get_telemetry().inc("ibm.clipped_markers", stencil.n_clipped)
        if not self._warned_clip:
            warnings.warn(
                f"{stencil.n_clipped} IBM marker(s) have kernel support "
                "outside the lattice; mode='clip' clamps their weights onto "
                "boundary nodes, which distorts the spread force field near "
                "the window edge (tracked by the 'ibm.clipped_markers' "
                "telemetry counter)",
                RuntimeWarning,
                stacklevel=3,
            )
            self._warned_clip = True

    # -- coupling operations -------------------------------------------
    def interpolate_velocity(self, positions: np.ndarray, u_lattice: np.ndarray) -> np.ndarray:
        """Lattice-units velocity at physical marker positions."""
        stencil, _ = self._stencil_for(positions)
        return interpolate_with_stencil(u_lattice, stencil)

    def spread_forces(self, positions: np.ndarray, forces_lattice: np.ndarray) -> None:
        """Add lattice-units nodal forces into the grid's force field."""
        stencil, _ = self._stencil_for(positions)
        spread_with_stencil(forces_lattice, stencil, self.grid.force)
