"""Interpolation and spreading between Lagrangian markers and the lattice.

Positions are passed as *fractional lattice coordinates* (node index
units); :class:`IBMCoupler` wraps a :class:`repro.lbm.grid.Grid` and does
the physical-to-lattice conversion plus kernel bookkeeping once per step.

Both operations share one weight tensor per call: for marker m and
neighbor offsets (a, b, c) within the kernel support,

    w[m, a, b, c] = phi(dx_a) phi(dy_b) phi(dz_c)

Interpolation (Eq. 4):  V[m] = sum_abc u[:, i+a, j+b, k+c] w[m, a, b, c]
Spreading (Eq. 6):      g[:, i+a, j+b, k+c] += G[m] w[m, a, b, c]

Within one FSI step, spreading (pre-collision) and interpolation
(post-stream) act on the *same* marker positions, so the weights and
node indices are identical.  :class:`Stencil` packages that shared state
and :meth:`IBMCoupler.begin_step` computes it exactly once per step; the
stepper invalidates it after vertex advection.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..telemetry import get_telemetry
from .kernels import KERNELS, DeltaKernel


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
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    offsets = kernel.offsets()
    base = np.floor(pos).astype(np.int64)  # (N, 3)
    idx = []
    w1d = []
    for d in range(3):
        nodes = base[:, d : d + 1] + offsets[None, :]  # (N, S)
        dist = pos[:, d : d + 1] - nodes
        w1d.append(kernel.phi(dist))
        if mode == "wrap":
            nodes = np.mod(nodes, shape[d])
        elif mode == "clip":
            nodes = np.clip(nodes, 0, shape[d] - 1)
        else:
            raise ValueError(f"unknown boundary mode {mode!r}")
        idx.append(nodes)
    if w_out is not None and w_out.shape == (pos.shape[0],) + (len(offsets),) * 3:
        w = np.einsum("na,nb,nc->nabc", w1d[0], w1d[1], w1d[2], out=w_out)
    else:
        w = np.einsum("na,nb,nc->nabc", w1d[0], w1d[1], w1d[2])
    return idx, w


class Stencil:
    """Precomputed kernel support for one fixed set of marker positions.

    Holds everything both coupling directions need: per-axis node indices,
    the combined weight tensor, and (lazily) the flattened node indices
    the spreading bincount uses.  ``n_clipped`` counts markers whose
    support was clamped onto the boundary in ``mode='clip'``.
    """

    __slots__ = ("idx", "w", "shape", "n_markers", "n_clipped", "_flat")

    def __init__(self, idx, w, shape, n_clipped: int = 0):
        self.idx = idx
        self.w = w
        self.shape = tuple(shape)
        self.n_markers = w.shape[0]
        self.n_clipped = int(n_clipped)
        self._flat = None

    def flat_indices(self) -> np.ndarray:
        """Flattened lattice-node index per (marker, a, b, c) weight."""
        if self._flat is None:
            _, ny, nz = self.shape
            self._flat = (
                self.idx[0][:, :, None, None] * (ny * nz)
                + self.idx[1][:, None, :, None] * nz
                + self.idx[2][:, None, None, :]
            ).reshape(-1)
        return self._flat


def make_stencil(
    positions: np.ndarray,
    shape: tuple[int, int, int],
    kernel: DeltaKernel | str = "cosine4",
    mode: str = "clip",
    w_out: np.ndarray | None = None,
) -> Stencil:
    """Build a :class:`Stencil` for fractional-coordinate ``positions``."""
    if isinstance(kernel, str):
        kernel = KERNELS[kernel]
    idx, w = _weights_and_indices(positions, shape, kernel, mode, w_out=w_out)
    n_clipped = 0
    if mode == "clip":
        pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        base = np.floor(pos).astype(np.int64)
        offsets = kernel.offsets()
        hi = np.asarray(shape, dtype=np.int64) - 1
        clipped = ((base + offsets[0]) < 0).any(axis=1)
        clipped |= ((base + offsets[-1]) > hi).any(axis=1)
        n_clipped = int(np.count_nonzero(clipped))
    return Stencil(idx, w, shape, n_clipped)


def interpolate_with_stencil(field: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Interpolate an Eulerian field at the stencil's markers (Eq. 4)."""
    ia = stencil.idx[0][:, :, None, None]
    ib = stencil.idx[1][:, None, :, None]
    ic = stencil.idx[2][:, None, None, :]
    if field.ndim == 4:
        vals = field[:, ia, ib, ic]  # (3, N, S, S, S)
        return np.einsum("dnabc,nabc->nd", vals, stencil.w)
    vals = field[ia, ib, ic]
    return np.einsum("nabc,nabc->n", vals, stencil.w)


def spread_with_stencil(
    values: np.ndarray,
    stencil: Stencil,
    out_field: np.ndarray,
    contrib_out: np.ndarray | None = None,
) -> None:
    """Spread marker values onto the Eulerian field, in place (Eq. 6)."""
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    flat = stencil.flat_indices()
    shape = stencil.shape
    size = shape[0] * shape[1] * shape[2]
    if contrib_out is not None and contrib_out.shape != stencil.w.shape:
        contrib_out = None
    # bincount is much faster than np.add.at for dense scatters.
    if out_field.ndim == 4:
        for d in range(3):
            contrib = np.multiply(
                stencil.w, vals[:, d][:, None, None, None], out=contrib_out
            )
            out_field[d] += np.bincount(
                flat, weights=contrib.reshape(-1), minlength=size
            ).reshape(shape)
    else:
        contrib = np.multiply(
            stencil.w, vals[:, 0][:, None, None, None], out=contrib_out
        )
        out_field += np.bincount(
            flat, weights=contrib.reshape(-1), minlength=size
        ).reshape(shape)


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
        # Reusable scratch: the (N, S, S, S) weight tensor and the
        # spreading contribution buffer, reallocated only when N changes.
        self._w_buf: np.ndarray | None = None
        self._contrib_buf: np.ndarray | None = None
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
            self._contrib_buf = np.empty_like(self._w_buf)
        stencil = make_stencil(
            frac, self.grid.shape, self.kernel, self.mode, w_out=self._w_buf
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
        stencil, cached = self._stencil_for(positions)
        spread_with_stencil(
            forces_lattice,
            stencil,
            self.grid.force,
            contrib_out=self._contrib_buf if cached else None,
        )
