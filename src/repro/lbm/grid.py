"""Eulerian grid state for one LBM lattice (bulk or window).

A :class:`Grid` owns the distribution functions, the solid mask, the
body-force field and the relaxation time.  Position convention: lattice
node ``(i, j, k)`` sits at physical location ``origin + spacing*(i, j, k)``
in the *global* coordinate frame, which is how the fine window is embedded
in the coarse bulk lattice (Section 2.4.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..kernels import resolve_dtype
from .lattice import D3Q19
from .collision import equilibrium


@dataclass
class Grid:
    """State of one LBM lattice level.

    Parameters
    ----------
    shape:
        Number of lattice nodes along each axis, ``(nx, ny, nz)``.
    tau:
        BGK relaxation time (lattice units) for this level.
    origin:
        Physical coordinates of node (0, 0, 0) in the global frame [m].
    spacing:
        Physical lattice spacing of this level [m].
    dtype:
        Compute dtype of the Eulerian state (``f``, ``force``):
        ``"float32"`` or ``"float64"``.  ``None`` resolves
        via the ``REPRO_DTYPE`` environment variable, defaulting to
        float64; an explicit argument wins over the environment (see
        :func:`repro.kernels.resolve_dtype`).
        Geometry (``origin``, coordinates) and the Lagrangian membrane
        state stay float64 regardless.
    """

    shape: Tuple[int, int, int]
    tau: float | np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    spacing: float = 1.0
    dtype: object = None

    def __post_init__(self) -> None:
        self.dtype = resolve_dtype(self.dtype)
        nx, ny, nz = self.shape
        if min(self.shape) < 1:
            raise ValueError(f"grid shape must be positive, got {self.shape}")
        if np.min(self.tau) <= 0.5:
            raise ValueError(
                f"tau={self.tau} <= 0.5 gives non-positive viscosity"
            )
        if isinstance(self.tau, np.ndarray) and self.tau.shape != self.shape:
            raise ValueError("tau field must match the grid shape")
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.f = np.empty((D3Q19.Q, nx, ny, nz), dtype=self.dtype)
        self._f_post: np.ndarray | None = None
        self.solid = np.zeros(self.shape, dtype=bool)
        #: Body-force density per node (3, nx, ny, nz), lattice units.
        self.force = np.zeros((3, nx, ny, nz), dtype=self.dtype)
        #: Monotonic counter bumped whenever ``f`` changes; consumers
        #: (the solver's moments cache) key derived state on it.
        self.f_version = 0
        #: ``(nodes, columns)`` of each write since the last whole-lattice
        #: one (at ``_f_whole_version``) that touched only part of ``f``;
        #: see :meth:`f_patches_since`.
        self._f_patches: list[tuple[np.ndarray, np.ndarray | None]] = []
        self._f_whole_version = 0
        self.init_equilibrium()

    # ------------------------------------------------------------------
    def init_equilibrium(
        self,
        rho: float | np.ndarray = 1.0,
        velocity: np.ndarray | None = None,
    ) -> None:
        """Set distributions to the Maxwell-Boltzmann equilibrium.

        ``rho`` is a scalar or an ``(nx, ny, nz)`` field; ``velocity`` is
        ``None`` (rest), one ``(3,)`` vector for every node, or a
        ``(3, nx, ny, nz)`` field.
        """
        if velocity is None and np.ndim(rho) == 0 and rho == 1.0:
            # equilibrium(1, 0) is exactly w: every other term is zero.
            self.f[:] = D3Q19.w[:, None, None, None]
            self.mark_f_modified()
            return
        rho_arr = np.asarray(rho, float)
        u = np.zeros(3) if velocity is None else np.asarray(velocity, float)
        if u.shape == (3,):
            u = u.reshape(3, 1, 1, 1)
        elif u.shape != (3,) + tuple(self.shape):
            raise ValueError(
                f"velocity must have shape (3,) or {(3,) + tuple(self.shape)},"
                f" got {u.shape}"
            )
        u = np.broadcast_to(u, (3,) + tuple(self.shape))
        if self.f.dtype == u.dtype:
            equilibrium(rho_arr, u, out=self.f)
        else:
            # Evaluated in float64 and rounded once, as the narrower
            # lattice has always been initialised.
            self.f[:] = equilibrium(rho_arr, u)
        self.mark_f_modified()

    #: Partial writes remembered between whole-lattice writes; one more
    #: than this without a whole-lattice write in between drops the log
    #: (consumers then recompute in full), which bounds its growth.
    _MAX_F_PATCHES = 8

    def mark_f_modified(
        self, nodes: np.ndarray | None = None, columns: np.ndarray | None = None
    ) -> None:
        """Record a write to ``f`` (invalidates cached moments).

        Any code that writes ``f`` in place (the solver's stream,
        refinement coupling, checkpoint restore, tests) must call this so
        cached macroscopic state is recomputed.  ``nodes`` are the flat
        (C-order) indices of the only nodes the write touched, which lets
        consumers patch instead of recomputing; omitted, the whole lattice
        counts as rewritten.  ``columns``, if given, are the ``(19, G)``
        values just stored at ``nodes`` (in ``f``'s dtype), so a patch
        need not gather them again; they must stay unchanged until the
        writer logs its next write with the same ``nodes`` array.
        """
        if columns is not None and columns.dtype != self.f.dtype:
            raise ValueError(
                f"columns are {columns.dtype}, the lattice is {self.f.dtype}"
            )
        self.f_version += 1
        if nodes is None or len(self._f_patches) >= self._MAX_F_PATCHES:
            self._f_patches = []
            self._f_whole_version = self.f_version
        else:
            self._f_patches.append((nodes, columns))

    def f_patches_since(
        self, version: int | None
    ) -> list[tuple[np.ndarray, np.ndarray | None]] | None:
        """``(nodes, columns)`` of the writes since ``f_version ==
        version``, oldest first, or ``None`` when the whole lattice may
        have changed (see :meth:`mark_f_modified`)."""
        logged = self.f_version - self._f_whole_version
        # One log entry per version since the last whole-lattice write,
        # or ``f_version`` was bumped without going through the log.
        if (version is None or version < self._f_whole_version
                or logged != len(self._f_patches)):
            return None
        return self._f_patches[version - self._f_whole_version:]

    @property
    def f_post(self) -> np.ndarray:
        """A second lattice shaped like ``f``, allocated on first access.

        For out-of-place kernel calls (``stream_pull(f_post, out=f)``)
        only: the solver collides and streams ``f`` in place and never
        touches it.
        """
        if self._f_post is None:
            self._f_post = np.empty_like(self.f)
        return self._f_post

    # ------------------------------------------------------------------
    @property
    def nu(self) -> float | np.ndarray:
        """Lattice kinematic viscosity implied by ``tau`` (scalar or field)."""
        return D3Q19.cs2 * (self.tau - 0.5)

    def tau_at(self, indices: np.ndarray) -> np.ndarray:
        """Relaxation time at integer node indices (N, 3), field or scalar."""
        indices = np.atleast_2d(indices)
        if isinstance(self.tau, np.ndarray):
            return self.tau[indices[:, 0], indices[:, 1], indices[:, 2]]
        return np.full(len(indices), float(self.tau))

    @property
    def n_fluid(self) -> int:
        """Number of fluid (non-solid) nodes."""
        return int((~self.solid).sum())

    def node_positions(self) -> np.ndarray:
        """Physical coordinates of every node, shape (nx, ny, nz, 3)."""
        axes = [
            self.origin[d] + self.spacing * np.arange(self.shape[d])
            for d in range(3)
        ]
        xg, yg, zg = np.meshgrid(*axes, indexing="ij")
        return np.stack([xg, yg, zg], axis=-1)

    def axis_coords(self, d: int) -> np.ndarray:
        """Physical coordinates of nodes along axis ``d``."""
        return self.origin[d] + self.spacing * np.arange(self.shape[d])

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask of which physical ``points`` (N, 3) lie on this grid.

        ``margin`` shrinks the grid's bounding box by a physical distance on
        every face (used to test for the window-proper interior etc.).
        """
        points = np.atleast_2d(points)
        lo = self.origin + margin
        hi = self.origin + self.spacing * (np.array(self.shape) - 1) - margin
        return np.all((points >= lo) & (points <= hi), axis=1)

    def physical_to_index(self, points: np.ndarray) -> np.ndarray:
        """Fractional lattice indices of physical points (N, 3)."""
        points = np.atleast_2d(points)
        return (points - self.origin) / self.spacing
