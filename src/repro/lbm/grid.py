"""Eulerian grid state for one LBM lattice (bulk or window).

A :class:`Grid` owns the distribution functions, the solid mask, the
body-force field and the relaxation time.  Position convention: lattice
node ``(i, j, k)`` sits at physical location ``origin + spacing*(i, j, k)``
in the *global* coordinate frame, which is how the fine window is embedded
in the coarse bulk lattice (Section 2.4.1 of the paper).

It also owns the density/momentum cache of ``f``, which only a lattice
whose moments have a second reader allocates (:meth:`Grid.moments`; cell
advection, see :mod:`repro.fsi`).  Every write to ``f`` keeps the cache
honest in one of two ways: a partial write goes through
:meth:`Grid.write_columns`, which patches a current cache from the
columns it stores; any other write calls :meth:`Grid.mark_f_modified`,
which marks the cache stale, so the next read recomputes it in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..kernels import resolve_dtype
from ..telemetry import get_telemetry
from .lattice import D3Q19
from .collision import equilibrium, patch_moments, put_columns
from .collision import moments as form_moments


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
        #: Monotonic counter bumped whenever ``f`` changes.
        self.f_version = 0
        #: ``(4,) + shape`` :func:`~repro.lbm.collision.moments` of ``f``
        #: (``rho`` in row 0, ``mom`` in rows 1-3), allocated by the first
        #: :meth:`moments` call; equal to a full recompute of ``f`` while
        #: ``_moments_current``.
        self._moments: np.ndarray | None = None
        self._moments_current = False
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

    def mark_f_modified(self) -> None:
        """Record a write to ``f`` that did not go through
        :meth:`write_columns`: the moment cache is stale.

        Any code that writes ``f`` in place (the solver's stream, the
        window fill, checkpoint restore, tests) must call this.
        """
        self.f_version += 1
        self._moments_current = False

    def write_columns(self, nodes: np.ndarray, columns: np.ndarray) -> None:
        """Store the ``(19, G)`` ``columns`` at the flat (C-order) node
        indices ``nodes``: a write to part of ``f`` that keeps the
        moment cache current.

        The columns are rounded to the lattice dtype once, before they
        are stored, and a current moment cache is patched from exactly
        those values (:func:`~repro.lbm.collision.patch_moments`), so it
        stays bitwise a full recompute without a second pass over ``f``.
        """
        columns = columns.astype(self.f.dtype, copy=False)
        put_columns(self.f, nodes, columns)
        self.f_version += 1
        if self._moments_current:
            patch_moments(self._moments, nodes, columns)

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Density and bare momentum ``(rho, mom)`` of the current ``f``.

        The cache itself: read-only for callers, valid until ``f`` next
        changes.  The first call allocates it (counted as
        ``lbm.moment_caches``); a stale one is recomputed in full.
        """
        if self._moments is None:
            self._moments = np.empty((4,) + tuple(self.shape), self.dtype)
            get_telemetry().inc("lbm.moment_caches")
        if not self._moments_current:
            form_moments(self.f, out=self._moments)
            self._moments_current = True
        return self._moments[0], self._moments[1:]

    def current_moments(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached ``(rho, mom)`` when they are current, else ``None``
        (no cache, or ``f`` changed since it was formed)."""
        if not self._moments_current:
            return None
        return self._moments[0], self._moments[1:]

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
