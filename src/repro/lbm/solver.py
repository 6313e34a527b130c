"""Single-grid LBM solver loop: collide -> stream -> boundary handlers.

:class:`LBMSolver` owns one :class:`~repro.lbm.grid.Grid` and an ordered
list of boundary handlers.  It is the building block both for the coarse
bulk solver and for the fine window solver (which additionally runs the
immersed-boundary fluid-structure interaction; see :mod:`repro.fsi`).
It advances the grid's one copy of the distributions in place: the
collision overwrites ``grid.f`` with the post-collision values and the
stream shifts them within it.

The solver keeps a :class:`~repro.lbm.collision.CollisionScratch` so the
collide-stream loop allocates nothing lattice-sized.  Without a cache
the collide forms the density and momentum inside its own panel pass,
so ``f`` is read once per step.  A cache of those moments, keyed on
``grid.f_version``, exists only where a second reader exists: cell
advection (:mod:`repro.fsi`) takes the post-stream moments through
:meth:`LBMSolver.cached_moments`, which allocates the cache on its first
call (the FSI stepper makes that call before its first spread), and the
next collision reuses them, so one FSI step pays for the 19-population
moment sums exactly once.  A lattice without cells never allocates it
(32 B per float64 node).  Code that writes ``grid.f``
outside the solver must call :meth:`~repro.lbm.grid.Grid.mark_f_modified`
(all in-repo writers do); a writer that names the nodes it touched (the
refinement ghost shell) costs a patch of those columns instead of a
second full pass, and one that also hands over the columns it stored
saves the patch their gather.

On a lattice of ``halves.SPLIT_PANELS`` panels or more, the collide, the
moment GEMM and the stream each run as two halves on two CPUs
(:mod:`repro.lbm.halves`), inside the kernels; the step is the same bits
either way.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..telemetry import get_telemetry
from .collision import (
    CollisionScratch,
    collide_bgk,
    density,
    macroscopic,
    moments,
    patch_moments,
    velocity_from_moments,
)
from .grid import Grid
from .streaming import stream_pull


class BoundaryHandler(Protocol):
    """Anything with ``apply(f)``, called on the streamed lattice.

    A handler that needs post-collision values, which the in-place
    stream overwrites, also defines ``before_stream(f)``: the solver
    calls it on the post-collision lattice, before any handler's
    ``apply`` (see :class:`~repro.lbm.boundaries.BounceBackWalls`).
    """

    def apply(self, f: np.ndarray) -> None: ...


class LBMSolver:
    """Collide-stream driver for one lattice level.

    Parameters
    ----------
    grid:
        The lattice state to evolve.
    boundaries:
        Handlers applied in order after each streaming step.
    """

    def __init__(
        self,
        grid: Grid,
        boundaries: Sequence[BoundaryHandler] = (),
    ) -> None:
        self.grid = grid
        self.boundaries = list(boundaries)
        self.step_count = 0
        self._scratch = CollisionScratch(grid.shape, dtype=grid.dtype)
        #: ``grid.f_version`` the cached (rho, mom) moments belong to.
        self._moments_version: int | None = None

    # ------------------------------------------------------------------
    def cached_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached density/momentum moments of the current ``grid.f``.

        The solver's own buffers: read-only for callers, valid until
        ``grid.f`` next changes.  The first call allocates the cache
        (counted as ``lbm.moment_caches``); from then on the collide
        reuses it whenever it is current or patchable.
        """
        g = self.grid
        sc = self._scratch
        if sc.moments is None:
            sc.moments = np.empty((4,) + tuple(g.shape), dtype=g.dtype)
            get_telemetry().inc("lbm.moment_caches")
        rho, mom = sc.moments[0], sc.moments[1:]
        if self._moments_version != g.f_version:
            patches = g.f_patches_since(self._moments_version)
            if patches is None:
                moments(g.f, out=sc.moments)
            else:
                # A node set written again later is patched once, from
                # its latest columns.
                last = {id(nodes): k for k, (nodes, _) in enumerate(patches)}
                for k, (nodes, columns) in enumerate(patches):
                    if last[id(nodes)] == k:
                        patch_moments(g.f, nodes, rho, mom, columns)
            self._moments_version = g.f_version
        return rho, mom

    def _cache_usable(self) -> bool:
        """Whether the cache exists and is current or can be patched so."""
        g = self.grid
        return self._scratch.moments is not None and (
            self._moments_version == g.f_version
            or g.f_patches_since(self._moments_version) is not None
        )

    def invalidate_macroscopic(self) -> None:
        """Drop the cached moments (after an untracked ``grid.f`` write)."""
        self._moments_version = None

    def _collide(self) -> None:
        g = self.grid
        collide_bgk(
            g.f, g.tau, g.force, out=g.f, scratch=self._scratch,
            moments_in=self.cached_moments() if self._cache_usable() else None,
        )

    def step(self, n: int = 1) -> None:
        """Advance the lattice by ``n`` time steps."""
        g = self.grid
        tel = get_telemetry()
        for _ in range(n):
            with tel.phase("kernels/collide_bgk"):
                self._collide()
            for bc in self.boundaries:
                before_stream = getattr(bc, "before_stream", None)
                if before_stream is not None:
                    before_stream(g.f)
            with tel.phase("kernels/stream_pull"):
                stream_pull(g.f, out=g.f)
            for bc in self.boundaries:
                bc.apply(g.f)
            g.mark_f_modified()
            self.step_count += 1

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Current density and velocity (with half-force correction).

        Served from the cached moments when they are usable, and formed
        afresh otherwise (no cache is allocated); the returned arrays are
        the caller's to keep.
        """
        if not self._cache_usable():
            return macroscopic(self.grid.f, self.grid.force)
        rho, mom = self.cached_moments()
        return rho.copy(), velocity_from_moments(rho, mom, self.grid.force)

    def velocity(self) -> np.ndarray:
        """Current velocity field only (cheaper than :meth:`macroscopic`)."""
        if not self._cache_usable():
            return macroscopic(self.grid.f, self.grid.force)[1]
        rho, mom = self.cached_moments()
        return velocity_from_moments(rho, mom, self.grid.force)

    def momentum(self) -> np.ndarray:
        """Total fluid momentum over non-solid nodes (diagnostics)."""
        rho, u = self.macroscopic()
        weights = np.where(self.grid.solid, 0.0, rho)
        return np.tensordot(u, weights, axes=([1, 2, 3], [0, 1, 2]))

    def mass(self) -> float:
        """Total fluid mass over non-solid nodes (diagnostics).

        From the density alone (:func:`~repro.lbm.collision.density`): no
        moment rows, no velocity, no cache.
        """
        return float(density(self.grid.f)[~self.grid.solid].sum())
