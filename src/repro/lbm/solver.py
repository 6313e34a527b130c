"""Single-grid LBM solver loop: collide -> stream -> boundary handlers.

:class:`LBMSolver` owns one :class:`~repro.lbm.grid.Grid` and an ordered
list of boundary handlers.  It is the building block both for the coarse
bulk solver and for the fine window solver (which additionally runs the
immersed-boundary fluid-structure interaction; see :mod:`repro.fsi`).
It advances the grid's one copy of the distributions in place: the
collision overwrites ``grid.f`` with the post-collision values and the
stream shifts them within it.

The solver keeps a :class:`~repro.lbm.collision.CollisionScratch` so the
collide-stream loop allocates nothing lattice-sized.  The collide forms
the density and momentum inside its own panel pass, so ``f`` is read
once per step, unless the grid holds current cached moments
(:meth:`~repro.lbm.grid.Grid.current_moments`), which it reuses.  Only
a lattice whose moments have a second reader keeps that cache: cell
advection (:mod:`repro.fsi`) reads the post-stream moments through
:meth:`~repro.lbm.grid.Grid.moments`, and the next collide reuses them,
so one FSI step pays for the 19-population moment sums exactly once.
Code that writes ``grid.f`` outside the solver keeps the cache honest
through the grid (:meth:`~repro.lbm.grid.Grid.write_columns` or
:meth:`~repro.lbm.grid.Grid.mark_f_modified`; all in-repo writers do).

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

    # ------------------------------------------------------------------
    def _collide(self) -> None:
        g = self.grid
        collide_bgk(
            g.f, g.tau, g.force, out=g.f, scratch=self._scratch,
            moments_in=g.current_moments(),
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

        Served from the grid's cached moments when they are current, and
        formed afresh otherwise (no cache is allocated); the returned
        arrays are the caller's to keep.
        """
        g = self.grid
        cached = g.current_moments()
        if cached is None:
            return macroscopic(g.f, g.force)
        rho, mom = cached
        return rho.copy(), velocity_from_moments(rho, mom, g.force)

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
