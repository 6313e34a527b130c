"""Fine/coarse lattice coupling operators (Section 2.4.1 of the paper).

The fine window is embedded in the coarse bulk lattice with its origin on
a coarse node and an integer spacing ratio ``n`` (acoustic scaling: the
fine grid takes ``n`` sub-steps per coarse step, and lattice velocities
are continuous across the interface).

Each coupled coarse step performs:

1. save the coarse macroscopic + non-equilibrium state (time t),
2. advance the coarse lattice one step (time t+1),
3. for each of the ``n`` fine sub-steps, impose the fine boundary shell
   from the coarse state interpolated trilinearly in space and linearly
   in time, with the non-equilibrium part rescaled by tau_f / (n tau_c)
   (which carries the viscosity contrast through Eq. 7), then advance the
   fine lattice (including its FSI, when cells are present),
4. restrict the fine solution back onto interior coarse nodes (rescale
   f^neq by the inverse factor), closing the two-way coupling.

This is the Dupuis-Chopard refinement scheme extended with the paper's
multi-viscosity tau relation; stress continuity across the interface is
maintained because the rescaled non-equilibrium populations encode the
deviatoric stress on either side.

Windows may span the full domain along periodic axes (``periodic_axes``),
which the three-layer Couette verification of Section 3.1 uses: the
window covers all of the middle viscosity layer, with ghost coupling only
on its +/-y faces.

The trilinear weights of step 3 depend only on where the window sits, so
they are built once per placement as a sparse operator
(:func:`interpolation_operator`) over the coarse nodes the shell actually
reads.  Spatial interpolation and the time blend are both linear and
commute: the coarse state is interpolated onto the shell twice per coarse
step (before and after the coarse advance) and every sub-step only blends
those two shell-sized arrays.  Nothing per sub-step scales with the
coarse lattice.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..ibm.coupling import interpolate, make_stencil
from ..lbm.collision import equilibrium, macroscopic
from ..lbm.grid import Grid
from ..telemetry import get_telemetry
from .viscosity import (
    stress_match_scale_to_coarse,
    stress_match_scale_to_fine,
)


def trilinear(
    field: np.ndarray, frac_coords: np.ndarray, mode: str = "clip"
) -> np.ndarray:
    """Trilinear interpolation of a (C, nx, ny, nz) or (nx, ny, nz) field.

    ``frac_coords`` are fractional lattice indices, shape (N, 3); returns
    (N, C) or (N,).  Reuses the 2-point IBM kernel machinery.
    """
    return interpolate(field, frac_coords, kernel="linear2", mode=mode)


def interpolation_operator(
    frac_coords: np.ndarray, coarse_shape: tuple[int, int, int], mode: str = "clip"
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """:func:`trilinear` at fixed points as a sparse matrix ``(W, src)``.

    ``src`` holds the sorted flat (C-order) indices of the coarse nodes
    the points read, and ``W`` is CSR of shape ``(N, len(src))`` with at
    most 8 entries per row (zero weights dropped, so a point coincident
    with a coarse node reads that node alone).  For any field ``phi`` of
    shape ``coarse_shape``, ``W @ phi.reshape(-1)[src]`` equals
    ``trilinear(phi, frac_coords, mode)`` to rounding.
    """
    stencil = make_stencil(frac_coords, coarse_shape, "linear2", mode)
    weights = stencil.w.reshape(-1)
    keep = np.flatnonzero(weights)
    nodes = stencil.flat_indices()[keep]
    # Compress columns to the nodes read (a mask pass; np.unique would
    # sort all 8N entries).
    read = np.zeros(int(np.prod(coarse_shape)), dtype=bool)
    read[nodes] = True
    src = np.flatnonzero(read)
    cols = (np.cumsum(read) - 1)[nodes]
    rows = keep // 8  # 2 x 2 x 2 weights per point, in point order
    # Duplicate (row, col) pairs -- two clipped corners landing on one
    # boundary node -- are summed by the COO -> CSR conversion.
    op = sparse.csr_matrix(
        (weights[keep], (rows, cols)), shape=(stencil.n_markers, len(src))
    )
    return op, src


def _channels_flat(a: np.ndarray) -> np.ndarray:
    """Lattice array ``(C, nx, ny, nz)`` as a ``(C, nx*ny*nz)`` *view*,
    so that writes through flat node indices land in ``a`` itself."""
    if not a.flags.c_contiguous:
        raise ValueError("flat node indexing needs a C-contiguous lattice array")
    return a.reshape(a.shape[0], -1)


def _equilibrium_points(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f^eq at scattered points: rho (N,), u (3, N) -> (19, N)."""
    feq = equilibrium(rho.reshape(-1, 1, 1), u.reshape(3, -1, 1, 1))
    return feq[:, :, 0, 0]


class RefinedRegion:
    """Two-way coupling between a coarse solver and a fine window stepper.

    Parameters
    ----------
    coarse:
        Object exposing ``grid`` (:class:`Grid`) and ``step()`` — normally
        a :class:`repro.lbm.solver.LBMSolver`.
    fine:
        Object exposing ``grid`` and ``step()`` — an
        :class:`repro.lbm.solver.LBMSolver` for fluid-only windows or a
        :class:`repro.fsi.stepper.FSIStepper` for cell-laden windows.
    n:
        Integer coarse-to-fine spacing ratio.
    periodic_axes:
        Axes along which both lattices are periodic and the window spans
        the whole domain (fine shape = n * coarse shape there, no ghost
        faces).  Non-periodic axes need fine shape = n*W + 1 with the
        window strictly interior to the coarse grid.
    """

    def __init__(
        self,
        coarse,
        fine,
        n: int,
        periodic_axes: tuple[int, ...] = (),
        restriction_margin: int = 2,
    ) -> None:
        self.coarse = coarse
        self.fine = fine
        self.n = int(n)
        self.periodic_axes = tuple(periodic_axes)
        self.restriction_margin = int(restriction_margin)
        cg: Grid = coarse.grid
        fg: Grid = fine.grid
        if self.n < 2:
            raise ValueError("refinement ratio must be >= 2")
        ratio = cg.spacing / fg.spacing
        if abs(ratio - self.n) > 1e-9 * self.n:
            raise ValueError(
                f"grid spacings imply ratio {ratio}, expected n={self.n}"
            )
        rel = (fg.origin - cg.origin) / cg.spacing
        self._i0 = np.round(rel).astype(np.int64)
        if np.max(np.abs(rel - self._i0)) > 1e-6:
            raise ValueError("fine window origin must coincide with a coarse node")
        self._w = np.zeros(3, dtype=np.int64)  # coarse cells spanned per axis
        for d in range(3):
            if d in self.periodic_axes:
                if fg.shape[d] != self.n * cg.shape[d]:
                    raise ValueError(
                        f"periodic axis {d}: fine shape must be n * coarse shape"
                    )
                if self._i0[d] != 0:
                    raise ValueError(f"periodic axis {d}: window offset must be 0")
                self._w[d] = cg.shape[d]
            else:
                if (fg.shape[d] - 1) % self.n != 0:
                    raise ValueError(
                        f"axis {d}: fine shape must be n*W+1 to align with coarse nodes"
                    )
                self._w[d] = (fg.shape[d] - 1) // self.n
                hi = self._i0[d] + self._w[d]
                if self._i0[d] < 1 or hi > cg.shape[d] - 2:
                    raise ValueError(
                        f"axis {d}: window must be strictly interior to the coarse grid"
                    )
        self._interp_mode = "wrap" if self.periodic_axes else "clip"
        if isinstance(fg.tau, np.ndarray):
            raise ValueError("the fine window must have a uniform tau")
        tel = get_telemetry()
        with tel.phase("build_coupling"):
            self._build_ghost_shell()
            self._build_restriction()
        tel.sample("refinement.ghost_nodes", len(self._ghost_flat))
        tel.sample("refinement.ghost_source_nodes", len(self._ghost_src))
        tel.sample("refinement.operator_nnz", self._ghost_op.nnz)
        #: Coarse (rho, u, f^neq) on the shell, (23, N_ghost), at the start
        #: and at the end of the current coarse step.
        self._state_prev: np.ndarray | None = None
        self._state_next: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _coarse_frac(self, fine_flat: np.ndarray) -> np.ndarray:
        """Fractional coarse-lattice coordinates (N, 3) of flat fine nodes."""
        fg = self.fine.grid
        idx = np.stack(np.unravel_index(fine_flat, fg.shape), axis=1)
        return self.coarse.grid.physical_to_index(fg.origin + fg.spacing * idx)

    def _build_ghost_shell(self) -> None:
        """Fine boundary-shell nodes and the operator that fills them.

        Everything that depends only on the window placement: the flat
        shell indices, the interpolation operator with the coarse source
        nodes it reads, and the per-node f^neq rescale factor.
        """
        fg = self.fine.grid
        mask = np.zeros(fg.shape, dtype=bool)
        for d in range(3):
            if d in self.periodic_axes:
                continue
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[d] = 0
            sl_hi[d] = fg.shape[d] - 1
            mask[tuple(sl_lo)] = True
            mask[tuple(sl_hi)] = True
        mask &= ~fg.solid
        self._ghost_flat = np.flatnonzero(mask)
        frac = self._coarse_frac(self._ghost_flat)
        self._ghost_op, self._ghost_src = interpolation_operator(
            frac, self.coarse.grid.shape, self._interp_mode
        )
        self._ghost_scale = self._scale_to_fine(frac)

    def _build_restriction(self) -> None:
        """Coarse interior nodes overwritten from coincident fine nodes.

        The margin leaves a band of free coarse nodes inside the window
        edge.  Two cells (rather than the one cell needed for valid fine
        data) matter when the window boundary coincides with a viscosity
        interface: the coarse lattice's own variable-tau dynamics resolve
        the traction jump exactly, so the interface must stay in *free*
        coarse nodes, with the fine solution pinning only the smooth
        interior.
        """
        cg = self.coarse.grid
        margin = self.restriction_margin
        ranges = []
        for d in range(3):
            if d in self.periodic_axes:
                ranges.append(np.arange(cg.shape[d]))
            else:
                lo = self._i0[d] + margin
                hi = self._i0[d] + self._w[d] - margin
                if hi < lo:
                    self._restrict_coarse = None
                    return
                ranges.append(np.arange(lo, hi + 1))
        ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
        cidx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
        keep = ~cg.solid[cidx[:, 0], cidx[:, 1], cidx[:, 2]]
        cidx = cidx[keep]
        fidx = (cidx - self._i0) * self.n
        self._restrict_coarse = tuple(cidx.T)
        self._restrict_fine = tuple(fidx.T)
        for arr in self._restrict_coarse + self._restrict_fine:
            arr.flags.writeable = False
        self._restrict_coarse_flat = np.ravel_multi_index(
            self._restrict_coarse, cg.shape
        )
        self._restrict_fine_flat = np.ravel_multi_index(
            self._restrict_fine, self.fine.grid.shape
        )
        tau_c = cg.tau_at(cidx)
        self._restrict_scale = stress_match_scale_to_coarse(
            tau_c, self.fine.grid.tau
        )

    # ------------------------------------------------------------------
    @property
    def restriction_coarse_indices(self) -> tuple[np.ndarray, ...] | None:
        """Read-only ``(i, j, k)`` arrays of the coarse nodes that the
        restriction overwrites, or ``None`` when the window is too small
        to restrict.  The arrays are non-writeable views — diagnostics
        and analysis code should index with them, never mutate them."""
        return self._restrict_coarse

    @property
    def restriction_fine_indices(self) -> tuple[np.ndarray, ...] | None:
        """Read-only ``(i, j, k)`` arrays of the fine nodes coincident
        with :attr:`restriction_coarse_indices` (same ordering)."""
        if self._restrict_coarse is None:
            return None
        return self._restrict_fine

    # ------------------------------------------------------------------
    def _scale_to_fine(self, frac_coords: np.ndarray) -> np.ndarray:
        """Per-point f^neq rescale factor coarse -> fine.

        Traction continuity against the local coarse viscosity; see
        :func:`repro.core.viscosity.stress_match_scale_to_fine`.
        """
        cg = self.coarse.grid
        if isinstance(cg.tau, np.ndarray):
            tau_c = trilinear(cg.tau, frac_coords, self._interp_mode)
        else:
            tau_c = np.full(len(np.atleast_2d(frac_coords)), float(cg.tau))
        return stress_match_scale_to_fine(tau_c, self.fine.grid.tau)

    def _coarse_state_at(self, src: np.ndarray) -> np.ndarray:
        """Stacked ``(rho, u, f^neq)`` rows, shape (23, len(src)), of the
        coarse grid right now at flat node indices ``src``."""
        cg = self.coarse.grid
        f = _channels_flat(cg.f)[:, src]
        rho, u = macroscopic(f, _channels_flat(cg.force)[:, src])
        return np.concatenate([rho[None], u, f - _equilibrium_points(rho, u)])

    def _interpolated_state(
        self, op: sparse.csr_matrix, src: np.ndarray
    ) -> np.ndarray:
        """Coarse state interpolated by ``op`` from nodes ``src``: (23, N)."""
        return np.ascontiguousarray((op @ self._coarse_state_at(src).T).T)

    def _set_fine_nodes(
        self, fine_flat: np.ndarray, state: np.ndarray, scale: np.ndarray
    ) -> None:
        """Write ``f^eq(rho, u) + scale * f^neq`` of an interpolated
        (23, N) ``state`` into the fine nodes ``fine_flat``."""
        fg = self.fine.grid
        f_new = _equilibrium_points(state[0], state[1:4])
        f_new += scale * state[4:]
        _channels_flat(fg.f)[:, fine_flat] = f_new

    def initialize_fine_from_coarse(self) -> None:
        """Fill the whole fine lattice from the coarse solution.

        Used at start-up and after every window move: macroscopic fields
        are interpolated trilinearly and the non-equilibrium part is
        rescaled, so the fine window starts from a consistent flow state
        instead of quiescent fluid.
        """
        fluid = np.flatnonzero(~self.fine.grid.solid)
        frac = self._coarse_frac(fluid)
        op, src = interpolation_operator(
            frac, self.coarse.grid.shape, self._interp_mode
        )
        self._set_fine_nodes(
            fluid, self._interpolated_state(op, src), self._scale_to_fine(frac)
        )
        self.fine.grid.mark_f_modified()

    def _impose_ghosts(self, theta: float) -> None:
        """Set the fine boundary shell from time-interpolated coarse state."""
        if len(self._ghost_flat) == 0:
            return
        if self._state_prev is None or self._state_next is None:
            raise RuntimeError(
                "ghost shell imposed before the coarse state was captured; "
                "advance the coupling through step()"
            )
        state = (1 - theta) * self._state_prev
        state += theta * self._state_next
        self._set_fine_nodes(self._ghost_flat, state, self._ghost_scale)
        # Only the shell changed: cached moments are patched, not redone.
        self.fine.grid.mark_f_modified(self._ghost_flat)

    def _restrict(self) -> None:
        """Overwrite interior coarse nodes from coincident fine nodes."""
        if self._restrict_coarse is None:
            return
        fg = self.fine.grid
        cg = self.coarse.grid
        f_fine = _channels_flat(fg.f)[:, self._restrict_fine_flat]
        rho, u = macroscopic(f_fine)
        feq = _equilibrium_points(rho, u)
        fneq = f_fine - feq
        _channels_flat(cg.f)[:, self._restrict_coarse_flat] = (
            feq + self._restrict_scale * fneq
        )
        cg.mark_f_modified(self._restrict_coarse_flat)

    # ------------------------------------------------------------------
    def _ghost_state(self) -> np.ndarray:
        """Coarse state right now, interpolated onto the ghost shell."""
        with get_telemetry().phase("ghost_state"):
            return self._interpolated_state(self._ghost_op, self._ghost_src)

    def step(self, n_coarse: int = 1) -> None:
        """Advance the coupled system by ``n_coarse`` coarse time steps."""
        tel = get_telemetry()
        for _ in range(n_coarse):
            with tel.phase("coarse"):
                self._state_prev = self._ghost_state()
                self.coarse.step()
                self._state_next = self._ghost_state()
            for s in range(self.n):
                with tel.phase("interpolate"):
                    self._impose_ghosts(theta=s / self.n)
                with tel.phase("fine"):
                    self.fine.step()
            with tel.phase("interpolate"):
                self._impose_ghosts(theta=1.0)
            with tel.phase("restrict"):
                self._restrict()
