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

Separable prolongation
----------------------
Because the window origin sits on a coarse node and the fine spacing is
``1/n`` of the coarse one, trilinear interpolation onto fine nodes is a
product of three 1-D rules: along each axis, fine node ``k`` reads the
coarse pair ``(k // n, k // n + 1)`` of the window's coarse block with
weights ``(1 - t, t)``, ``t = (k mod n) / n`` (:func:`_prolong`).  The
block is the ``w + 1`` coarse nodes under the window on each axis; on a
periodic axis its last entry is coarse node 0 again, so bounded and
periodic windows share one code path.  The window fill prolongs the
block's ``(rho, u, f^neq[, tau])`` channels with three 1-D passes; the
ghost shell, whose nodes all lie on window faces, prolongs the coarse
face planes with two.  Spatial interpolation and the time blend are both
linear and commute: the coarse state goes onto the shell at both ends
of a coarse step (before and after the coarse advance), with f^neq
already rescaled, and every sub-step only blends those two shell-sized
arrays.  Nothing per sub-step scales with the coarse lattice.

One impose per fine sub-step
----------------------------
A coarse step ends with the θ = 1 impose; the next one would capture the
same coarse state again and impose it at θ = 0.  The step keeps what its
end state was made from (:meth:`RefinedRegion._shell_inputs`: coarse
``f`` and ``force`` at the face nodes) and the fine ``f_version`` after
that impose.  When both are unchanged at the next step, the end state is
reused as the start state and the θ = 0 impose is left out: the shell
already holds exactly those populations.  Shell gathers and scatters go
one channel row at a time (:func:`~repro.lbm.collision.take_columns`,
:meth:`~repro.lbm.grid.Grid.write_columns`), and the write patches the
fine lattice's cached moments, where it keeps them, from the columns it
stores instead of gathering the shell back out of ``f``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..lbm.collision import (
    equilibrium,
    flat_columns,
    macroscopic,
    put_columns,
    take_columns,
)
from ..lbm.grid import Grid
from ..lbm.lattice import D3Q19
from ..telemetry import get_telemetry
from .viscosity import (
    stress_match_scale_to_coarse,
    stress_match_scale_to_fine,
)

#: Rows of the coarse state: rho, u (3) and f^neq (19).
_N_STATE = 23

#: Coarse cells between the window edge and the coarse nodes the fine
#: solution overwrites (:meth:`RefinedRegion._build_restriction`).
RESTRICTION_MARGIN = 2

#: Multiply-adds per prolongation GEMM call, kept well below the size at
#: which OpenBLAS hands a GEMM to its thread pool (see
#: :data:`repro.lbm.collision.GEMM_COLS`).
_GEMM_MAX = 2**18


@functools.lru_cache(maxsize=None)
def _prolongation_matrix(n: int, length: int, m: int, dtype) -> np.ndarray:
    """The 1-D rule of :func:`_prolong` as a ``(length, m)`` matrix."""
    p = np.zeros((length, m), dtype=dtype)
    k = np.arange(length)
    j, r = np.divmod(k, n)
    p[k, j] = 1.0 - r / n
    up = r > 0
    p[k[up], j[up] + 1] = r[up] / n
    return p


def _prolong(
    a: np.ndarray, axis: int, n: int, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Linear coarse -> fine prolongation of ``a`` along ``axis``.

    Fine sample ``k`` (``0 <= k < length``) lies at coarse coordinate
    ``k / n`` and takes ``(1 - t) a[j] + t a[j + 1]`` with ``j = k // n``,
    ``t = (k mod n) / n``; at ``t = 0`` it is ``a[j]`` itself.  Applied
    as small GEMMs with the ``(length, m)`` weight matrix: the other
    weights of a row are exact zeros, which add nothing.  ``out``, if
    given, must reshape to ``(pre, length, post)`` without a copy.
    """
    m = a.shape[axis]
    p = _prolongation_matrix(n, length, m, a.dtype)
    pre = math.prod(a.shape[:axis])
    post = math.prod(a.shape[axis + 1:])
    if out is None:
        out = np.empty(a.shape[:axis] + (length,) + a.shape[axis + 1:], a.dtype)
    src = np.ascontiguousarray(a).reshape(pre, m, post)
    dst = out.reshape(pre, length, post)
    # GEMMs small enough to stay single-threaded
    step = max(1, _GEMM_MAX // (m * length))
    if post > 1:
        for lo in range(0, post, step):
            np.matmul(p, src[:, :, lo:lo + step], out=dst[:, :, lo:lo + step])
    else:
        for lo in range(0, pre, step):
            np.matmul(src[lo:lo + step, :, 0], p.T, out=dst[lo:lo + step, :, 0])
    return out


def _state_rows(
    f: np.ndarray, force: np.ndarray, tau: np.ndarray | None = None
) -> np.ndarray:
    """Stacked ``(rho, u, f^neq)`` rows of gathered coarse columns ``f``
    (19, ...) and ``force`` (3, ...), plus a ``tau`` row when given:
    ``(23 or 24,) + f.shape[1:]``.

    The rows are formed in the lattice dtype and held in float64, so
    that a float32 lattice is interpolated in float64 and rounded once,
    where it is written.
    """
    rho, u = macroscopic(f, force)
    state = np.empty((_N_STATE + (tau is not None),) + f.shape[1:])
    state[0] = rho
    state[1:4] = u
    state[4:_N_STATE] = f - equilibrium(rho, u)
    if tau is not None:
        state[_N_STATE] = tau
    return state


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
    ) -> None:
        self.coarse = coarse
        self.fine = fine
        self.n = int(n)
        self.periodic_axes = tuple(periodic_axes)
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
        if isinstance(fg.tau, np.ndarray):
            raise ValueError("the fine window must have a uniform tau")
        #: Flat coarse indices of the window's coarse block, (w+1,)*3 per
        #: axis; periodic axes wrap, so their last entry is node 0.
        self._block_nodes = np.ravel_multi_index(
            np.ix_(*[
                (self._i0[d] + np.arange(self._w[d] + 1)) % cg.shape[d]
                for d in range(3)
            ]),
            cg.shape,
        )
        tel = get_telemetry()
        with tel.phase("build_coupling"):
            self._build_ghost_shell()
            self._build_restriction()
        tel.sample("refinement.ghost_nodes", len(self._ghost_flat))
        #: Coarse (rho, u, scale * f^neq) on the shell, (23, N_ghost), at
        #: the start and at the end of the current coarse step.
        self._state_prev: np.ndarray | None = None
        self._state_next: np.ndarray | None = None
        #: The :meth:`_shell_inputs` ``_state_next`` was made from, and
        #: the fine ``f_version`` right after it was last imposed.
        self._next_inputs: np.ndarray | None = None
        self._next_imposed_version: int | None = None
        #: Shell-sized work buffers: the sub-step blend of the four
        #: macroscopic rows, (4, N_ghost), and the imposed f, (19, N_ghost).
        self._blend: np.ndarray | None = None
        self._f_shell: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _build_ghost_shell(self) -> None:
        """Fine boundary-shell nodes and what fills them.

        Everything that depends only on the window placement.  Every
        shell node lies on a window face, where the normal axis has
        ``t = 0``, so the shell is the two face planes of each bounded
        axis prolonged over their other two axes.  ``_faces`` lists, per
        bounded axis with shell nodes, the columns of its coarse face pair
        in ``_face_src`` — laid out ``(a, 2, b)`` with the normal axis in
        the middle, and cut to the coarse cells that hold its shell nodes
        — and the pair's fine lengths along ``a`` and ``b``; the
        prolonged pairs, one after the other, are ``_face_nodes`` fine
        face positions.  ``_face_take`` picks the shell from them: each
        fluid face node once, an edge node from the first face that has
        it.  ``_ghost_flat`` is the shell in that order and
        ``_ghost_scale`` its f^neq rescale factor.
        """
        fg = self.fine.grid
        n = self.n
        claimed = np.zeros(fg.shape, dtype=bool).reshape(-1)
        solid = fg.solid.reshape(-1)
        self._faces = []
        sources = [np.zeros(0, dtype=np.int64)]
        ghosts = [np.zeros(0, dtype=np.int64)]
        takes = [np.zeros(0, dtype=np.int64)]
        start = offset = 0
        for d in range(3):
            if d in self.periodic_axes:
                continue
            # the pair of faces normal to d, laid out (a, 2, b)
            ends = [0, fg.shape[d] - 1]
            fine_a, fine_b = (fg.shape[e] for e in range(3) if e != d)
            fine_nodes = np.moveaxis(np.ravel_multi_index(
                np.ix_(*[ends if e == d else np.arange(fg.shape[e])
                         for e in range(3)]),
                fg.shape,
            ), d, 1)
            keep = ~(solid[fine_nodes] | claimed[fine_nodes])
            claimed[fine_nodes] = True
            if not keep.any():
                continue
            # Only the coarse cells under the pair's shell nodes: a walled
            # window's faces are mostly solid.
            ka, _, kb = np.nonzero(keep)
            box = []
            for k, length in ((ka, fine_a), (kb, fine_b)):
                lo, hi = k.min() // n, -(-k.max() // n)
                box.append((slice(lo, hi + 1),
                            slice(n * lo, min(n * hi + 1, length))))
            (coarse_a, sub_a), (coarse_b, sub_b) = box
            keep = keep[sub_a, :, sub_b]
            coarse_nodes = np.moveaxis(
                np.take(self._block_nodes, [0, self._w[d]], axis=d), d, 1
            )[coarse_a, :, coarse_b]
            cols = slice(start, start + coarse_nodes.size)
            start = cols.stop
            self._faces.append((cols, coarse_nodes.shape, keep.shape[0],
                                keep.shape[2]))
            sources.append(coarse_nodes.reshape(-1))
            ghosts.append(fine_nodes[sub_a, :, sub_b][keep])
            takes.append(offset + np.flatnonzero(keep))
            offset += keep.size
        self._face_src = np.concatenate(sources)
        self._face_nodes = offset
        self._face_take = np.concatenate(takes)
        self._ghost_flat = np.concatenate(ghosts)
        cg = self.coarse.grid
        if isinstance(cg.tau, np.ndarray):
            tau_c = self._onto_shell(take_columns(cg.tau[None], self._face_src))[0]
        else:
            tau_c = float(cg.tau)
        self._ghost_scale = stress_match_scale_to_fine(tau_c, fg.tau)

    def _onto_shell(self, values: np.ndarray) -> np.ndarray:
        """Channels ``(C, len(_face_src))`` at the coarse face nodes,
        prolonged onto the shell in :attr:`_ghost_flat` order."""
        c = values.shape[0]
        faces = np.empty((c, self._face_nodes), dtype=values.dtype)
        lo = 0
        for cols, shape, len_a, len_b in self._faces:
            pair = values[:, cols].reshape((c,) + shape)
            pair = _prolong(pair, 3, self.n, len_b)
            hi = lo + len_a * 2 * len_b
            _prolong(pair, 1, self.n, len_a, out=faces[:, lo:hi])
            lo = hi
        return np.take(faces, self._face_take, axis=1)

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
        margin = RESTRICTION_MARGIN
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
    def initialize_fine_from_coarse(self) -> None:
        """Fill the whole fine lattice from the coarse solution.

        Used at start-up and after every window move, so the fine window
        starts from a consistent flow state instead of quiescent fluid.
        The coarse block's ``(rho, u, f^neq)`` — and ``tau``, where the
        coarse tau is a field — are prolonged along z and y, then along x;
        each fluid fine node gets f^eq of the interpolated macroscopic
        fields plus the rescaled f^neq.  Solid fine nodes are not written.
        """
        cg, fg, n = self.coarse.grid, self.fine.grid, self.n
        nodes = self._block_nodes
        tau = cg.tau.reshape(-1)[nodes] if isinstance(cg.tau, np.ndarray) else None
        block = _state_rows(
            take_columns(cg.f, nodes), take_columns(cg.force, nodes), tau
        )
        nx, ny, nz = fg.shape
        # Innermost axis first, so that the last pass makes whole planes.
        z = _prolong(block, 3, n, nz)
        del block
        # Then y and x, one coarse cell of fine planes at a time: the
        # fill's temporaries stay a fraction of the fine lattice.  Each
        # coarse x-plane is prolonged along y on its own, by the same
        # GEMMs as within the whole block, into the upper half of the
        # cell's plane pair.
        w = int(self._w[0])
        pair = np.empty((len(z), 2, ny, nz), z.dtype)
        _prolong(z[:, :1], 2, n, ny, out=pair[:, 1:])
        for j in range(w):
            pair[:, 0] = pair[:, 1]
            _prolong(z[:, j + 1:j + 2], 2, n, ny, out=pair[:, 1:])
            planes = nx - n * j if j == w - 1 else n
            part = _prolong(pair, 1, n, planes)
            self._fill_nodes(part.reshape(len(part), -1), n * j * ny * nz)
            del part  # before the next cell's is made
        fg.mark_f_modified()

    def _fill_nodes(self, state: np.ndarray, start: int) -> None:
        """Write ``f^eq + scale * f^neq`` of prolonged ``state`` columns
        into the fluid ones of the fine nodes ``start, start + 1, ...``;
        ``state`` is used as scratch."""
        fg = self.fine.grid
        cols = slice(start, start + state.shape[1])
        f2 = flat_columns(fg.f)
        nodes = np.flatnonzero(~fg.solid.reshape(-1)[cols])
        all_fluid = len(nodes) == state.shape[1]
        if not all_fluid:
            state = take_columns(state, nodes)
        fneq = state[4:_N_STATE]
        if len(state) > _N_STATE:  # the coarse tau row
            fneq *= stress_match_scale_to_fine(state[_N_STATE], fg.tau)
        else:
            fneq *= stress_match_scale_to_fine(float(self.coarse.grid.tau), fg.tau)
        if all_fluid and f2.dtype == state.dtype:
            equilibrium(state[0], state[1:4], out=f2[:, cols])
            f2[:, cols] += fneq
        else:
            f_new = equilibrium(state[0], state[1:4])
            f_new += fneq
            put_columns(fg.f, start + nodes, f_new)

    def _impose_ghosts(self, theta: float) -> None:
        """Set the fine boundary shell from time-interpolated coarse state."""
        if len(self._ghost_flat) == 0:
            return
        prev, nxt = self._state_prev, self._state_next
        if prev is None or nxt is None:
            raise RuntimeError(
                "ghost shell imposed before the coarse state was captured; "
                "advance the coupling through step()"
            )
        if self._f_shell is None:
            self._f_shell = np.empty((len(prev) - 4, prev.shape[1]), prev.dtype)
            self._blend = np.empty((4, prev.shape[1]), prev.dtype)
        if theta in (0.0, 1.0):
            state = prev if theta == 0.0 else nxt
            f_new = equilibrium(state[0], state[1:4], out=self._f_shell)
            f_new += state[4:]
        else:
            # (nxt - prev) theta + prev: the four macroscopic rows into
            # the blend buffer, then each f^neq row through one of its
            # rows, added to f^eq as it is formed.
            state = self._blend
            np.subtract(nxt[:4], prev[:4], out=state)
            state *= theta
            state += prev[:4]
            f_new = equilibrium(state[0], state[1:4], out=self._f_shell)
            row = state[0]  # free once f^eq is formed
            for f_row, p_row, n_row in zip(f_new, prev[4:], nxt[4:]):
                np.subtract(n_row, p_row, out=row)
                row *= theta
                row += p_row
                f_row += row
        # Only the shell changed: cached moments are patched, not redone.
        self.fine.grid.write_columns(self._ghost_flat, f_new)
        get_telemetry().inc("refinement.shell_imposes")

    def _restrict(self) -> None:
        """Overwrite interior coarse nodes from coincident fine nodes.

        Like everything the coupling computes, in float64 whatever the
        lattice dtype: a float32 lattice is rounded once, where it is
        written.
        """
        if self._restrict_coarse is None:
            return
        fg = self.fine.grid
        cg = self.coarse.grid
        f = take_columns(fg.f, self._restrict_fine_flat)
        f = f.astype(np.float64, copy=False)
        rho, u = macroscopic(f)
        feq = equilibrium(rho, u)
        f -= feq
        f *= self._restrict_scale
        f += feq
        cg.write_columns(self._restrict_coarse_flat, f)

    # ------------------------------------------------------------------
    def _shell_inputs(self) -> np.ndarray:
        """Everything the shell state is made from: coarse ``f`` and
        ``force`` right now at the face nodes, stacked ``(22, F)``."""
        cg = self.coarse.grid
        return np.concatenate([take_columns(cg.f, self._face_src),
                               take_columns(cg.force, self._face_src)])

    def _ghost_state(self, inputs: np.ndarray | None = None) -> np.ndarray:
        """Coarse state on the ghost shell from ``inputs`` (default: the
        :meth:`_shell_inputs` of right now), with f^neq already
        multiplied by the rescale factor: (23, N_ghost)."""
        if inputs is None:
            inputs = self._shell_inputs()
        with get_telemetry().phase("ghost_state"):
            q = D3Q19.Q
            state = self._onto_shell(_state_rows(inputs[:q], inputs[q:]))
            state[4:] *= self._ghost_scale
            return state

    def _shell_holds_next(self, inputs: np.ndarray) -> bool:
        """Whether the shell still holds the last θ = 1 impose and the
        coarse state it came from is unchanged, so that ``_state_next``
        is bitwise this step's ``_state_prev`` and its θ = 0 impose would
        write the values already there."""
        return (len(self._ghost_flat) > 0
                and self._next_imposed_version == self.fine.grid.f_version
                and np.array_equal(inputs, self._next_inputs))

    def step(self, n_coarse: int = 1) -> None:
        """Advance the coupled system by ``n_coarse`` coarse time steps."""
        tel = get_telemetry()
        fg = self.fine.grid
        for _ in range(n_coarse):
            with tel.phase("coarse"):
                inputs = self._shell_inputs()
                reuse = self._shell_holds_next(inputs)
                self._state_prev = (
                    self._state_next if reuse else self._ghost_state(inputs)
                )
                self.coarse.step()
                self._next_inputs = self._shell_inputs()
                self._state_next = self._ghost_state(self._next_inputs)
            for s in range(self.n):
                with tel.phase("interpolate"):
                    if s == 0 and reuse:
                        tel.inc("refinement.shell_reimposes_skipped")
                    else:
                        self._impose_ghosts(theta=s / self.n)
                with tel.phase("fine"):
                    self.fine.step()
            with tel.phase("interpolate"):
                self._impose_ghosts(theta=1.0)
                self._next_imposed_version = fg.f_version
            with tel.phase("restrict"):
                self._restrict()
