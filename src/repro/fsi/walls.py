"""Cell-wall repulsion.

Bounce-back walls enforce no-slip on the fluid but do not, by themselves,
keep Lagrangian cell vertices out of the solid: near-wall lubrication
films thinner than one lattice spacing are unresolved, so FSI codes add a
short-range wall repulsion (the same form HARVEY-family solvers use for
the cell-cell contact).  The force acts on vertices within a cutoff of
the wall surface, along the outward wall normal obtained from the
geometry SDF by central differences:

    F(d) = k_w (1 - d/d_c) n_hat       for wall distance d < d_c.
"""

from __future__ import annotations

import numpy as np


def wall_normals_from_sdf(sdf, points: np.ndarray, h: float) -> np.ndarray:
    """Outward-fluid normals (-grad sdf direction) at the given points.

    ``sdf`` follows the package convention: negative inside the fluid, so
    the repulsion direction (into the fluid) is -grad(sdf), normalized.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    fn = sdf.sdf if hasattr(sdf, "sdf") else sdf
    grad = np.empty_like(pts)
    for d in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, d] += h
        dm[:, d] -= h
        grad[:, d] = (fn(dp) - fn(dm)) / (2.0 * h)
    norm = np.linalg.norm(grad, axis=1, keepdims=True)
    return -grad / np.maximum(norm, 1e-300)


def wall_repulsion_forces(
    sdf,
    vertices: np.ndarray,
    cutoff: float,
    stiffness: float,
    fd_step: float | None = None,
) -> np.ndarray:
    """Repulsive force on every vertex closer than ``cutoff`` to the wall.

    Parameters
    ----------
    sdf:
        Geometry with the negative-inside convention.
    vertices:
        (N, 3) positions [m].
    cutoff:
        Interaction range d_c [m].
    stiffness:
        Peak force k_w at zero wall distance [N].
    fd_step:
        Step for the SDF gradient (default: cutoff / 4).
    """
    verts = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    forces = np.zeros_like(verts)
    if cutoff <= 0.0 or len(verts) == 0:
        return forces
    fn = sdf.sdf if hasattr(sdf, "sdf") else sdf
    s = np.asarray(fn(verts), dtype=np.float64)
    # Wall distance for fluid-side points is -sdf; points at or past the
    # wall (sdf >= 0) get the full-strength push back into the fluid.
    near = s > -cutoff
    if not near.any():
        return forces
    h = fd_step if fd_step is not None else cutoff / 4.0
    normals = wall_normals_from_sdf(sdf, verts[near], h)
    d = np.clip(-s[near], 0.0, cutoff)
    mag = stiffness * (1.0 - d / cutoff)
    forces[near] = mag[:, None] * normals
    return forces


class WallProximityPrefilter:
    """Per-geometry lattice SDF sampling that skips provably-far vertices.

    The per-step wall pass evaluates the geometry SDF at every vertex even
    though almost all of them sit far inside the fluid.  This prefilter
    samples the SDF once at every lattice node of the (stationary) window
    and uses the SDF's Lipschitz bound to skip vertices whose containing
    cell's node value guarantees ``sdf < -cutoff``: a vertex is at most
    ``sqrt(3) * spacing`` from its cell's floor node, so
    ``s(node) < -(cutoff + L * sqrt(3) * spacing)`` implies zero force.
    The surviving candidates go through the exact
    :func:`wall_repulsion_forces` path, making the combined result bitwise
    identical to the unfiltered evaluation (skipped rows are exactly the
    zero rows the full pass would produce).

    The test is decided at construction, so the prefilter keeps one
    boolean per node (not the float64 sample) and owns its ``cutoff``.
    The sampling is valid for one ``(origin, spacing, shape)`` window
    placement; the stepper rebuilds it via :meth:`matches` when the APR
    window moves.
    """

    def __init__(self, sdf, grid, cutoff: float, lipschitz: float | None = None):
        self.sdf = sdf
        self.cutoff = float(cutoff)
        self.origin = np.asarray(grid.origin, dtype=np.float64).copy()
        self.spacing = float(grid.spacing)
        self.shape = tuple(grid.shape)
        if lipschitz is None:
            # True signed distance functions are 1-Lipschitz; geometries
            # with steeper level-set gradients can declare theirs.
            lipschitz = getattr(sdf, "sdf_lipschitz", 1.0)
        self.margin = float(lipschitz) * np.sqrt(3.0) * self.spacing
        fn = sdf.sdf if hasattr(sdf, "sdf") else sdf
        # One x-slab of nodes at a time, so the node coordinates and the
        # SDF's temporaries are slab-sized.  An elementwise SDF gives the
        # whole-lattice samples bit for bit; one that projects through a
        # BLAS product (a vessel network's capsules) may differ in the
        # last bit.  The skip test needs each sample only to within its
        # Lipschitz margin, so the forces stay the exact pass's.
        #: Per node: may a vertex in the cell it floors be within reach?
        self._near = np.empty(self.shape, dtype=bool)
        reach = -(self.cutoff + self.margin)
        index = np.indices((1,) + self.shape[1:]).reshape(3, -1).T
        for x in range(self.shape[0]):
            index[:, 0] = x
            nodes = self.origin + self.spacing * index
            s_node = np.asarray(fn(nodes), dtype=np.float64)
            self._near[x] = s_node.reshape(self.shape[1:]) >= reach

    def matches(self, grid) -> bool:
        """True while the sampled window placement is still current."""
        return (
            self.shape == tuple(grid.shape)
            and self.spacing == float(grid.spacing)
            and np.array_equal(self.origin, np.asarray(grid.origin))
        )

    def forces(
        self,
        vertices: np.ndarray,
        stiffness: float,
        fd_step: float | None = None,
    ) -> np.ndarray:
        """Wall forces at the prefilter's cutoff, bitwise equal to
        :func:`wall_repulsion_forces`."""
        cutoff = self.cutoff
        verts = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
        out = np.zeros_like(verts)
        if cutoff <= 0.0 or len(verts) == 0:
            return out
        cell = np.floor((verts - self.origin) / self.spacing).astype(np.int64)
        hi = np.asarray(self.shape, dtype=np.int64) - 1
        inb = ((cell >= 0) & (cell <= hi)).all(axis=1)
        # Out-of-window vertices have no sampled node: always candidates.
        cand = ~inb
        if inb.any():
            ci = cell[inb]
            cand[inb] = self._near[ci[:, 0], ci[:, 1], ci[:, 2]]
        if cand.any():
            out[cand] = wall_repulsion_forces(
                self.sdf, verts[cand], cutoff, stiffness, fd_step
            )
        return out
