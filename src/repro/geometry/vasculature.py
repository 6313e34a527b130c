"""Synthetic vascular trees (substitute for patient-derived geometries).

The paper's upper-body (Fig. 1) and cerebral (Fig. 9) geometries are
patient-derived and proprietary.  The APR machinery needs only two things
from a geometry: a wall mask for the lattices and a centerline path for the
CTC/window to follow.  A Murray's-law bifurcating tree supplies both with a
physiologically-plausible radius hierarchy (r_parent^3 = sum r_child^3).

Trees are :mod:`networkx` DiGraphs: nodes carry a 3D ``pos``; edges carry a
``radius``.  The fluid region is the union of capsules around the edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .primitives import sdf_capsule

#: Murray's-law radius ratio for a symmetric bifurcation: 2 r_c^3 = r_p^3.
MURRAY_RATIO = 0.5 ** (1.0 / 3.0)


@dataclass
class VascularTree:
    """A vessel network whose fluid volume is a union of edge capsules."""

    graph: nx.DiGraph = field(default_factory=nx.DiGraph)

    # -- construction ------------------------------------------------------
    def add_vessel(
        self, u: int, v: int, pos_u: np.ndarray, pos_v: np.ndarray, radius: float
    ) -> None:
        """Add a straight vessel segment between nodes ``u`` and ``v``."""
        if radius <= 0:
            raise ValueError("vessel radius must be positive")
        self.graph.add_node(u, pos=np.asarray(pos_u, dtype=np.float64))
        self.graph.add_node(v, pos=np.asarray(pos_v, dtype=np.float64))
        self.graph.add_edge(u, v, radius=float(radius))

    # -- queries -----------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return self.graph.number_of_edges()

    def segments(self):
        """Yield (a_pos, b_pos, radius) for every vessel segment."""
        for u, v, data in self.graph.edges(data=True):
            yield (
                self.graph.nodes[u]["pos"],
                self.graph.nodes[v]["pos"],
                data["radius"],
            )

    def sdf(self, points: np.ndarray) -> np.ndarray:
        """SDF of the whole network (negative inside any vessel)."""
        pts = np.asarray(points, dtype=np.float64)
        best = np.full(pts.shape[:-1], np.inf)
        for a, b, r in self.segments():
            np.minimum(best, sdf_capsule(pts, a, b, r), out=best)
        return best

    def bounding_box(self, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounds of the network including vessel radii."""
        lo = np.full(3, np.inf)
        hi = np.full(3, -np.inf)
        for a, b, r in self.segments():
            lo = np.minimum(lo, np.minimum(a, b) - r)
            hi = np.maximum(hi, np.maximum(a, b) + r)
        return lo - pad, hi + pad

    def total_volume(self) -> float:
        """Approximate fluid volume (sum of segment cylinders) [m^3]."""
        vol = 0.0
        for a, b, r in self.segments():
            vol += np.pi * r**2 * np.linalg.norm(b - a)
        return vol

    def terminals(self) -> list[int]:
        """Leaf nodes (outlets) of the tree."""
        return [n for n in self.graph.nodes if self.graph.out_degree(n) == 0]

    def root(self) -> int:
        roots = [n for n in self.graph.nodes if self.graph.in_degree(n) == 0]
        if len(roots) != 1:
            raise ValueError(f"expected a single root, found {roots}")
        return roots[0]

    def centerline_path(self, src: int | None = None, dst: int | None = None) -> np.ndarray:
        """Polyline of node positions from ``src`` to ``dst``.

        Defaults to root -> the terminal farthest (graph distance) from it,
        which is the natural CTC transit route for the moving window.
        """
        if src is None:
            src = self.root()
        if dst is None:
            lengths = nx.single_source_shortest_path_length(self.graph, src)
            dst = max(lengths, key=lengths.get)
        nodes = nx.shortest_path(self.graph, src, dst)
        return np.array([self.graph.nodes[n]["pos"] for n in nodes])

    def path_radii(self, path_nodes: np.ndarray) -> np.ndarray:
        """Vessel radii along a centerline path (per polyline segment)."""
        radii = []
        nodes = list(path_nodes)
        for u, v in zip(nodes[:-1], nodes[1:]):
            radii.append(self.graph.edges[u, v]["radius"])
        return np.array(radii)


def resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Resample a polyline at (approximately) uniform arclength spacing."""
    points = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0:
        return points[:1].copy()
    n = max(2, int(np.ceil(total / spacing)) + 1)
    si = np.linspace(0.0, total, n)
    out = np.empty((n, 3))
    for d in range(3):
        out[:, d] = np.interp(si, s, points[:, d])
    return out


def _orthonormal_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors orthogonal to ``direction``."""
    d = direction / np.linalg.norm(direction)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(d @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return e1, e2


def murray_tree(
    generations: int,
    root_radius: float,
    root_length: float | None = None,
    length_to_radius: float = 15.0,
    branch_angle_deg: float = 35.0,
    origin: np.ndarray | None = None,
    direction: np.ndarray | None = None,
    seed: int = 0,
    jitter: float = 0.15,
) -> VascularTree:
    """Build a symmetric bifurcating tree obeying Murray's law.

    Parameters
    ----------
    generations:
        Number of bifurcation levels (0 = a single root vessel).
    root_radius:
        Radius of the inlet vessel [m].
    root_length:
        Length of the inlet vessel [m]; defaults to
        ``length_to_radius * root_radius``.
    length_to_radius:
        Segment length / radius ratio (physiological arteries ~10-20).
    branch_angle_deg:
        Half-angle between daughter vessels and the parent direction.
    jitter:
        Relative random perturbation of angles/lengths (seeded, so the
        tree is deterministic for a given ``seed``).
    """
    rng = np.random.default_rng(seed)
    tree = VascularTree()
    origin = (
        np.zeros(3) if origin is None else np.asarray(origin, dtype=np.float64)
    )
    direction = (
        np.array([0.0, 0.0, 1.0])
        if direction is None
        else np.asarray(direction, dtype=np.float64)
    )
    direction = direction / np.linalg.norm(direction)
    if root_length is None:
        root_length = length_to_radius * root_radius

    counter = [0]

    def next_id() -> int:
        counter[0] += 1
        return counter[0]

    root_id = 0
    tree.graph.add_node(root_id, pos=origin)
    stack = [(root_id, origin, direction, root_radius, root_length, 0)]
    while stack:
        parent, pos, dirn, radius, length, gen = stack.pop()
        end = pos + dirn * length
        child = next_id()
        tree.add_vessel(parent, child, pos, end, radius)
        if gen >= generations:
            continue
        r_child = radius * MURRAY_RATIO
        l_child = length_to_radius * r_child
        e1, e2 = _orthonormal_frame(dirn)
        phi = rng.uniform(0, 2 * np.pi)
        for sign in (+1.0, -1.0):
            ang = np.deg2rad(branch_angle_deg) * (
                1.0 + jitter * rng.standard_normal()
            )
            azim = phi + (0.0 if sign > 0 else np.pi) + jitter * rng.standard_normal()
            lateral = np.cos(azim) * e1 + np.sin(azim) * e2
            d_child = np.cos(ang) * dirn + np.sin(ang) * lateral
            d_child /= np.linalg.norm(d_child)
            l_i = l_child * (1.0 + jitter * rng.standard_normal())
            stack.append((child, end, d_child, r_child, max(l_i, 2 * r_child), gen + 1))
    return tree


def upper_body_tree(seed: int = 11) -> VascularTree:
    """Upper-body-like preset: aorta-scale root over 6 levels.

    The root radius is chosen so the total fluid volume lands near the
    paper's 41.0 mL upper-body domain (Fig. 1 / Table 2).
    """
    return murray_tree(
        generations=6,
        root_radius=5.75e-3,
        length_to_radius=10.0,
        branch_angle_deg=35.0,
        seed=seed,
    )
