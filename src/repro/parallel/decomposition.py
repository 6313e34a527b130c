"""Block domain decomposition for the virtual parallel runtime.

Splits a global lattice into per-rank boxes, mirroring the MPI layout of
HARVEY: near-cubic blocks chosen to minimize halo surface (the same
criterion as MPI_Dims_create), with face/edge/corner neighbor topology
derived from the D3Q19 stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lbm.lattice import D3Q19


def balanced_dims(n_tasks: int, shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Factor ``n_tasks`` into a 3D process grid minimizing halo surface.

    Enumerates all ordered factorizations px*py*pz = n_tasks (n_tasks is
    at most a few thousand in practice) and picks the one minimizing the
    total surface area of a local block.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    best = None
    best_cost = np.inf
    for px in range(1, n_tasks + 1):
        if n_tasks % px:
            continue
        rest = n_tasks // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            if px > shape[0] or py > shape[1] or pz > shape[2]:
                continue
            lx = shape[0] / px
            ly = shape[1] / py
            lz = shape[2] / pz
            cost = lx * ly + ly * lz + lz * lx
            if cost < best_cost:
                best_cost = cost
                best = (px, py, pz)
    if best is None:
        raise ValueError(
            f"cannot decompose shape {shape} into {n_tasks} non-empty blocks"
        )
    return best


def weighted_splits(
    length: int, parts: int, weight: np.ndarray | None
) -> np.ndarray:
    """Split plane positions balancing cumulative weight along one axis.

    Places the ``parts - 1`` interior planes where the cumulative weight
    crosses equal fractions of the total, then repairs strict
    monotonicity (every part keeps at least one plane of cells).  A
    ``None``, zero, or non-finite weight profile falls back to the
    uniform ``np.linspace`` planes — bitwise the legacy decomposition.
    """
    if parts > length:
        raise ValueError(f"cannot split {length} cells into {parts} parts")
    uniform = np.linspace(0, length, parts + 1).astype(np.int64)
    if weight is None or parts == 1:
        return uniform
    w = np.asarray(weight, dtype=np.float64)
    if w.shape != (length,):
        raise ValueError(
            f"weight profile has length {w.shape}, axis has {length} cells"
        )
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0 or np.any(w < 0):
        return uniform
    cum = np.concatenate(([0.0], np.cumsum(w)))
    targets = np.linspace(0.0, total, parts + 1)[1:-1]
    cuts = np.searchsorted(cum, targets, side="left").astype(np.int64)
    splits = np.empty(parts + 1, dtype=np.int64)
    splits[0] = 0
    splits[1:-1] = cuts
    splits[-1] = length
    # Repair strict monotonicity: forward pass guarantees >= 1 cell per
    # part from the left, backward pass from the right (parts <= length
    # makes both passes satisfiable simultaneously).
    for i in range(1, parts):
        if splits[i] <= splits[i - 1]:
            splits[i] = splits[i - 1] + 1
    for i in range(parts - 1, 0, -1):
        if splits[i] >= splits[i + 1]:
            splits[i] = splits[i + 1] - 1
    return splits


def _axis_weights(
    shape: tuple[int, int, int], weights
) -> list[np.ndarray | None]:
    """Normalize a weights request into three per-axis 1-D profiles.

    Accepts ``None`` (uniform), a 3-D array over the global lattice
    (e.g. the fluid mask ``~solid`` — reduced to per-axis marginals), or
    a sequence of three 1-D arrays / ``None`` entries.
    """
    if weights is None:
        return [None, None, None]
    if isinstance(weights, np.ndarray) and weights.ndim == 3:
        if weights.shape != tuple(shape):
            raise ValueError(
                f"3-D weights shape {weights.shape} != lattice {shape}"
            )
        w = weights.astype(np.float64, copy=False)
        return [
            w.sum(axis=tuple(ax for ax in range(3) if ax != d))
            for d in range(3)
        ]
    per_axis = list(weights)
    if len(per_axis) != 3:
        raise ValueError(
            "weights must be None, a 3-D array, or three per-axis profiles"
        )
    return [
        None if w is None else np.asarray(w, dtype=np.float64)
        for w in per_axis
    ]


@dataclass(frozen=True)
class _Block:
    rank: int
    coords: tuple[int, int, int]
    lo: tuple[int, int, int]  # inclusive global start
    hi: tuple[int, int, int]  # exclusive global end


class BlockDecomposition:
    """Cartesian decomposition of a global lattice over ranks.

    Parameters
    ----------
    shape:
        Global lattice shape.
    n_tasks:
        Number of ranks; the process grid is chosen by
        :func:`balanced_dims` unless ``dims`` is given.
    periodic:
        Per-axis periodicity (affects neighbor wrap-around).
    weights:
        Optional load profile placing the split planes by cumulative
        weight instead of uniformly: a 3-D array over the global lattice
        (e.g. the fluid mask ``~grid.solid`` — walls then stop inflating
        the fluid-node count of wall-adjacent ranks) or three per-axis
        1-D profiles.  ``None`` keeps the legacy uniform planes bitwise.
        The process-grid *dims* are still chosen by
        :func:`balanced_dims`' surface cost — weights move planes, not
        the grid shape.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        n_tasks: int,
        dims: tuple[int, int, int] | None = None,
        periodic: tuple[bool, bool, bool] = (True, True, True),
        weights=None,
    ) -> None:
        self.shape = tuple(shape)
        self.dims = dims if dims is not None else balanced_dims(n_tasks, shape)
        if int(np.prod(self.dims)) != n_tasks:
            raise ValueError("dims do not multiply to the task count")
        for d in range(3):
            if self.dims[d] > self.shape[d]:
                raise ValueError(
                    f"dims {tuple(self.dims)} oversplit axis {d} of "
                    f"shape {self.shape}"
                )
        self.periodic = tuple(periodic)
        self.n_tasks = n_tasks
        self.blocks: list[_Block] = []
        axis_w = _axis_weights(self.shape, weights)
        splits = [
            weighted_splits(self.shape[d], self.dims[d], axis_w[d])
            for d in range(3)
        ]
        rank = 0
        for i in range(self.dims[0]):
            for j in range(self.dims[1]):
                for k in range(self.dims[2]):
                    lo = (splits[0][i], splits[1][j], splits[2][k])
                    hi = (splits[0][i + 1], splits[1][j + 1], splits[2][k + 1])
                    self.blocks.append(_Block(rank, (i, j, k), lo, hi))
                    rank += 1
        self.splits = splits
        self._rank_by_coords = {b.coords: b.rank for b in self.blocks}

    def block(self, rank: int) -> _Block:
        return self.blocks[rank]

    def local_shape(self, rank: int) -> tuple[int, int, int]:
        b = self.blocks[rank]
        return tuple(int(b.hi[d] - b.lo[d]) for d in range(3))

    def neighbor(self, rank: int, offset: tuple[int, int, int]) -> int | None:
        """Rank of the neighbor at a coordinate offset, or None off-grid."""
        coords = list(self.blocks[rank].coords)
        for d in range(3):
            c = coords[d] + offset[d]
            if self.periodic[d]:
                c %= self.dims[d]
            elif not 0 <= c < self.dims[d]:
                return None
            coords[d] = c
        return self._rank_by_coords[tuple(coords)]

    def neighbors(self, rank: int) -> dict[tuple[int, int, int], int]:
        """All distinct D3Q19 neighbor ranks keyed by direction offset."""
        out: dict[tuple[int, int, int], int] = {}
        for q in range(1, D3Q19.Q):
            off = tuple(int(v) for v in D3Q19.c[q])
            nb = self.neighbor(rank, off)
            if nb is not None and nb != rank:
                out[off] = nb
        return out

    def neighbor_count_histogram(self) -> dict[int, int]:
        """Histogram of distinct-neighbor counts over ranks.

        Reproduces the paper's weak-scaling observation: below 8 nodes the
        decomposition leaves some axes unsplit, so ranks see fewer
        neighbors and communication volume is not yet 'full'.
        """
        hist: dict[int, int] = {}
        for b in self.blocks:
            n = len(set(self.neighbors(b.rank).values()))
            hist[n] = hist.get(n, 0) + 1
        return hist

    def halo_nodes(self, rank: int, width: int = 1) -> int:
        """Number of halo nodes a rank exchanges per step (all directions)."""
        local = self.local_shape(rank)
        padded = np.prod([local[d] + 2 * width for d in range(3)])
        return int(padded - np.prod(local))
