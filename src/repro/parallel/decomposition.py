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


@dataclass(frozen=True)
class _Block:
    rank: int
    coords: tuple[int, int, int]
    lo: tuple[int, int, int]  # inclusive global start
    hi: tuple[int, int, int]  # exclusive global end


class BlockDecomposition:
    """Periodic Cartesian decomposition of a global lattice over ranks.

    The process grid is :func:`balanced_dims`' surface-minimizing
    factorization of ``n_tasks``; the split planes are uniform
    (``np.linspace``) on every axis, and every axis wraps around, so
    walls come only from the solver's ``solid`` map.
    """

    def __init__(self, shape: tuple[int, int, int], n_tasks: int) -> None:
        self.shape = tuple(shape)
        self.dims = balanced_dims(n_tasks, shape)
        self.n_tasks = n_tasks
        self.blocks: list[_Block] = []
        splits = [
            np.linspace(0, self.shape[d], self.dims[d] + 1).astype(np.int64)
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

    def neighbor(self, rank: int, offset: tuple[int, int, int]) -> int:
        """Rank of the (periodically wrapped) neighbor at a coordinate offset."""
        coords = self.blocks[rank].coords
        return self._rank_by_coords[tuple(
            (coords[d] + offset[d]) % self.dims[d] for d in range(3)
        )]

    def neighbors(self, rank: int) -> dict[tuple[int, int, int], int]:
        """All distinct D3Q19 neighbor ranks keyed by direction offset."""
        out: dict[tuple[int, int, int], int] = {}
        for q in range(1, D3Q19.Q):
            off = tuple(int(v) for v in D3Q19.c[q])
            nb = self.neighbor(rank, off)
            if nb != rank:
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
