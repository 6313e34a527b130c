"""Cell-side helpers the product code no longer carries, kept as test oracles.

:func:`build_subgrid` indexed every vertex of a list of cells by owning
global ID in one fresh :class:`UniformSubgrid`.  The product path keeps
one cached index on the manager (``CellManager.vertex_subgrid``); the
overlap tests build theirs from an explicit cell list with this.

:func:`find_overlapping_vertices` is the brute-force pair check that the
subgrid paths (``UniformSubgrid.admit``) are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.fsi.subgrid import UniformSubgrid


def build_subgrid(cells, cutoff: float) -> UniformSubgrid:
    """Subgrid of all cell vertices labeled by owning global ID."""
    grid = UniformSubgrid(cell_size=cutoff)
    if cells:
        grid.insert(
            np.concatenate([c.vertices for c in cells]),
            np.repeat(
                np.array([c.global_id for c in cells], dtype=np.int64),
                [len(c.vertices) for c in cells],
            ),
        )
    return grid


def find_overlapping_vertices(cell_a, cell_b, cutoff: float) -> bool:
    """True when any vertex pair across the two cells lies within cutoff.

    Like the subgrid paths, a pair at exactly the cutoff overlaps.
    """
    a = cell_a.vertices
    b = cell_b.vertices
    # Broadcasted distance check with an early bounding-box rejection.
    lo_a, hi_a = a.min(axis=0) - cutoff, a.max(axis=0) + cutoff
    if np.any(b.max(axis=0) < lo_a) or np.any(b.min(axis=0) > hi_a):
        return False
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return bool((d2 <= cutoff * cutoff).any())
