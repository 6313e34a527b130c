"""Cell-side helpers the product code no longer carries, kept as test oracles.

:func:`build_subgrid` indexed every vertex of a list of cells by owning
global ID in one fresh :class:`UniformSubgrid`.  The product path keeps
one cached index on the manager (``CellManager.vertex_subgrid``); the
overlap tests build theirs from an explicit cell list with this.
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
