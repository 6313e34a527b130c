"""A :class:`~repro.parallel.fsi.ParallelFSIRuntime` over a few small cells.

The runtime sizes its stencil buffers from a cell population, so the
IBM tests that drive it in physical units place small RBCs (2 µm,
42 vertices) and use the store's vertices as the markers.
"""

import numpy as np

from repro.fsi import CellManager
from repro.membrane import make_rbc
from repro.parallel.fsi import ParallelFSIRuntime


def add_cells(manager: CellManager, centers, diameter: float = 2e-6) -> None:
    for center in centers:
        manager.add(make_rbc(np.asarray(center, dtype=np.float64),
                             global_id=manager.allocate_id(),
                             diameter=diameter, subdivisions=1))


def runtime_with_cells(grid, centers, mode="wrap"):
    """(runtime synced to the population, the manager, its markers)."""
    manager = CellManager()
    add_cells(manager, centers)
    runtime = ParallelFSIRuntime(grid, mode=mode)
    runtime.sync_population(manager)
    return runtime, manager, manager.packed_vertices()[0]
