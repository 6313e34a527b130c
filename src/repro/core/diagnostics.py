"""APR run diagnostics: coupling health and window occupancy.

Production moving-window runs need cheap online checks that the
fine/coarse coupling and the cell population stay healthy — the Python
counterparts of the monitoring a HARVEY campaign would log:

* interface velocity mismatch between the two lattices (the coupled
  fields must agree where they overlap);
* density deviation inside the window (compressibility artifacts show up
  here first when parameters drift out of the stable envelope);
* per-region cell occupancy (Fig. 3A anatomy: insertion / on-ramp /
  window-proper populations).
"""

from __future__ import annotations

import numpy as np

from ..lbm.collision import density, macroscopic
from ..membrane.cell import CellKind
from .window import Region


def interface_velocity_mismatch(coupling) -> float:
    """Max |u_fine - u_coarse| (lattice units) at coincident nodes.

    Samples the coarse nodes that the coupling restricts (window
    interior) and compares against the coincident fine nodes *before* the
    next restriction would overwrite them — at a converged coupled state
    the two lattices agree to interpolation accuracy.  Only those
    columns are gathered and their velocity formed; a node's moments do
    not depend on the block it is formed in.
    """
    coarse_idx = coupling.restriction_coarse_indices
    if coarse_idx is None:
        return 0.0
    fine_idx = coupling.restriction_fine_indices
    _, u_c = macroscopic(coupling.coarse.grid.f[(slice(None),) + coarse_idx])
    _, u_f = macroscopic(coupling.fine.grid.f[(slice(None),) + fine_idx])
    diff = u_c - u_f
    return float(np.abs(diff).max()) if diff.size else 0.0


def window_density_deviation(sim) -> float:
    """Max |rho - 1| over the window's fluid nodes (density alone)."""
    fg = sim.fine.grid
    rho = density(fg.f)
    fluid = ~fg.solid
    if not fluid.any():
        return 0.0
    return float(np.abs(rho[fluid] - 1.0).max())


def region_cell_counts(sim) -> dict[str, int]:
    """RBC counts per window region (Fig. 3A occupancy)."""
    window = sim.window
    counts = {"proper": 0, "onramp": 0, "insertion": 0, "outside": 0}
    names = {
        int(Region.PROPER): "proper",
        int(Region.ONRAMP): "onramp",
        int(Region.INSERTION): "insertion",
        int(Region.OUTSIDE): "outside",
    }
    for cell in sim.cells.cells:
        if cell.kind is not CellKind.RBC:
            continue
        region = int(window.classify(cell.centroid()[None])[0])
        counts[names[region]] += 1
    return counts


def health_report(sim) -> dict[str, float]:
    """One-call health snapshot of an APRSimulation."""
    counts = region_cell_counts(sim)
    return {
        "interface_velocity_mismatch": interface_velocity_mismatch(sim.coupling),
        "window_density_deviation": window_density_deviation(sim),
        "window_hematocrit": sim.window_hematocrit(),
        "cells_proper": float(counts["proper"]),
        "cells_onramp": float(counts["onramp"]),
        "cells_insertion": float(counts["insertion"]),
        "cells_outside": float(counts["outside"]),
        "window_moves": float(len(sim.move_reports)),
        "time": sim.time,
    }
