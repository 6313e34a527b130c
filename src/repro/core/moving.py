"""Moving the window with its resolved cells (Section 2.4.3 / Fig. 3B).

When the CTC nears the window boundary the window is relocated to
re-center it.  To avoid re-initializing a full load of undeformed cells:

1. cells are sorted into the **capture region** — the interior
   (proper + on-ramp) box of the *new* window position, whose boundary by
   construction aligns with the new insertion shell's inner edge — and
   the rest of the window;
2. every window cell is shifted by the window displacement, and the
   ones landing in the **fill region** (new interior minus capture
   region) are deep-copied there, so the fill volume receives
   already-equilibrated, deformed cell shapes rather than fresh spheres;
3. cells outside the new window are removed, overlaps are resolved
   deterministically by global ID, and the insertion shell is re-seeded
   by the hematocrit controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import OVERLAP_CUTOFF
from ..fsi.cell_manager import CellManager
from ..fsi.subgrid import UniformSubgrid
from ..membrane.cell import Cell, CellKind
from ..telemetry import get_telemetry
from .window import Window


def classify_for_move(
    cells: list[Cell], old_window: Window, new_window: Window
) -> tuple[list[Cell], list[Cell]]:
    """Split window cells into (capture, rest) for a pending move.

    The capture region is the interior box of the new window: cells
    already equilibrated around the CTC that will be preserved in place.
    """
    lo_cap, hi_cap = new_window.interior_bounds()
    capture: list[Cell] = []
    rest: list[Cell] = []
    for cell in cells:
        c = cell.centroid()
        if np.all(c >= lo_cap) and np.all(c <= hi_cap):
            capture.append(cell)
        else:
            rest.append(cell)
    return capture, rest


@dataclass
class MoveReport:
    """Bookkeeping from one window move (used by tests and EXPERIMENTS)."""

    displacement: np.ndarray
    n_captured: int
    n_filled: int
    n_removed: int
    n_inserted: int


class WindowMover:
    """Executes the capture/fill cell relocation for a window move.

    Fill clones closer than :data:`~repro.constants.OVERLAP_CUTOFF` to a
    kept cell or an earlier clone are dropped.
    """

    def move_cells(
        self,
        manager: CellManager,
        old_window: Window,
        new_window: Window,
        protect: set[int] = frozenset(),
    ) -> MoveReport:
        """Relocate the RBC population for a window move.

        ``protect`` lists global IDs never copied or removed (the CTC).
        Captured cells are untouched; fill-region cells are deep copies of
        equilibrated window cells shifted by the window displacement;
        everything else inside the old window is dropped.  Insertion-shell
        re-seeding is the caller's job (the hematocrit controller runs
        right after the move).
        """
        tel = get_telemetry()
        displacement = new_window.center - old_window.center
        with tel.phase("capture"):
            rbcs = [
                c for c in manager.cells
                if c.kind is CellKind.RBC and c.global_id not in protect
            ]
            capture, rest = classify_for_move(rbcs, old_window, new_window)
            capture_ids = {c.global_id for c in capture}

            # Subgrid over kept (captured + protected) cells for overlap
            # checks, built with one bulk insert.
            occupied = UniformSubgrid(cell_size=OVERLAP_CUTOFF)
            kept = [
                cell for cell in manager.cells
                if cell.global_id in capture_ids or cell.global_id in protect
            ]
            if kept:
                occupied.insert(
                    np.concatenate([c.vertices for c in kept]),
                    np.repeat(
                        np.array([c.global_id for c in kept], dtype=np.int64),
                        [len(c.vertices) for c in kept],
                    ),
                )

        lo_int, hi_int = new_window.interior_bounds()

        # Shift every old-window cell into the new frame under a fresh ID;
        # deep-copy the ones that land in the fill region (interior minus
        # capture) and keep those clear of captured and earlier-filled
        # cells, resolved in ID order in one pass.
        with tel.phase("fill"):
            landed: list[Cell] = []
            for cell in sorted(rbcs, key=lambda c: c.global_id):
                gid = manager.allocate_id()
                centroid = (cell.vertices + displacement).mean(axis=0)
                if np.all(centroid >= lo_int) and np.all(centroid <= hi_int):
                    clone = cell.copy(new_id=gid)
                    clone.translate(displacement)
                    landed.append(clone)
            keep = occupied.admit(
                [c.vertices for c in landed], [c.global_id for c in landed],
                OVERLAP_CUTOFF,
            )
            fills = [clone for clone, k in zip(landed, keep) if k]
            n_filled = len(fills)

            # Remove old cells that were not captured.
            doomed = [c.global_id for c in rest]
            for gid in doomed:
                manager.remove(gid)
            for clone in fills:
                manager.add(clone)

        tel.inc("window.cells_captured", len(capture))
        tel.inc("window.cells_filled", n_filled)
        tel.inc("window.cells_dropped", len(doomed))
        return MoveReport(
            displacement=displacement,
            n_captured=len(capture),
            n_filled=n_filled,
            n_removed=len(doomed),
            n_inserted=0,
        )
