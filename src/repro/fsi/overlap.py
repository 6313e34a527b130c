"""Overlap detection and deterministic removal (Section 2.4.2).

When a tile of RBCs is stamped into an insertion subregion, some of the
new cells overlap cells already present.  The paper removes them with an
algorithm that (a) finds nearby cells at each vertex of the tested cell
through a background uniform subgrid and (b) breaks conflicts by *global
ID* so the surviving set is identical for any MPI task count.  The same
rule is implemented here: when two cells overlap, the one with the higher
global ID is removed.
"""

from __future__ import annotations

import numpy as np

from ..membrane.cell import Cell
from .subgrid import UniformSubgrid


def find_overlapping_vertices(
    cell_a: "Cell", cell_b: "Cell", cutoff: float
) -> bool:
    """True when any vertex pair across the two cells lies within cutoff.

    Brute-force reference implementation used by tests to validate the
    subgrid-accelerated path; like it, a pair at exactly the cutoff
    overlaps.
    """
    a = cell_a.vertices
    b = cell_b.vertices
    # Broadcasted distance check with an early bounding-box rejection.
    lo_a, hi_a = a.min(axis=0) - cutoff, a.max(axis=0) + cutoff
    if np.any(b.max(axis=0) < lo_a) or np.any(b.min(axis=0) > hi_a):
        return False
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return bool((d2 <= cutoff * cutoff).any())


def cell_overlaps_existing(
    candidate: "Cell", subgrid: UniformSubgrid, cutoff: float
) -> bool:
    """True when ``candidate`` comes within ``cutoff`` of any indexed cell.

    The subgrid must not contain the candidate's own vertices.
    """
    labels = subgrid.query_labels_near(candidate.vertices, cutoff)
    labels.discard(candidate.global_id)
    return bool(labels)


def remove_overlaps(cells: list["Cell"], cutoff: float) -> list["Cell"]:
    """Return the subset of cells surviving deterministic overlap removal.

    Cells are accepted in ascending global-ID order unless they overlap an
    already-accepted cell (one :meth:`UniformSubgrid.admit` pass); an
    overlapping cell (higher ID by construction) is dropped.  The result is
    independent of the input ordering and — because IDs are global — of
    how cells were distributed across tasks when they were created.
    """
    ordered = sorted(cells, key=lambda c: c.global_id)
    keep = UniformSubgrid(cell_size=cutoff).admit(
        [c.vertices for c in ordered], [c.global_id for c in ordered], cutoff
    )
    return [cell for cell, k in zip(ordered, keep) if k]
