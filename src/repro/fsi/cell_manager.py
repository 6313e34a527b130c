"""Cell population management: one packed store, batched mechanics.

:class:`CellManager` owns every cell in one simulation region.  Cells are
grouped by (mesh topology, mechanical moduli) so membrane forces for a
whole group evaluate as one batched array operation.  The population
lives in one *store* — the Python counterpart of the paper's pooled cell
buffer (Section 2.4.5): one (N, 3) vertex array and one (N, 3) force
array, with every cell's ``vertices`` a view of its own rows, plus the
per-vertex cell ordinals and the flat cell list.  Rows run in packed
order: groups in insertion order, cells in group order.  ``add`` /
``remove`` mark the store stale; the next access rebuilds it into fresh
arrays at the cells' current positions and rebinds their views.  The
per-step hot path (force assembly, IBM coupling, advection) reads and
advances the store directly.

Global IDs are allocated monotonically by the manager and never reused,
which the deterministic overlap-removal rule (Section 2.4.2) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import OVERLAP_CUTOFF, REPULSION_STIFFNESS
from ..membrane.cell import Cell
from ..membrane.forces import membrane_forces
from ..telemetry import get_telemetry
from .contact import ContactList


def _group_key(cell: Cell) -> tuple:
    return (
        id(cell.reference),
        cell.shear_modulus,
        cell.skalak_C,
        cell.bending_modulus,
        cell.k_area,
        cell.k_volume,
    )


@dataclass
class _Group:
    reference: object
    cells: list[Cell] = field(default_factory=list)


class _Store:
    """The packed population of one membership generation.

    Built from the cells' current positions into fresh arrays; every
    cell's ``vertices`` is then rebound to a view of its own rows.
    """

    __slots__ = ("generation", "verts", "forces", "ordinals", "cells",
                 "segments", "splits")

    def __init__(self, generation: int, groups):
        self.generation = generation
        #: (group, packed start row, packed stop row)
        self.segments: list[tuple[_Group, int, int]] = []
        self.cells: list[Cell] = []
        ordinals = []
        start = 0
        for group in groups:
            if not group.cells:
                continue
            b, v = len(group.cells), group.reference.n_vertices
            stop = start + b * v
            self.segments.append((group, start, stop))
            ordinals.append(np.repeat(np.arange(len(self.cells),
                                                len(self.cells) + b), v))
            self.cells.extend(group.cells)
            start = stop
        self.ordinals = (np.concatenate(ordinals).astype(np.int64)
                         if ordinals else np.empty(0, dtype=np.int64))
        self.verts = np.empty((start, 3), dtype=np.float64)
        self.forces = np.empty((start, 3), dtype=np.float64)
        counts = np.array([len(c.vertices) for c in self.cells], dtype=np.intp)
        #: Row offsets between consecutive cells (np.split boundaries).
        self.splits = np.cumsum(counts)[:-1] if len(counts) else counts
        if self.cells:
            np.concatenate([c.vertices for c in self.cells], out=self.verts)
            for cell, rows in zip(self.cells, np.split(self.verts, self.splits)):
                cell.vertices = rows


class CellManager:
    """Container for all cells in a region, with batched force evaluation."""

    def __init__(self, contact_cutoff: float = OVERLAP_CUTOFF):
        self._groups: dict[tuple, _Group] = {}
        self._by_id: dict[int, tuple[tuple, int]] = {}  # id -> (group key, idx)
        self._next_id = 0
        self.contact_cutoff = contact_cutoff
        self._generation = 0
        self._position_version = 0
        self._packed: _Store | None = None
        self._contacts = ContactList()
        self._subgrid = None
        self._subgrid_key: tuple | None = None

    # -- id allocation ------------------------------------------------------
    def allocate_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    @property
    def next_id(self) -> int:
        """The ID :meth:`allocate_id` hands out next."""
        return self._next_id

    # -- membership ---------------------------------------------------------
    @property
    def generation(self) -> int:
        """Bumped whenever membership changes."""
        return self._generation

    @property
    def position_version(self) -> int:
        """Bumped whenever vertex positions move (advection)."""
        return self._position_version

    @property
    def cells(self) -> list[Cell]:
        out: list[Cell] = []
        for g in self._groups.values():
            out.extend(g.cells)
        return out

    @property
    def n_cells(self) -> int:
        return sum(len(g.cells) for g in self._groups.values())

    def __contains__(self, global_id: int) -> bool:
        return global_id in self._by_id

    def get(self, global_id: int) -> Cell:
        key, idx = self._by_id[global_id]
        return self._groups[key].cells[idx]

    def add(self, cell: Cell) -> Cell:
        """Insert a cell; it keeps a copy of its vertices until the store
        is next rebuilt, then views its rows there."""
        if cell.global_id in self._by_id:
            raise ValueError(f"duplicate global id {cell.global_id}")
        if cell.global_id >= self._next_id:
            self._next_id = cell.global_id + 1
        key = _group_key(cell)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(reference=cell.reference)
        cell.vertices = np.array(cell.vertices, dtype=np.float64)
        group.cells.append(cell)
        self._by_id[cell.global_id] = (key, len(group.cells) - 1)
        self._generation += 1
        get_telemetry().inc("cells.inserted")
        return cell

    def remove(self, global_id: int) -> Cell:
        """Remove a cell by global ID; it leaves with its own copy of its
        vertices."""
        key, idx = self._by_id.pop(global_id)
        group = self._groups[key]
        cell = group.cells[idx]
        # Swap-remove keeps lists compact; fix the moved cell's index.
        last = len(group.cells) - 1
        if idx != last:
            group.cells[idx] = group.cells[last]
            self._by_id[group.cells[idx].global_id] = (key, idx)
        group.cells.pop()
        cell.vertices = np.array(cell.vertices)
        self._generation += 1
        get_telemetry().inc("cells.removed")
        return cell

    def remove_where(self, predicate) -> list[Cell]:
        """Remove every cell for which ``predicate(cell)`` is true.

        The predicate pass iterates the groups directly, so it does not
        pay the O(n) combined-list rebuild of the ``cells`` property.
        """
        doomed = [
            c.global_id
            for g in self._groups.values()
            for c in g.cells
            if predicate(c)
        ]
        return [self.remove(gid) for gid in doomed]

    def replace_cells(self, cells, next_id: int = 0) -> list[Cell]:
        """Make copies of ``cells``, added in the order given, the whole
        population (a checkpoint restore); returns the copies.

        The manager changes in place, since steppers hold it; the copies
        keep the source's arrays independent.  The order given becomes
        the packed order within each group.  ID allocation resumes at
        ``next_id`` or after the largest ID seen, whichever is later.
        """
        for gid in list(self._by_id):
            self.remove(gid)
        added = [self.add(c.copy()) for c in cells]
        self._next_id = max(self._next_id, int(next_id))
        return added

    # -- the store -----------------------------------------------------------
    def _store(self) -> _Store:
        """The packed store, rebuilt only when the generation bumps."""
        p = self._packed
        if p is None or p.generation != self._generation:
            p = self._packed = _Store(self._generation, self._groups.values())
        return p

    # -- bulk geometry -------------------------------------------------------
    def packed_vertices(self) -> tuple[np.ndarray, np.ndarray, list[Cell]]:
        """The store's vertex array, per-vertex ordinal, cell list.

        Same ordering contract as :meth:`all_vertices`, but the arrays
        are *the manager's storage*: the vertex array is what every
        cell's ``vertices`` views, it moves with :meth:`update_vertices`
        and is replaced at the next membership change.  Treat it as
        read-only.  This is the per-step hot path used by the FSI stepper.
        """
        p = self._store()
        return p.verts, p.ordinals, p.cells

    def packed_segments(self):
        """Yield ``(reference, sample cell, start row, n_cells, n_vertices)``
        for every packed group segment (packed order).

        ``start row`` is the segment's first row in the packed arrays;
        cell ``c`` of the segment owns rows ``start + c*n_vertices``
        onward.  The sample cell carries the group's shared moduli.
        """
        for group, start, _stop in self._store().segments:
            yield (group.reference, group.cells[0], start,
                   len(group.cells), group.reference.n_vertices)

    def vertex_subgrid(self, cell_size: float) -> "UniformSubgrid":
        """Persistent vertex subgrid labeled by owning global ID.

        Cached against ``(generation, position_version, cell_size)`` so
        repeated hematocrit-maintenance passes over an unchanged
        population reuse one build.  Callers may ``insert`` additional
        points (tile stamping does); membership changes bump the
        generation, which invalidates the cache on the next call.
        """
        from .subgrid import UniformSubgrid  # deferred: import cycle safety

        key = (self._generation, self._position_version, float(cell_size))
        if self._subgrid is not None and self._subgrid_key == key:
            return self._subgrid
        sg = UniformSubgrid(cell_size=cell_size)
        p = self._store()
        if p.cells:
            gids = np.fromiter(
                (c.global_id for c in p.cells), dtype=np.int64,
                count=len(p.cells),
            )
            sg.insert(p.verts, gids[p.ordinals])
        self._subgrid = sg
        self._subgrid_key = key
        return sg

    def all_vertices(self) -> tuple[np.ndarray, np.ndarray, list[Cell]]:
        """All vertices stacked (N, 3), per-vertex cell ordinal, cell list.

        Ordering is deterministic: groups in insertion order, cells in
        group order; the ordinal indexes into the returned cell list.
        The vertex array is a fresh copy (see :meth:`packed_vertices`
        for the store itself).
        """
        p = self._store()
        return p.verts.copy(), p.ordinals, list(p.cells)

    def centroids(self) -> np.ndarray:
        p = self._store()
        if not p.cells:
            return np.empty((0, 3))
        starts = np.concatenate(([0], p.splits)).astype(np.intp)
        sums = np.add.reduceat(p.verts, starts, axis=0)
        counts = np.diff(np.concatenate((starts, [len(p.verts)])))
        return sums / counts[:, None]

    # -- mechanics -----------------------------------------------------------
    def _group_membrane_forces(
        self, group: _Group, verts: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched membrane forces (B, V, 3) for one group at its (B, V, 3)
        vertex positions, into ``out`` when given."""
        sample = group.cells[0]
        return membrane_forces(
            verts, group.reference,
            sample.shear_modulus, sample.skalak_C, sample.k_bend,
            sample.k_area, sample.k_volume, out=out,
        )

    def membrane_forces(self) -> dict[int, np.ndarray]:
        """Batched membrane forces for every cell, keyed by global ID [N]."""
        out: dict[int, np.ndarray] = {}
        p = self._store()
        for group, start, stop in p.segments:
            f = self._group_membrane_forces(
                group, p.verts[start:stop].reshape(len(group.cells), -1, 3)
            )
            out.update(zip((c.global_id for c in group.cells), f))
        return out

    def contact_forces(self) -> np.ndarray:
        """Inter-cell contact forces (N, 3) at the stored vertices.

        The manager's :class:`~repro.fsi.contact.ContactList` is carried
        across steps and keyed on the generation.  The result is scratch
        storage: fold it into an accumulator before the next call.
        """
        p = self._store()
        return self._contacts.forces(
            p.verts, p.ordinals, self.contact_cutoff, REPULSION_STIFFNESS,
            key=self._generation,
        )

    def total_forces(self) -> tuple[np.ndarray, np.ndarray, list[Cell]]:
        """Membrane + contact forces aligned with :meth:`all_vertices`.

        Returns the store's force and vertex arrays (see
        :meth:`packed_vertices` for the ownership contract).
        """
        p = self._store()
        if not p.cells:
            return np.empty((0, 3)), p.verts, []
        for group, start, stop in p.segments:
            shape = (len(group.cells), -1, 3)
            self._group_membrane_forces(
                group, p.verts[start:stop].reshape(shape),
                out=p.forces[start:stop].reshape(shape),
            )
        p.forces += self.contact_forces()
        return p.forces, p.verts, p.cells

    def update_vertices(self, displacements: np.ndarray) -> None:
        """Advect all vertices by stacked displacements (same ordering)."""
        p = self._store()
        if len(displacements) != p.verts.shape[0]:
            raise ValueError("displacement array does not match vertex count")
        p.verts += displacements
        self._position_version += 1

    def set_velocities(self, velocities: np.ndarray) -> None:
        """Assign per-vertex velocities (packed ordering) onto the cells.

        Cells receive ``np.split`` views into ``velocities``; the caller
        must hand over ownership of the array (the stepper passes a fresh
        physical-velocity array every step).
        """
        p = self._store()
        if len(velocities) != p.verts.shape[0]:
            raise ValueError("velocity array does not match vertex count")
        if not p.cells:
            return
        for cell, v in zip(p.cells, np.split(velocities, p.splits)):
            cell.velocities = v
