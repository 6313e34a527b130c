"""Cell population management with pooled storage and batched mechanics.

:class:`CellManager` owns every cell in one simulation region.  Cells are
grouped by (mesh topology, mechanical moduli); each group's vertices live
in a :class:`~repro.fsi.pool.VertexPool` so membrane forces for the whole
group evaluate as one batched array operation — the Python counterpart of
the paper's pooled GPU cell buffers (Section 2.4.5).

On top of the pools the manager keeps a *packed* view of the population:
one persistent (N, 3) vertex array, the per-vertex cell ordinals, and the
flat cell list, all rebuilt only when membership changes (``add`` /
``remove`` / a pool growth bump the generation counter).  The per-step
hot path (force assembly, IBM coupling, advection) works on these packed
arrays with one vectorized gather/scatter per group instead of Python
loops over cells.

Global IDs are allocated monotonically by the manager and never reused,
which the deterministic overlap-removal rule (Section 2.4.2) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..membrane.cell import Cell, CellKind
from ..membrane.forces import membrane_forces
from ..telemetry import get_telemetry
from .contact import ContactList
from .pool import VertexPool


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
    pool: VertexPool
    cells: list[Cell] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)
    last_grow_events: int = 0


class _PackedCache:
    """Structure of the packed population, valid for one generation."""

    __slots__ = ("generation", "verts", "forces", "ordinals", "cells",
                 "segments", "splits")

    def __init__(self, generation: int):
        self.generation = generation
        #: (group, slots ndarray, packed start row, packed stop row)
        self.segments: list[tuple[_Group, np.ndarray, int, int]] = []
        self.cells: list[Cell] = []
        self.ordinals = np.empty(0, dtype=np.int64)
        self.verts = np.empty((0, 3), dtype=np.float64)
        self.forces = np.empty((0, 3), dtype=np.float64)
        #: Row offsets between consecutive cells (np.split boundaries).
        self.splits = np.empty(0, dtype=np.intp)


class CellManager:
    """Container for all cells in a region, with batched force evaluation."""

    def __init__(
        self,
        contact_cutoff: float = 0.5e-6,
        contact_stiffness: float = 2.0e-10,
    ):
        self._groups: dict[tuple, _Group] = {}
        self._by_id: dict[int, tuple[tuple, int]] = {}  # id -> (group key, idx)
        self._next_id = 0
        self.contact_cutoff = contact_cutoff
        self.contact_stiffness = contact_stiffness
        self._generation = 0
        self._position_version = 0
        self._packed: _PackedCache | None = None
        self._contacts = ContactList()
        self._subgrid = None
        self._subgrid_key: tuple | None = None

    # -- id allocation ------------------------------------------------------
    def allocate_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def reserve_ids(self, count: int) -> range:
        """Reserve a contiguous block of IDs (used by tile stamping)."""
        start = self._next_id
        self._next_id += count
        return range(start, start + count)

    # -- membership ---------------------------------------------------------
    @property
    def generation(self) -> int:
        """Bumped whenever membership or storage layout changes."""
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
        """Insert a cell; its vertices are rebound into pooled storage."""
        if cell.global_id in self._by_id:
            raise ValueError(f"duplicate global id {cell.global_id}")
        if cell.global_id >= self._next_id:
            self._next_id = cell.global_id + 1
        key = _group_key(cell)
        group = self._groups.get(key)
        if group is None:
            group = _Group(
                reference=cell.reference,
                pool=VertexPool(cell.reference.n_vertices),
            )
            self._groups[key] = group
        slot = group.pool.acquire(cell.vertices)
        if group.pool.grow_events != group.last_grow_events:
            self._rebind(group)
            get_telemetry().inc("cells.pool_grows")
        cell.vertices = group.pool.view(slot)
        group.cells.append(cell)
        group.slots.append(slot)
        self._by_id[cell.global_id] = (key, len(group.cells) - 1)
        self._generation += 1
        get_telemetry().inc("cells.inserted")
        return cell

    def remove(self, global_id: int) -> Cell:
        """Remove a cell by global ID; its pool slot is recycled."""
        key, idx = self._by_id.pop(global_id)
        group = self._groups[key]
        cell = group.cells[idx]
        group.pool.release(group.slots[idx])
        # Swap-remove keeps lists compact; fix the moved cell's index.
        last = len(group.cells) - 1
        if idx != last:
            group.cells[idx] = group.cells[last]
            group.slots[idx] = group.slots[last]
            self._by_id[group.cells[idx].global_id] = (key, idx)
        group.cells.pop()
        group.slots.pop()
        # Detach the removed cell from the pool (give it its own copy).
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

    def _rebind(self, group: _Group) -> None:
        """Refresh cell vertex views after a pool growth reallocated storage."""
        for cell, slot in zip(group.cells, group.slots):
            cell.vertices = group.pool.view(slot)
        group.last_grow_events = group.pool.grow_events

    # -- packed storage ------------------------------------------------------
    def _packed_cache(self) -> _PackedCache:
        """Packed-layout metadata, rebuilt only when the generation bumps."""
        p = self._packed
        if p is not None and p.generation == self._generation:
            return p
        p = _PackedCache(self._generation)
        ordinals = []
        start = 0
        for group in self._groups.values():
            if not group.cells:
                continue
            n_cells_before = len(p.cells)
            b, v = len(group.cells), group.pool.n_vertices
            stop = start + b * v
            p.segments.append(
                (group, np.asarray(group.slots, dtype=np.intp), start, stop)
            )
            ordinals.append(
                np.repeat(np.arange(n_cells_before, n_cells_before + b), v)
            )
            p.cells.extend(group.cells)
            start = stop
        if ordinals:
            p.ordinals = np.concatenate(ordinals).astype(np.int64)
        p.verts = np.empty((start, 3), dtype=np.float64)
        p.forces = np.empty((start, 3), dtype=np.float64)
        counts = np.array([len(c.vertices) for c in p.cells], dtype=np.intp)
        p.splits = np.cumsum(counts)[:-1] if len(counts) else counts
        self._packed = p
        return p

    def _refresh_packed_vertices(self) -> _PackedCache:
        """Gather current pool contents into the persistent packed array."""
        p = self._packed_cache()
        for group, slots, start, stop in p.segments:
            group.pool.gather(
                slots, out=p.verts[start:stop].reshape(len(slots), -1, 3)
            )
        return p

    # -- bulk geometry -------------------------------------------------------
    def packed_vertices(self) -> tuple[np.ndarray, np.ndarray, list[Cell]]:
        """Persistent packed vertex array, per-vertex ordinal, cell list.

        Same ordering contract as :meth:`all_vertices`, but the returned
        arrays are *owned by the manager*: they are refreshed in place on
        the next call and must be treated as read-only snapshots.  This is
        the per-step hot path used by the FSI stepper.
        """
        p = self._refresh_packed_vertices()
        return p.verts, p.ordinals, p.cells

    def packed_segments(self):
        """Yield ``(reference, sample cell, start row, n_cells, n_vertices)``
        for every packed group segment (packed order).

        ``start row`` is the segment's first row in the packed arrays;
        cell ``c`` of the segment owns rows ``start + c*n_vertices``
        onward.  The sample cell carries the group's shared moduli.
        """
        p = self._packed_cache()
        for group, slots, start, _stop in p.segments:
            yield (group.reference, group.cells[0], start,
                   len(group.cells), group.pool.n_vertices)

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
        p = self._refresh_packed_vertices()
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
        for the zero-copy variant).
        """
        p = self._packed_cache()
        if not p.cells:
            return np.empty((0, 3)), np.empty(0, dtype=np.int64), []
        verts = np.empty_like(p.verts)
        for group, slots, start, stop in p.segments:
            group.pool.gather(
                slots, out=verts[start:stop].reshape(len(slots), -1, 3)
            )
        return verts, p.ordinals, list(p.cells)

    def centroids(self) -> np.ndarray:
        p = self._refresh_packed_vertices()
        if not p.cells:
            return np.empty((0, 3))
        starts = np.concatenate(([0], p.splits)).astype(np.intp)
        sums = np.add.reduceat(p.verts, starts, axis=0)
        counts = np.diff(np.concatenate((starts, [len(p.verts)])))
        return sums / counts[:, None]

    # -- mechanics -----------------------------------------------------------
    def _group_membrane_forces(self, group: _Group, verts: np.ndarray) -> np.ndarray:
        """Batched membrane forces (B, V, 3) for one group at its (B, V, 3)
        vertex positions."""
        sample = group.cells[0]
        return membrane_forces(
            verts, group.reference,
            sample.shear_modulus, sample.skalak_C, sample.k_bend,
            sample.k_area, sample.k_volume,
        )

    def membrane_force_batches(self):
        """Yield ``(cells, (B, V, 3) forces)`` per group, packed order.

        This is the no-dict-hop path: each group's batched force array is
        produced once and consumed group-wise, without splitting it into
        per-cell dictionary entries.
        """
        p = self._packed_cache()
        for group, slots, _, _ in p.segments:
            yield group.cells, self._group_membrane_forces(
                group, group.pool.gather(slots)
            )

    def membrane_forces(self) -> dict[int, np.ndarray]:
        """Batched membrane forces for every cell, keyed by global ID [N]."""
        out: dict[int, np.ndarray] = {}
        for cells, f in self.membrane_force_batches():
            for cell, fi in zip(cells, f):
                out[cell.global_id] = fi
        return out

    def contact_forces(self) -> np.ndarray:
        """Inter-cell contact forces (N, 3) at the packed vertices as
        last refreshed (:meth:`packed_vertices` / :meth:`total_forces`).

        The manager's :class:`~repro.fsi.contact.ContactList` is carried
        across steps and keyed on the generation.  The result is scratch
        storage: fold it into an accumulator before the next call.
        """
        p = self._packed_cache()
        return self._contacts.forces(
            p.verts, p.ordinals, self.contact_cutoff, self.contact_stiffness,
            key=self._generation,
        )

    def total_forces(self) -> tuple[np.ndarray, np.ndarray, list[Cell]]:
        """Membrane + contact forces aligned with :meth:`all_vertices`.

        Returns the manager-owned packed force and vertex arrays (see
        :meth:`packed_vertices` for the ownership contract).
        """
        p = self._refresh_packed_vertices()
        if not p.cells:
            return np.empty((0, 3)), p.verts, []
        for group, slots, start, stop in p.segments:
            f = self._group_membrane_forces(
                group, p.verts[start:stop].reshape(len(slots), -1, 3)
            )
            p.forces[start:stop] = f.reshape(-1, 3)
        p.forces += self.contact_forces()
        return p.forces, p.verts, p.cells

    def update_vertices(self, displacements: np.ndarray) -> None:
        """Advect all vertices by stacked displacements (same ordering)."""
        p = self._packed_cache()
        if len(displacements) != p.verts.shape[0]:
            raise ValueError("displacement array does not match vertex count")
        for group, slots, start, stop in p.segments:
            group.pool.scatter_add(
                slots, displacements[start:stop].reshape(len(slots), -1, 3)
            )
        self._position_version += 1

    def set_velocities(self, velocities: np.ndarray) -> None:
        """Assign per-vertex velocities (packed ordering) onto the cells.

        Cells receive ``np.split`` views into ``velocities``; the caller
        must hand over ownership of the array (the stepper passes a fresh
        physical-velocity array every step).
        """
        p = self._packed_cache()
        if len(velocities) != p.verts.shape[0]:
            raise ValueError("velocity array does not match vertex count")
        if not p.cells:
            return
        for cell, v in zip(p.cells, np.split(velocities, p.splits)):
            cell.velocities = v
