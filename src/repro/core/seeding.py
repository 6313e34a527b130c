"""RBC tiles, subregion stamping, and hematocrit maintenance.

Section 2.4.2 of the paper: the insertion shell is divided into cubic
subregions; each is populated by stamping a randomly rotated/offset copy
of a *pre-defined tile* of RBCs at a prescribed density, and monitored by
counting the RBCs whose centroid lies within it.  When a subregion's
hematocrit falls below a threshold, new undeformed cells are added —
skipping any candidate that would overlap an existing cell (detected with
the background uniform subgrid).

Stamping visits only the periodic tile copies that can reach the box.
Copy ``s`` places cell ``i`` at ``R (c_i + o + s - L (n + 1/2)) + b``
(stamp rotation ``R``, offset ``o``, tile side ``L``, box centre ``b``).
With ``c̄`` and ``r_t`` the centre and half-diagonal of the bounding box of
the tile centres, every centre of the copy lies within ``r_t`` of
``m_s = c̄ + o + s - L (n + 1/2)`` before rotation, so, since a rotation
keeps distances, within ``r_t`` of ``R m_s + b`` after it.  A copy whose
point ``R m_s + b`` is farther than ``r_t`` from the box therefore has no
centre in it, and skipping the copy removes no candidate.  Because every
point of the box lies within ``|hi - lo| / 2`` of ``b``, a surviving copy
also has ``|m_s| <= r_t + |hi - lo| / 2``; that weaker bound, applied to
each axis of ``m_s`` alone, discards most copies before the rotated
test.  ``r_t`` carries a relative margin far above floating-point
rounding.  The surviving copies run the full scan's per-copy code in its
nested order, so the candidate list is exactly the full scan's
(``tests/core/reference_bodies.py`` keeps that scan as the oracle).

The hematocrit controller computes the geometry of a window placement —
subregion boxes, the wall filter and the fluid fractions — once per
placement, and takes the volumes and centroids of all RBCs from one
batched evaluation over the packed vertices (:func:`rbc_census`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analytics.hematocrit import region_hematocrit
from ..constants import RBC_DIAMETER
from ..fsi.cell_manager import CellManager
from ..fsi.subgrid import UniformSubgrid
from ..membrane.cell import Cell, CellKind, make_rbc, random_rotation
from ..membrane.constraints import mesh_volume
from ..telemetry import get_telemetry
from .window import Window


@dataclass(frozen=True)
class RBCTile:
    """A pre-defined periodic arrangement of RBC centers and orientations.

    Built once per target hematocrit by random sequential insertion with a
    minimum centroid spacing; stamped (with a random rigid transform) into
    insertion subregions at placement and repopulation time.

    ``shapes`` optionally stores *pre-deformed* centroid-free vertex
    arrays per cell (produced by :func:`equilibrate_tile`), so stamped
    cells enter the simulation already flow-equilibrated instead of as
    pristine discocytes — shortening the on-ramp transit the paper uses
    to avoid unphysical CTC interactions.
    """

    side: float
    hematocrit: float
    centers: np.ndarray  # (M, 3) in [0, side)^3
    rotations: np.ndarray  # (M, 3, 3)
    cell_volume: float
    shapes: tuple | None = None  # optional per-cell (V, 3) deformed shapes

    @classmethod
    def build(
        cls,
        hematocrit: float,
        side: float,
        seed: int = 0,
        diameter: float = RBC_DIAMETER,
        cell_volume: float | None = None,
        min_spacing_factor: float = 0.55,
        max_attempts_factor: int = 200,
    ) -> "RBCTile":
        """Random-sequential-insertion tile at the requested hematocrit.

        ``min_spacing_factor`` scales the RBC diameter into the minimum
        centroid separation; 0.55 reflects that biconcave discs pack much
        closer than spheres of the same diameter.
        """
        if not 0.0 < hematocrit < 0.6:
            raise ValueError("tile hematocrit must be in (0, 0.6)")
        if cell_volume is None:
            from ..membrane.cell import reference_for

            cell_volume = reference_for(CellKind.RBC, diameter, 3).volume0
        rng = np.random.default_rng(seed)
        target_count = int(np.round(hematocrit * side**3 / cell_volume))
        min_d = min_spacing_factor * diameter
        centers: list[np.ndarray] = []
        attempts = 0
        max_attempts = max_attempts_factor * max(target_count, 1)
        while len(centers) < target_count and attempts < max_attempts:
            attempts += 1
            c = rng.uniform(0.0, side, size=3)
            ok = True
            for prev in centers:
                # Periodic minimum-image distance within the tile.
                d = np.abs(c - prev)
                d = np.minimum(d, side - d)
                if (d @ d) < min_d * min_d:
                    ok = False
                    break
            if ok:
                centers.append(c)
        if len(centers) < target_count:
            raise RuntimeError(
                f"tile packing stalled at Ht="
                f"{len(centers) * cell_volume / side**3:.3f} "
                f"(target {hematocrit}); increase side or lower hematocrit"
            )
        rotations = np.stack([random_rotation(rng) for _ in centers])
        return cls(
            side=side,
            hematocrit=hematocrit,
            centers=np.array(centers),
            rotations=rotations,
            cell_volume=float(cell_volume),
        )

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def tile_candidates(
    tile: RBCTile,
    lo: np.ndarray,
    hi: np.ndarray,
    stamp_rot: np.ndarray,
    offset: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray, int]], int]:
    """Cells of a rotated, offset periodic copy of ``tile`` inside [lo, hi).

    Returns ``(candidates, copies examined)``; each candidate is (centre,
    orientation, tile index), in the order of a full scan over the
    ``(2n + 1)^3`` tile copies, of which only those that can reach the box
    are examined (the bound is in the module docstring).
    """
    # Periodic copies of the tile cover the box after rotation: the tile
    # lattice translations whose rotated images can reach the box.
    diag = float(np.linalg.norm(hi - lo))
    n_copies = int(np.ceil((diag + tile.side) / tile.side))
    shifts = np.arange(-n_copies, n_copies + 1) * tile.side
    box_center = 0.5 * (lo + hi)
    candidates: list[tuple[np.ndarray, np.ndarray, int]] = []
    if len(tile.centers) == 0:
        return candidates, 0

    cmin, cmax = tile.centers.min(axis=0), tile.centers.max(axis=0)
    r_t = 0.5 * float(np.linalg.norm(cmax - cmin))
    # Margin: relative to every term that enters a computed centre.
    scale = (r_t + diag + np.abs(tile.centers).max() + np.abs(offset).max()
             + tile.side * (2 * n_copies + 1) + np.abs(box_center).max())
    r_t += 1e-9 * float(scale)
    # m_s, one row per axis: |m_s| <= r_t + |hi - lo| / 2 bounds each
    # axis alone, which rules out most copies before any 3-D work.
    m = (0.5 * (cmin + cmax) + offset - tile.side * (n_copies + 0.5))[:, None] + shifts
    axes = [np.nonzero(np.abs(row) <= r_t + 0.5 * diag)[0] for row in m]
    # Meshgrid in "ij" order lists the copies in the full scan's order.
    ijk = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    # The copy's centres lie within r_t of R m_s + b: keep it if that
    # point is within r_t of the box.
    p = m[(0, 1, 2), ijk] @ stamp_rot.T + box_center
    gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    copies = ijk[np.einsum("ij,ij->i", gap, gap) <= r_t * r_t]

    for i, j, k in copies:
        base = tile.centers + offset + np.array([shifts[i], shifts[j], shifts[k]])
        local = base - tile.side * (n_copies + 0.5)  # center the cloud
        world = local @ stamp_rot.T + box_center
        inside = np.all((world >= lo) & (world < hi), axis=1)
        for ci in np.nonzero(inside)[0]:
            candidates.append((world[ci], stamp_rot @ tile.rotations[ci], int(ci)))
    return candidates, len(copies)


def stamp_tile(
    manager: CellManager,
    tile: RBCTile,
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
    overlap_cutoff: float = 0.5e-6,
    diameter: float = RBC_DIAMETER,
    subdivisions: int = 3,
    shear_modulus: float | None = None,
    keep_predicate=None,
    existing: UniformSubgrid | None = None,
) -> list[Cell]:
    """Stamp a random rigid copy of ``tile`` into the box [lo, hi].

    The tile is wrapped periodically under a random offset and rotated as
    a whole; cells whose centroid falls inside the box are instantiated
    (undeformed, with the tile's per-cell orientation composed with the
    stamp rotation).  Candidates that would overlap existing cells in the
    manager, or a candidate accepted before them, are skipped — matching
    the paper's repopulation rule that "no new cells are added if they
    overlap with existing cells".

    ``existing`` optionally supplies a pre-built vertex subgrid of the
    current population (accepted cells are inserted into it).

    Returns the cells actually added.
    """
    n_candidates, cells = _stamp_cells(
        manager, tile, lo, hi, rng, diameter, subdivisions, shear_modulus,
        keep_predicate,
    )
    if not n_candidates:
        return []
    if existing is None:
        # The manager's cached vertex index (rebuilt only when membership
        # or positions changed).  Accepted cells are inserted into it; the
        # membership bump invalidates the cache for later callers.
        existing = manager.vertex_subgrid(max(overlap_cutoff, 1e-12))
    return _admit_cells(manager, existing, n_candidates, cells, overlap_cutoff)


def _stamp_cells(
    manager: CellManager,
    tile: RBCTile,
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
    diameter: float,
    subdivisions: int,
    shear_modulus: float | None,
    keep_predicate,
) -> tuple[int, list[Cell]]:
    """Instantiate the candidates of a random rigid copy of ``tile`` in
    [lo, hi]; every candidate takes the next global ID, kept or not.

    Returns the number of candidates and the cells ``keep_predicate``
    passes, in ascending ID order.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    stamp_rot = random_rotation(rng)
    offset = rng.uniform(0.0, tile.side, size=3)
    candidates, n_examined = tile_candidates(tile, lo, hi, stamp_rot, offset)
    get_telemetry().inc("seeding.tile_copies", n_examined)
    kwargs = {} if shear_modulus is None else {"shear_modulus": shear_modulus}
    passed: list[Cell] = []
    for center, rot, tile_idx in candidates:
        gid = manager.allocate_id()
        if tile.shapes is not None:
            cell = _cell_from_shape(
                tile.shapes[tile_idx], center, stamp_rot, gid,
                diameter, subdivisions, shear_modulus,
            )
        else:
            cell = make_rbc(
                center=center,
                global_id=gid,
                rotation=rot,
                diameter=diameter,
                subdivisions=subdivisions,
                **kwargs,
            )
        if keep_predicate is None or keep_predicate(cell):
            passed.append(cell)
    return len(candidates), passed


def _admit_cells(
    manager: CellManager,
    existing: UniformSubgrid,
    n_candidates: int,
    cells: list[Cell],
    overlap_cutoff: float,
) -> list[Cell]:
    """Add the ``cells`` (ascending ID) that overlap no cell in
    ``existing`` and no cell added before them, resolved in one
    ``existing.admit`` pass; returns them."""
    keep = existing.admit(
        [c.vertices for c in cells], [c.global_id for c in cells],
        overlap_cutoff,
    )
    added = [cell for cell, k in zip(cells, keep) if k]
    for cell in added:
        manager.add(cell)
    tel = get_telemetry()
    tel.inc("seeding.candidates", n_candidates)
    tel.inc("seeding.rejected_predicate", n_candidates - len(cells))
    tel.inc("seeding.rejected_overlap", len(cells) - len(added))
    return added


def _cell_from_shape(
    shape: np.ndarray,
    center: np.ndarray,
    stamp_rot: np.ndarray,
    global_id: int,
    diameter: float,
    subdivisions: int,
    shear_modulus: float | None,
) -> Cell:
    """Instantiate an RBC carrying a pre-deformed (equilibrated) shape."""
    from ..constants import RBC_SHEAR_MODULUS
    from ..membrane.cell import reference_for

    gs = RBC_SHEAR_MODULUS if shear_modulus is None else shear_modulus
    ref = reference_for(CellKind.RBC, diameter, subdivisions)
    if shape.shape != ref.vertices.shape:
        raise ValueError(
            "tile shapes do not match the requested mesh resolution"
        )
    return Cell(
        kind=CellKind.RBC,
        reference=ref,
        vertices=shape @ stamp_rot.T + center,
        global_id=global_id,
        shear_modulus=gs,
        k_area=5.0 * gs,
        k_volume=50.0 * gs / diameter,
    )


def equilibrate_tile(
    tile: RBCTile,
    steps: int = 150,
    diameter: float = RBC_DIAMETER,
    subdivisions: int = 2,
    shear_modulus: float | None = None,
    force_amplitude: float = 2.0e7,
    spacing: float | None = None,
    rho: float = 1025.0,
    nu: float = 1.2e-3 / 1025.0,
) -> RBCTile:
    """Pre-deform a tile's cells in a periodic Kolmogorov flow.

    The tile cells are placed in a fully periodic box of the tile's side
    and driven by a sinusoidal body force f_x(y) = F sin(2 pi y / L) —
    shear everywhere, no walls — for a number of FSI steps.  The deformed
    centroid-free shapes are stored on the returned tile, so subsequent
    stamping inserts flow-equilibrated cells (Section 2.4.2's
    "physiologically deformed" requirement) instead of pristine
    discocytes.
    """
    import dataclasses

    from ..fsi.cell_manager import CellManager
    from ..fsi.stepper import FSIStepper
    from ..lbm.grid import Grid
    from ..units import UnitSystem

    if spacing is None:
        spacing = diameter / 8.0
    n_nodes = max(8, int(round(tile.side / spacing)))
    spacing = tile.side / n_nodes
    tau = 1.0
    dt = (tau - 0.5) / 3.0 * spacing**2 / nu
    units = UnitSystem(spacing, dt, rho)
    grid = Grid((n_nodes,) * 3, tau=tau, spacing=spacing)
    y = grid.axis_coords(1)
    f_lat = units.force_density_to_lattice(force_amplitude)
    grid_force_profile = f_lat * np.sin(2.0 * np.pi * y / tile.side)

    manager = CellManager()
    kwargs = {} if shear_modulus is None else {"shear_modulus": shear_modulus}
    for c, rot in zip(tile.centers, tile.rotations):
        manager.add(
            make_rbc(
                center=c,
                global_id=manager.allocate_id(),
                rotation=rot,
                diameter=diameter,
                subdivisions=subdivisions,
                **kwargs,
            )
        )
    stepper = FSIStepper(grid, units, manager, mode="wrap")
    stepper.body_force_lattice = np.zeros(3)
    grid.force[0] = grid_force_profile[None, :, None]

    # The stepper resets grid.force each step; add the profile back
    # after every spread.
    original_spread = stepper._spread_forces

    def spread_with_profile(tel=None):
        original_spread(tel)
        grid.force[0] += grid_force_profile[None, :, None]

    stepper._spread_forces = spread_with_profile  # type: ignore[method-assign]
    stepper.step(steps)

    shapes = []
    for cell in manager.cells:  # insertion order == tile order
        shapes.append(np.array(cell.vertices - cell.centroid()))
    return dataclasses.replace(tile, shapes=tuple(shapes))


def rbc_census(manager: CellManager) -> tuple[np.ndarray, np.ndarray]:
    """Volumes (N,) and centroids (N, 3) of the manager's RBCs, in
    ``manager.cells`` order.

    One batched evaluation per packed group; the values are bitwise those
    of ``Cell.volume()`` / ``Cell.centroid()`` (the same reductions over
    the same vertex rows).
    """
    verts, _, cells = manager.packed_vertices()
    vols = np.empty(len(cells))
    cents = np.empty((len(cells), 3))
    row = 0
    for reference, _, start, n, v in manager.packed_segments():
        block = verts[start:start + n * v].reshape(n, v, 3)
        c = block.mean(axis=1)
        cents[row:row + n] = c
        vols[row:row + n] = mesh_volume(block - c[:, None], reference.faces)
        row += n
    is_rbc = np.fromiter((c.kind is CellKind.RBC for c in cells), bool, len(cells))
    return vols[is_rbc], cents[is_rbc]


@dataclass
class HematocritController:
    """Maintains the target hematocrit per insertion subregion.

    Each monitoring call computes the centroid-attributed hematocrit in
    every insertion subregion of the window; subregions below
    ``threshold * target`` are repopulated by tile stamping.  Cells that
    have left the window entirely are removed.
    """

    window: Window
    tile: RBCTile
    target: float
    threshold: float = 0.8
    overlap_cutoff: float = 0.5e-6
    diameter: float = RBC_DIAMETER
    subdivisions: int = 3
    shear_modulus: float | None = None
    #: Optional cell filter (e.g. reject cells straddling vessel walls).
    keep_predicate: object = None
    #: Optional subregion filter (lo, hi) -> bool; False skips monitoring
    #: (used to ignore insertion subregions buried in the vessel wall).
    subregion_filter: object = None
    #: Optional (lo, hi) -> float in [0, 1] giving the fluid fraction of a
    #: subregion box.  Per-subregion targets are scaled by it so that the
    #: hematocrit of the *fluid* (not the box) is maintained when the
    #: window pokes into the vessel wall.
    fluid_fraction_fn: object = None
    #: Monitoring-subregion edge; None uses the insertion width.  Clamp to
    #: >= one cell diameter so centroid counting is meaningful.
    subregion_size: float | None = None
    #: Gate insertion on the hematocrit of the whole insertion shell in
    #: addition to per-subregion counts.  At paper scale a subregion holds
    #: tens of cells and per-box statistics suffice; at toy scale a box
    #: holds ~1 cell, the count is bimodal, and without the shell gate the
    #: controller overfills toward the packing limit.
    gate_on_shell: bool = True
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    #: Counters for diagnostics / Fig. 5B-style time series; they run over
    #: every placement of the window the controller is pointed at.
    n_inserted: int = 0
    n_removed: int = 0
    #: (placement key, all subregion boxes, monitored (lo, hi, box volume,
    #: fluid fraction or None)), recomputed when the key changes.
    _placement: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _subregions(self) -> tuple[list, list]:
        """Subregion boxes of the current window placement, and the
        monitored ones with their box volume and fluid fraction."""
        key = (
            self.window.center.tobytes(), self.window.spec, self.subregion_size,
            self.subregion_filter, self.fluid_fraction_fn,
        )
        if self._placement is None or self._placement[0] != key:
            boxes = self.window.insertion_subregions(self.subregion_size)
            monitored = [
                (
                    lo, hi, float(np.prod(hi - lo)),
                    None if self.fluid_fraction_fn is None
                    else float(self.fluid_fraction_fn(lo, hi)),
                )
                for lo, hi in boxes
                if self.subregion_filter is None or self.subregion_filter(lo, hi)
            ]
            self._placement = (key, boxes, monitored)
        return self._placement[1], self._placement[2]

    def remove_departed(self, manager: CellManager, protect: set[int] = frozenset()) -> int:
        """Remove cells (except protected IDs) that left the window."""
        lo, hi = self.window.bounds()

        def departed(cell: Cell) -> bool:
            if cell.global_id in protect or cell.kind is not CellKind.RBC:
                return False
            c = cell.centroid()
            return bool(np.any(c < lo) or np.any(c > hi))

        removed = manager.remove_where(departed)
        self.n_removed += len(removed)
        return len(removed)

    def subregion_hematocrits(self, manager: CellManager) -> np.ndarray:
        """Current hematocrit of every insertion subregion."""
        vols, cents = rbc_census(manager)
        boxes, _ = self._subregions()
        return np.array([region_hematocrit(vols, cents, lo, hi) for lo, hi in boxes])

    def maintain(self, manager: CellManager, protect: set[int] = frozenset()) -> int:
        """One monitoring pass; returns the number of cells inserted."""
        self.remove_departed(manager, protect)
        vols, cents = rbc_census(manager)
        _, monitored = self._subregions()
        hts = [region_hematocrit(vols, cents, lo, hi) for lo, hi, _, _ in monitored]
        inserted = 0
        if self.gate_on_shell:
            shell_vol = 0.0
            shell_cells = 0.0
            fluid_weight = 0.0
            for (_, _, box, frac), ht in zip(monitored, hts):
                shell_vol += box
                fluid_weight += (1.0 if frac is None else frac) * box
                shell_cells += ht * box
            if shell_vol > 0.0 and fluid_weight > 0.0:
                shell_ht = shell_cells / shell_vol
                shell_target = self.target * (fluid_weight / shell_vol)
                if shell_ht >= self.threshold * shell_target:
                    return 0
        # Stamp every subregion below target, then resolve all of the
        # pass's candidates at once: their IDs ascend across the stamps,
        # so one greedy pass decides what stamping them in turn would.
        n_candidates, cells = 0, []
        for (lo, hi, _, frac), ht in zip(monitored, hts):
            local_target = self.target
            if frac is not None:
                local_target *= frac
                if local_target <= 0.0:
                    continue
            if ht < self.threshold * local_target:
                n, passed = _stamp_cells(
                    manager, self.tile, lo, hi, self.rng, self.diameter,
                    self.subdivisions, self.shear_modulus, self.keep_predicate,
                )
                n_candidates += n
                cells += passed
        if n_candidates:
            # The manager's generation/position-keyed cached index.
            existing = manager.vertex_subgrid(max(self.overlap_cutoff, 1e-12))
            inserted = len(_admit_cells(
                manager, existing, n_candidates, cells, self.overlap_cutoff
            ))
        self.n_inserted += inserted
        return inserted
