"""Earlier seeding, controller and window-fill bodies, kept as test oracles.

Until overlap resolution became one :meth:`UniformSubgrid.admit` pass per
stamp, controller pass, window fill and removal call, each of those
accepted cells one at a time: query the subgrid, then insert the cell if
nothing was found (:func:`sequential_admit`, :func:`sequential_stamp_tile`
— which the controller ran once per subregion —,
:func:`sequential_move_cells`, :func:`sequential_remove_overlaps`), and the
window fill deep-copied every old-window cell before testing its centroid.

Until stamping pruned the periodic tile copies, ``stamp_tile`` ran its
per-copy code for every one of the ``(2n + 1)^3`` copies, and the
hematocrit controller recomputed the subregion tiling, the wall filter
and the fluid fractions, and read every RBC's volume and centroid cell by
cell, on every pass.

Until the window fill became a separable prolongation, it built a sparse
trilinear operator over every fluid fine node (:func:`interpolation_operator`),
applied it once to the coarse ``(rho, u, f^neq)`` rows of the nodes it
read, and formed f^eq term by term (:func:`operator_fill`).

Until the separable fill prolonged one coarse x-plane along y at a time,
it prolonged the whole coarse block along z and then y before the x
passes (:func:`whole_block_fill`).

Until each fine sub-step paid for the ghost shell once, every coarse step
captured the shell state twice and imposed it ``n + 1`` times (the
``θ = 0`` impose rewriting what the previous step's ``θ = 1`` impose left
there), and every channel x node gather and scatter walked node by node
(:class:`ReferenceRefinedRegion`; its writes mark the whole lattice
modified, so a cached read after them recomputes the moments in full).
"""

import numpy as np
from scipy import sparse

from repro.analytics import region_hematocrit
from repro.constants import OVERLAP_CUTOFF, RBC_DIAMETER
from repro.core.moving import MoveReport, classify_for_move
from repro.core.refinement import (
    _N_STATE,
    RefinedRegion,
    _prolong,
    _state_rows,
)
from repro.core.seeding import INSERTION_THRESHOLD, _cell_from_shape, tile_candidates
from repro.core.viscosity import stress_match_scale_to_fine
from repro.ibm.coupling import interpolate, make_stencil
from repro.lbm.collision import equilibrium, macroscopic, take_columns
from repro.fsi.subgrid import UniformSubgrid
from repro.telemetry import get_telemetry
from repro.membrane import CellKind
from repro.membrane.cell import make_rbc, random_rotation

from ..lbm.reference_bodies import tensordot_equilibrium


def trilinear(field, frac_coords, mode="clip"):
    """Trilinear interpolation of a (C, nx, ny, nz) or (nx, ny, nz) field
    at fractional lattice indices (N, 3): the 2-point IBM kernel."""
    return interpolate(field, frac_coords, kernel="linear2", mode=mode)


def full_scan_candidates(tile, lo, hi, stamp_rot, offset):
    """(centre, orientation, tile index) of every cell that a full scan
    over all ``(2n + 1)^3`` tile copies lands in [lo, hi), in scan order,
    and the number of copies scanned."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    reach = float(np.linalg.norm(hi - lo)) + tile.side
    n_copies = int(np.ceil(reach / tile.side))
    candidates = []
    box_center = 0.5 * (lo + hi)
    shifts = np.arange(-n_copies, n_copies + 1) * tile.side
    for sx in shifts:
        for sy in shifts:
            for sz in shifts:
                base = tile.centers + offset + np.array([sx, sy, sz])
                local = base - tile.side * (n_copies + 0.5)
                world = local @ stamp_rot.T + box_center
                inside = np.all((world >= lo) & (world < hi), axis=1)
                for ci in np.nonzero(inside)[0]:
                    candidates.append(
                        (world[ci], stamp_rot @ tile.rotations[ci], int(ci))
                    )
    return candidates, len(shifts) ** 3


def sequential_stamp_tile(
    manager, tile, lo, hi, rng, overlap_cutoff=OVERLAP_CUTOFF,
    diameter=RBC_DIAMETER, subdivisions=3, keep_predicate=None, existing=None,
):
    """``stamp_tile`` querying and inserting one candidate at a time, on
    ``existing`` or else the manager's vertex index."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    stamp_rot = random_rotation(rng)
    offset = rng.uniform(0.0, tile.side, size=3)
    candidates, n_examined = tile_candidates(tile, lo, hi, stamp_rot, offset)
    tel = get_telemetry()
    tel.inc("seeding.tile_copies", n_examined)
    added = []
    if not candidates:
        return added
    if existing is None:
        existing = manager.vertex_subgrid(max(overlap_cutoff, 1e-12))
    rejected_predicate = rejected_overlap = 0
    for center, rot, tile_idx in candidates:
        gid = manager.allocate_id()
        if tile.shapes is not None:
            cell = _cell_from_shape(
                tile.shapes[tile_idx], center, stamp_rot, gid,
                diameter, subdivisions,
            )
        else:
            cell = make_rbc(
                center=center, global_id=gid, rotation=rot,
                diameter=diameter, subdivisions=subdivisions,
            )
        if keep_predicate is not None and not keep_predicate(cell):
            rejected_predicate += 1
            continue
        if existing.query_labels_near(cell.vertices, overlap_cutoff):
            rejected_overlap += 1
            continue
        manager.add(cell)
        existing.insert(cell.vertices, gid)
        added.append(cell)
    tel.inc("seeding.candidates", len(candidates))
    tel.inc("seeding.rejected_predicate", rejected_predicate)
    tel.inc("seeding.rejected_overlap", rejected_overlap)
    return added


def sequential_move_cells(manager, old_window, new_window,
                          protect=frozenset()):
    """``WindowMover.move_cells`` deep-copying every old-window cell and
    testing the fill-region clones one at a time."""
    tel = get_telemetry()
    displacement = new_window.center - old_window.center
    rbcs = [
        c for c in manager.cells
        if c.kind is CellKind.RBC and c.global_id not in protect
    ]
    capture, rest = classify_for_move(rbcs, old_window, new_window)
    capture_ids = {c.global_id for c in capture}
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
    fills = []
    for cell in sorted(rbcs, key=lambda c: c.global_id):
        clone = cell.copy(new_id=manager.allocate_id())
        clone.translate(displacement)
        c = clone.centroid()
        if not (np.all(c >= lo_int) and np.all(c <= hi_int)):
            continue
        if occupied.query_labels_near(clone.vertices, OVERLAP_CUTOFF):
            continue
        fills.append(clone)
        occupied.insert(clone.vertices, clone.global_id)
    doomed = [c.global_id for c in rest]
    for gid in doomed:
        manager.remove(gid)
    for clone in fills:
        manager.add(clone)
    tel.inc("window.cells_captured", len(capture))
    tel.inc("window.cells_filled", len(fills))
    tel.inc("window.cells_dropped", len(doomed))
    return MoveReport(
        displacement=displacement, n_captured=len(capture),
        n_filled=len(fills), n_removed=len(doomed), n_inserted=0,
    )


def sequential_remove_overlaps(cells, cutoff):
    """``remove_overlaps`` querying and inserting one cell at a time."""
    survivors = []
    subgrid = UniformSubgrid(cell_size=cutoff)
    for cell in sorted(cells, key=lambda c: c.global_id):
        if subgrid.query_labels_near(cell.vertices, cutoff):
            continue
        subgrid.insert(cell.vertices, cell.global_id)
        survivors.append(cell)
    return survivors


def sequential_admit(index, blocks, labels, radius):
    """``UniformSubgrid.admit`` as one query and one insert per block."""
    keep = []
    for points, label in zip(blocks, labels):
        keep.append(not index.query_labels_near(points, radius))
        if keep[-1]:
            index.insert(points, label)
    return np.array(keep, dtype=bool)


def per_cell_census(manager):
    """RBC volumes and centroids from one ``Cell`` method call each."""
    cells = [c for c in manager.cells if c.kind is CellKind.RBC]
    vols = np.array([c.volume() for c in cells])
    cents = (
        np.array([c.centroid() for c in cells]) if cells else np.empty((0, 3))
    )
    return vols, cents


def uncached_maintain(ctrl, manager, stamp, protect=frozenset()):
    """One controller pass that recomputes the placement geometry at every
    use, with ``stamp(lo, hi, existing)`` doing the stamping."""
    ctrl.remove_departed(manager, protect)
    vols, cents = per_cell_census(manager)
    inserted = 0
    subregions = ctrl.window.insertion_subregions(ctrl.subregion_size)
    if subregions:
        shell_vol = shell_cells = fluid_weight = 0.0
        for lo, hi in subregions:
            if ctrl.subregion_filter is not None and not ctrl.subregion_filter(lo, hi):
                continue
            box = float(np.prod(hi - lo))
            frac = (
                float(ctrl.fluid_fraction_fn(lo, hi))
                if ctrl.fluid_fraction_fn is not None
                else 1.0
            )
            shell_vol += box
            fluid_weight += frac * box
            shell_cells += region_hematocrit(vols, cents, lo, hi) * box
        if shell_vol > 0.0 and fluid_weight > 0.0:
            shell_ht = shell_cells / shell_vol
            shell_target = ctrl.target * (fluid_weight / shell_vol)
            if shell_ht >= INSERTION_THRESHOLD * shell_target:
                return 0
    existing = None
    for lo, hi in subregions:
        if ctrl.subregion_filter is not None and not ctrl.subregion_filter(lo, hi):
            continue
        local_target = ctrl.target
        if ctrl.fluid_fraction_fn is not None:
            local_target *= float(ctrl.fluid_fraction_fn(lo, hi))
            if local_target <= 0.0:
                continue
        ht = region_hematocrit(vols, cents, lo, hi)
        if ht < INSERTION_THRESHOLD * local_target:
            if existing is None:
                existing = manager.vertex_subgrid(OVERLAP_CUTOFF)
            inserted += len(stamp(lo, hi, existing))
    ctrl.n_inserted += inserted
    return inserted


def interpolation_operator(frac_coords, coarse_shape, mode="clip"):
    """:func:`trilinear` at fixed points as a sparse matrix ``(W, src)``.

    ``src`` holds the sorted flat (C-order) indices of the coarse nodes
    the points read, and ``W`` is CSR of shape ``(N, len(src))`` with at
    most 8 entries per row (zero weights dropped, so a point coincident
    with a coarse node reads that node alone).  For any field ``phi`` of
    shape ``coarse_shape``, ``W @ phi.reshape(-1)[src]`` equals
    ``trilinear(phi, frac_coords, mode)`` to rounding.
    """
    stencil = make_stencil(frac_coords, coarse_shape, "linear2", mode)
    weights = stencil.w.reshape(-1)
    keep = np.flatnonzero(weights)
    nodes = stencil.flat_indices()[keep]
    read = np.zeros(int(np.prod(coarse_shape)), dtype=bool)
    read[nodes] = True
    src = np.flatnonzero(read)
    cols = (np.cumsum(read) - 1)[nodes]
    rows = keep // 8  # 2 x 2 x 2 weights per point, in point order
    # Duplicate (row, col) pairs are summed by the COO -> CSR conversion.
    op = sparse.csr_matrix(
        (weights[keep], (rows, cols)), shape=(stencil.n_markers, len(src))
    )
    return op, src


def operator_fill(rr):
    """What the operator-based ``initialize_fine_from_coarse`` wrote:
    ``(flat fluid fine nodes, (19, N) populations)``."""
    cg, fg = rr.coarse.grid, rr.fine.grid
    mode = "wrap" if rr.periodic_axes else "clip"
    fluid = np.flatnonzero(~fg.solid)
    idx = np.stack(np.unravel_index(fluid, fg.shape), axis=1)
    frac = cg.physical_to_index(fg.origin + fg.spacing * idx)
    op, src = interpolation_operator(frac, cg.shape, mode)
    f = cg.f.reshape(19, -1)[:, src]
    rho, u = macroscopic(f, cg.force.reshape(3, -1)[:, src])
    state = np.concatenate([rho[None], u, f - tensordot_equilibrium(rho, u)])
    state = np.ascontiguousarray((op @ state.T).T)
    if isinstance(cg.tau, np.ndarray):
        tau_c = trilinear(cg.tau, frac, mode)
    else:
        tau_c = np.full(len(frac), float(cg.tau))
    scale = stress_match_scale_to_fine(tau_c, fg.tau)
    feq = tensordot_equilibrium(state[0], state[1:4])
    return fluid, feq + scale * state[4:]


def whole_block_fill(rr):
    """``initialize_fine_from_coarse`` with the whole coarse block
    prolonged along z and y, ``(rows, w + 1, ny, nz)``, before the x
    passes."""
    cg, fg, n = rr.coarse.grid, rr.fine.grid, rr.n
    nodes = rr._block_nodes
    tau = cg.tau.reshape(-1)[nodes] if isinstance(cg.tau, np.ndarray) else None
    block = _state_rows(
        take_columns(cg.f, nodes), take_columns(cg.force, nodes), tau
    )
    nx, ny, nz = fg.shape
    yz = _prolong(_prolong(block, 3, n, nz), 2, n, ny)
    w = int(rr._w[0])
    for j in range(w):
        planes = nx - n * j if j == w - 1 else n
        part = _prolong(yz[:, j:j + 2], 1, n, planes)
        rr._fill_nodes(part.reshape(len(part), -1), n * j * ny * nz)
    fg.mark_f_modified()


class ReferenceRefinedRegion(RefinedRegion):
    """The coupling step with two shell captures and ``n + 1`` imposes
    per coarse step, node-major gathers and scatters, and whole-lattice
    write marks."""

    def _coarse_state(self, nodes, with_tau=False):
        cg = self.coarse.grid
        f = cg.f.reshape(19, -1)[:, nodes]
        rho, u = macroscopic(f, cg.force.reshape(3, -1)[:, nodes])
        state = np.empty((_N_STATE + with_tau,) + f.shape[1:])
        state[0] = rho
        state[1:4] = u
        state[4:_N_STATE] = f - equilibrium(rho, u)
        if with_tau:
            state[_N_STATE] = cg.tau.reshape(-1)[nodes]
        return state

    def _ghost_state(self, inputs=None):
        state = self._onto_shell(self._coarse_state(self._face_src))
        state[4:] *= self._ghost_scale
        return state

    def _impose_ghosts(self, theta):
        if len(self._ghost_flat) == 0:
            return
        prev, nxt = self._state_prev, self._state_next
        if theta == 0.0:
            state = prev
        elif theta == 1.0:
            state = nxt
        else:
            if self._blend is None:
                self._blend = np.empty_like(prev)
            state = np.subtract(nxt, prev, out=self._blend)
            state *= theta
            state += prev
        if self._f_shell is None:
            self._f_shell = np.empty((len(prev) - 4, prev.shape[1]), prev.dtype)
        f_new = equilibrium(state[0], state[1:4], out=self._f_shell)
        f_new += state[4:]
        fg = self.fine.grid
        fg.f.reshape(19, -1)[:, self._ghost_flat] = f_new
        fg.mark_f_modified()

    def _restrict(self):
        if self._restrict_coarse is None:
            return
        fg = self.fine.grid
        cg = self.coarse.grid
        f = fg.f.reshape(19, -1)[:, self._restrict_fine_flat]
        f = f.astype(np.float64, copy=False)
        rho, u = macroscopic(f)
        feq = equilibrium(rho, u)
        f -= feq
        f *= self._restrict_scale
        f += feq
        cg.f.reshape(19, -1)[:, self._restrict_coarse_flat] = f
        cg.mark_f_modified()

    def step(self, n_coarse=1):
        tel = get_telemetry()
        for _ in range(n_coarse):
            with tel.phase("coarse"):
                self._state_prev = self._ghost_state()
                self.coarse.step()
                self._state_next = self._ghost_state()
            for s in range(self.n):
                with tel.phase("interpolate"):
                    self._impose_ghosts(theta=s / self.n)
                with tel.phase("fine"):
                    self.fine.step()
            with tel.phase("interpolate"):
                self._impose_ghosts(theta=1.0)
            with tel.phase("restrict"):
                self._restrict()
