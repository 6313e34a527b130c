"""Deterministic overlap removal by global ID (Section 2.4.2)."""

from types import SimpleNamespace

import numpy as np

from repro.fsi import cell_overlaps_existing, find_overlapping_vertices, remove_overlaps
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation

from ..core.reference_bodies import sequential_admit, sequential_remove_overlaps
from .reference_bodies import build_subgrid

CUTOFF = 0.5e-6
D = 7.8e-6


def _rbc(x_um: float, gid: int, sub=2):
    return make_rbc(np.array([x_um * 1e-6, 0.0, 0.0]), global_id=gid, subdivisions=sub)


def test_far_cells_do_not_overlap():
    a, b = _rbc(0, 0), _rbc(20, 1)
    assert not find_overlapping_vertices(a, b, CUTOFF)


def test_coincident_cells_overlap():
    a, b = _rbc(0, 0), _rbc(0.2, 1)
    assert find_overlapping_vertices(a, b, CUTOFF)


def test_subgrid_path_matches_brute_force():
    cells = [_rbc(x, i) for i, x in enumerate((0, 2, 9, 30))]
    grid = build_subgrid(cells[:3], CUTOFF)
    candidate = _rbc(1.0, 99)
    brute = any(find_overlapping_vertices(candidate, c, CUTOFF) for c in cells[:3])
    assert cell_overlaps_existing(candidate, grid, CUTOFF) == brute


def test_remove_overlaps_keeps_lower_ids():
    a = _rbc(0.0, 5)
    b = _rbc(0.5, 2)  # overlaps a; lower ID wins
    c = _rbc(30.0, 9)
    survivors = remove_overlaps([a, b, c], CUTOFF)
    ids = {s.global_id for s in survivors}
    assert ids == {2, 9}


def test_remove_overlaps_order_independent():
    cells = [_rbc(x, i) for i, x in enumerate((0, 0.4, 0.8, 15, 15.3, 40))]
    ids_fwd = {c.global_id for c in remove_overlaps(list(cells), CUTOFF)}
    ids_rev = {c.global_id for c in remove_overlaps(list(reversed(cells)), CUTOFF)}
    assert ids_fwd == ids_rev


def test_remove_overlaps_simulates_task_partitions():
    """Splitting cells across 'tasks' then merging survivors per task with
    a global pass gives the same set as one global pass — the paper's
    consistency-across-task-counts property."""
    cells = [_rbc(x, i) for i, x in enumerate((0, 0.4, 0.9, 8, 8.2, 8.6, 25))]
    global_ids = {c.global_id for c in remove_overlaps(list(cells), CUTOFF)}
    # two-task partition: union of the partitions re-resolved globally
    part1 = [c for c in cells if c.global_id % 2 == 0]
    part2 = [c for c in cells if c.global_id % 2 == 1]
    merged = remove_overlaps(part1 + part2, CUTOFF)
    assert {c.global_id for c in merged} == global_ids


def test_remove_overlaps_empty_input():
    assert remove_overlaps([], CUTOFF) == []


def test_single_cell_survives():
    a = _rbc(0.0, 0)
    assert remove_overlaps([a], CUTOFF) == [a]


def test_vertex_pair_at_exactly_the_cutoff_overlaps():
    """The oracle keeps ``d2 <= cutoff²`` like the subgrid paths do: a
    vertex pair at exactly the cutoff overlaps, one ulp farther does not."""
    def block(x, gid):
        verts = np.array([[x, 0.0, 0.0], [x, 3 * D, 0.0]])
        return SimpleNamespace(vertices=verts, global_id=gid)

    a = block(0.0, 0)
    for x, overlap in ((CUTOFF, True), (np.nextafter(CUTOFF, 1.0), False)):
        b = block(x, 1)
        assert find_overlapping_vertices(a, b, CUTOFF) is overlap
        assert cell_overlaps_existing(b, build_subgrid([a], CUTOFF), CUTOFF) is overlap
        survivors = [c.global_id for c in remove_overlaps([b, a], CUTOFF)]
        assert survivors == ([0] if overlap else [0, 1])


def test_bounding_box_rejection_fast_path():
    """Disjoint bounding boxes short-circuit the vertex check."""
    a, b = _rbc(0, 0), _rbc(100, 1)
    assert not find_overlapping_vertices(a, b, CUTOFF)


# -- seeding parity with the brute-force oracle ------------------------------


def _dense_population(n=40, seed=4, sub=1):
    """RBCs at random centers packed so that many pairs overlap."""
    rng = np.random.default_rng(seed)
    return [
        make_rbc(
            rng.uniform(0.0, 16e-6, size=3),
            global_id=int(gid),
            rotation=random_rotation(rng),
            subdivisions=sub,
        )
        for gid in rng.permutation(n)
    ]


def _brute_remove_overlaps(cells, cutoff):
    kept = []
    for cell in sorted(cells, key=lambda c: c.global_id):
        if not any(find_overlapping_vertices(cell, k, cutoff) for k in kept):
            kept.append(cell)
    return kept


def test_remove_overlaps_matches_brute_force_on_dense_population():
    cells = _dense_population()
    want = [c.global_id for c in _brute_remove_overlaps(cells, CUTOFF)]
    got = [c.global_id for c in remove_overlaps(cells, CUTOFF)]
    assert got == want
    assert got == [c.global_id for c in sequential_remove_overlaps(cells, CUTOFF)]
    assert 1 < len(got) < len(cells)  # dense: some, not all, survive


class _BruteIndex:
    """``UniformSubgrid`` stand-in answering overlaps by brute force."""

    def __init__(self, cells):
        self.cells = [(c.global_id, c) for c in cells]

    def query_labels_near(self, points, radius):
        probe = SimpleNamespace(vertices=np.asarray(points))
        return {
            gid for gid, c in self.cells
            if find_overlapping_vertices(probe, c, radius)
        }

    def insert(self, points, label):
        self.cells.append((int(label), SimpleNamespace(vertices=points)))

    def admit(self, blocks, labels, radius):
        """``UniformSubgrid.admit`` one block at a time: query, then insert."""
        return sequential_admit(self, blocks, labels, radius)


def test_stamp_tile_matches_brute_force_on_dense_population():
    """Stamping into an occupied box rejects exactly the candidates the
    brute-force oracle rejects."""
    from repro.core.seeding import RBCTile, stamp_tile
    from repro.fsi import CellManager

    tile = RBCTile.build(hematocrit=0.3, side=16e-6, seed=2)
    lo, hi = np.zeros(3), np.full(3, 16e-6)
    accepted = []
    for index in (None, "brute"):
        manager = CellManager()
        for cell in _dense_population(n=12, seed=8):
            manager.add(cell.copy(new_id=manager.allocate_id()))
        if index == "brute":
            # The stamp resolves overlaps on the index the manager hands out.
            brute = _BruteIndex(manager.cells)
            manager.vertex_subgrid = lambda cell_size: brute
        added = stamp_tile(
            manager, tile, lo, hi, np.random.default_rng(5),
            overlap_cutoff=CUTOFF, subdivisions=1,
        )
        accepted.append([(c.global_id, c.vertices) for c in added])
    got, want = accepted
    assert [g for g, _ in got] == [g for g, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
    assert 0 < len(got) < tile.n_cells
