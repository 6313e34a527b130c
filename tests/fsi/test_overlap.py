"""Deterministic overlap removal by global ID (Section 2.4.2).

The product path resolves overlaps with :meth:`UniformSubgrid.admit`,
handing it the candidates in ascending global-ID order; these tests
check that rule against the brute-force pair oracle.
"""

from types import SimpleNamespace

import numpy as np

from repro.fsi.subgrid import UniformSubgrid
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation

from ..core.reference_bodies import sequential_admit
from .reference_bodies import build_subgrid, find_overlapping_vertices

CUTOFF = 0.5e-6
D = 7.8e-6


def _rbc(x_um: float, gid: int, sub=2):
    return make_rbc(np.array([x_um * 1e-6, 0.0, 0.0]), global_id=gid, subdivisions=sub)


def _survivors(cells, index=None):
    """IDs of the cells ``admit`` keeps when they come in ascending-ID
    order, as the window fill and the stamps hand them over."""
    ordered = sorted(cells, key=lambda c: c.global_id)
    index = UniformSubgrid(cell_size=CUTOFF) if index is None else index
    keep = index.admit([c.vertices for c in ordered],
                       [c.global_id for c in ordered], CUTOFF)
    return [c.global_id for c, k in zip(ordered, keep) if k]


def test_far_cells_do_not_overlap():
    a, b = _rbc(0, 0), _rbc(20, 1)
    assert not find_overlapping_vertices(a, b, CUTOFF)
    assert _survivors([a, b]) == [0, 1]


def test_coincident_cells_overlap():
    a, b = _rbc(0, 0), _rbc(0.2, 1)
    assert find_overlapping_vertices(a, b, CUTOFF)
    assert _survivors([a, b]) == [0]


def test_subgrid_path_matches_brute_force():
    cells = [_rbc(x, i) for i, x in enumerate((0, 2, 9, 30))]
    candidate = _rbc(1.0, 99)
    brute = any(find_overlapping_vertices(candidate, c, CUTOFF) for c in cells[:3])
    assert _survivors([candidate], build_subgrid(cells[:3], CUTOFF)) == (
        [] if brute else [99])


def test_remove_overlaps_keeps_lower_ids():
    a = _rbc(0.0, 5)
    b = _rbc(0.5, 2)  # overlaps a; lower ID wins
    c = _rbc(30.0, 9)
    assert _survivors([a, b, c]) == [2, 9]


def _population():
    existing = [_rbc(x, i) for i, x in enumerate((0, 8, 8.6, 25))]
    cells = [_rbc(x, 10 + i) for i, x in enumerate((0.4, 0.9, 8.2, 15, 15.3, 40))]
    return existing, cells


def test_remove_overlaps_order_independent():
    """Neither the order the candidates arrive in nor the order in which
    the existing population was indexed changes which candidates survive."""
    existing, cells = _population()
    want = _survivors(cells, build_subgrid(existing, CUTOFF))
    assert _survivors(cells[::-1], build_subgrid(existing[::-1], CUTOFF)) == want
    assert 0 < len(want) < len(cells)


def test_remove_overlaps_simulates_task_partitions():
    """Splitting the cells across two 'tasks' (the existing population
    indexed task by task, the candidates merged per task) and resolving
    them globally gives the same survivors as one global pass: the
    paper's consistency-across-task-counts property."""
    existing, cells = _population()
    want = _survivors(cells, build_subgrid(existing, CUTOFF))
    even = [c for c in existing if c.global_id % 2 == 0]
    odd = [c for c in existing if c.global_id % 2 == 1]
    part1 = [c for c in cells if c.global_id % 2 == 0]
    part2 = [c for c in cells if c.global_id % 2 == 1]
    assert _survivors(part2 + part1, build_subgrid(odd + even, CUTOFF)) == want
    assert 0 < len(want) < len(cells)


def test_remove_overlaps_empty_input():
    assert _survivors([]) == []


def test_single_cell_survives():
    assert _survivors([_rbc(0.0, 0)]) == [0]


def test_vertex_pair_at_exactly_the_cutoff_overlaps():
    """The oracle keeps ``d2 <= cutoff²`` like ``admit`` does: a vertex
    pair at exactly the cutoff overlaps, one ulp farther does not."""
    def block(x, gid):
        verts = np.array([[x, 0.0, 0.0], [x, 3 * D, 0.0]])
        return SimpleNamespace(vertices=verts, global_id=gid)

    a = block(0.0, 0)
    for x, overlap in ((CUTOFF, True), (np.nextafter(CUTOFF, 1.0), False)):
        b = block(x, 1)
        assert find_overlapping_vertices(a, b, CUTOFF) is overlap
        assert _survivors([b], build_subgrid([a], CUTOFF)) == ([] if overlap else [1])
        assert _survivors([b, a]) == ([0] if overlap else [0, 1])


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
    got = _survivors(cells)
    assert got == want
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
