"""CellManager: membership, the packed store, batched forces, bulk updates."""

import numpy as np
import pytest

from repro.fsi import CellManager
from repro.membrane import make_ctc, make_rbc
from repro.membrane.cell import random_rotation


def _manager_with(n_rbc=3, sub=2):
    m = CellManager()
    for i in range(n_rbc):
        m.add(make_rbc(np.array([i * 20e-6, 0, 0]), global_id=m.allocate_id(), subdivisions=sub))
    return m


def test_add_and_count():
    m = _manager_with(3)
    assert m.n_cells == 3
    assert len(m.cells) == 3


def test_duplicate_id_rejected():
    m = CellManager()
    m.add(make_rbc(np.zeros(3), global_id=0, subdivisions=2))
    with pytest.raises(ValueError):
        m.add(make_rbc(np.ones(3) * 1e-5, global_id=0, subdivisions=2))


def test_get_by_id():
    m = _manager_with(2)
    c = m.get(1)
    assert c.global_id == 1


def test_contains():
    m = _manager_with(2)
    assert 0 in m and 1 in m and 5 not in m


def test_remove_updates_membership():
    m = _manager_with(3)
    removed = m.remove(1)
    assert removed.global_id == 1
    assert m.n_cells == 2
    assert 1 not in m
    # remaining cells still reachable
    assert m.get(0).global_id == 0
    assert m.get(2).global_id == 2


def test_removed_cell_detached_from_pool():
    m = _manager_with(2)
    removed = m.remove(0)
    pos0 = removed.vertices.copy()
    # The removed cell must not alias the storage of the next generation.
    m.add(make_rbc(np.array([99e-6, 0, 0]), global_id=m.allocate_id(), subdivisions=2))
    assert np.allclose(removed.vertices, pos0)


def test_remove_where():
    m = _manager_with(4)
    removed = m.remove_where(lambda c: c.centroid()[0] > 25e-6)
    assert {c.global_id for c in removed} == {2, 3}
    assert m.n_cells == 2


def test_allocate_monotonic_ids():
    m = CellManager()
    ids = [m.allocate_id() for _ in range(4)]
    assert ids == [0, 1, 2, 3]
    assert m.next_id == 4
    assert m.allocate_id() == 4


def test_add_never_reuses_external_high_id():
    m = CellManager()
    m.add(make_rbc(np.zeros(3), global_id=100, subdivisions=2))
    assert m.allocate_id() == 101


def test_vertices_rebound_into_pool():
    m = CellManager()
    c = make_rbc(np.zeros(3), global_id=0, subdivisions=2)
    original = c.vertices.copy()
    m.add(c)
    # Writes via the cell now hit the store, values preserved.
    assert np.allclose(c.vertices, original)
    c.vertices += 1e-6
    verts, _, cells = m.all_vertices()
    assert np.allclose(verts[: len(original)], original + 1e-6)


def test_pool_growth_rebinds_views():
    m = CellManager()
    cells = []
    for i in range(70):  # one store rebuild, after the last add
        cells.append(
            m.add(make_rbc(np.array([i * 20e-6, 0, 0]), global_id=m.allocate_id(), subdivisions=1))
        )
    # Every view must be writable storage.
    for i, c in enumerate(cells):
        assert np.isclose(c.centroid()[0], i * 20e-6, atol=1e-12)
        c.vertices += 1.0e-9
    verts, _, _ = m.all_vertices()
    assert m.n_cells == 70


def test_batched_forces_match_per_cell():
    m = _manager_with(3)
    forces = m.membrane_forces()
    for cell in m.cells:
        assert np.allclose(forces[cell.global_id], cell.forces(), atol=1e-20)


def test_mixed_populations_grouped():
    m = _manager_with(2)
    m.add(make_ctc(np.array([0, 40e-6, 0]), global_id=m.allocate_id(), subdivisions=2))
    forces = m.membrane_forces()
    assert len(forces) == 3


def test_all_vertices_ordering_consistent_with_forces():
    m = _manager_with(2)
    f, verts, cells = m.total_forces()
    assert f.shape == verts.shape
    assert len(cells) == 2


def test_update_vertices_roundtrip():
    m = _manager_with(2)
    verts, _, _ = m.all_vertices()
    shift = np.full_like(verts, 1e-6)
    m.update_vertices(shift)
    verts2, _, _ = m.all_vertices()
    assert np.allclose(verts2, verts + 1e-6)


def test_update_vertices_length_validation():
    m = _manager_with(1)
    with pytest.raises(ValueError):
        m.update_vertices(np.zeros((3, 3)))


def test_centroids_shape():
    m = _manager_with(3)
    assert m.centroids().shape == (3, 3)
    assert CellManager().centroids().shape == (0, 3)


# -- the store: one copy of the population ---------------------------------


def _assert_views_of_store(m):
    """Every cell's ``vertices`` is its own row block of the store, in
    packed order."""
    verts, _, cells = m.packed_vertices()
    row = 0
    for cell in cells:
        v = len(cell.vertices)
        assert cell.vertices.base is verts
        assert np.shares_memory(cell.vertices, verts[row:row + v])
        assert cell.vertices.__array_interface__["data"][0] == \
            verts[row:].__array_interface__["data"][0]
        row += v
    assert row == len(verts)


def _churn(m, rng, n_rounds=6):
    """Add RBCs and CTCs and remove random cells, reading the store in
    between so every round is its own generation."""
    for _ in range(n_rounds):
        for make in (make_rbc, make_ctc, make_rbc):
            m.add(make(rng.uniform(0, 1e-4, 3), global_id=m.allocate_id(),
                       subdivisions=1))
        m.packed_vertices()
        gids = [c.global_id for c in m.cells]
        m.remove(gids[int(rng.integers(len(gids)))])


def test_cells_view_their_rows_of_the_store_after_churn():
    rng = np.random.default_rng(3)
    m = CellManager()
    _churn(m, rng)
    _assert_views_of_store(m)
    # Packed order: groups in insertion order (RBC first), cells in group
    # order; two groups are present.
    _, _, cells = m.packed_vertices()
    kinds = [c.kind for c in cells]
    assert kinds == sorted(kinds, key=lambda k: k is not kinds[0])
    assert len(set(kinds)) == 2
    assert [c.global_id for c in cells] == [c.global_id for c in m.cells]


def test_removed_cell_owns_its_vertices():
    rng = np.random.default_rng(4)
    m = CellManager()
    _churn(m, rng, n_rounds=2)
    victim = m.cells[1]
    before = victim.vertices.copy()
    store, _, _ = m.packed_vertices()
    removed = m.remove(victim.global_id)
    assert removed is victim
    assert np.array_equal(removed.vertices, before)
    assert not np.shares_memory(removed.vertices, store)
    verts, _, _ = m.packed_vertices()
    assert not np.shares_memory(removed.vertices, verts)
    m.update_vertices(np.ones_like(verts))
    assert np.array_equal(removed.vertices, before)


def test_view_held_across_membership_change_keeps_its_values():
    rng = np.random.default_rng(5)
    m = CellManager()
    _churn(m, rng, n_rounds=2)
    keeper, leaver = m.cells[0], m.cells[1]
    held = [keeper.vertices, leaver.vertices]
    want = [h.copy() for h in held]
    m.remove(leaver.global_id)
    # New cells of the same group: under slot reuse they would land in
    # the rows the held views still point at.
    for _ in range(3):
        m.add(make_rbc(rng.uniform(0, 1e-4, 3), global_id=m.allocate_id(),
                       subdivisions=1))
    verts, _, _ = m.packed_vertices()
    m.update_vertices(np.full_like(verts, 1e-6))
    for h, w in zip(held, want):
        assert np.array_equal(h, w)
    # The live cell moved with the store; the held view did not.
    assert np.array_equal(keeper.vertices, want[0] + 1e-6)
    _assert_views_of_store(m)


def test_rotate_moves_a_managed_cell_in_the_store():
    m = _manager_with(2)
    cell = m.get(1)
    rotation = random_rotation(np.random.default_rng(6))
    c = cell.centroid()
    want = (cell.vertices - c) @ rotation.T + c
    cell.rotate(rotation)
    verts, _, cells = m.packed_vertices()
    v = len(cell.vertices)
    row = [c.global_id for c in cells].index(cell.global_id) * v
    assert np.array_equal(verts[row:row + v], want)
    m.update_vertices(np.full_like(verts, 2e-6))
    assert np.array_equal(cell.vertices, want + 2e-6)
