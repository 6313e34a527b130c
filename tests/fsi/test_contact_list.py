"""The Verlet-skin contact list against a fresh-tree oracle.

:class:`~repro.fsi.contact.ContactList` carries candidate pairs across
steps; what it hands out each step must be exactly what a tree built
from nothing at the current positions would find — same pairs, in
``(i, j)`` order — so that forces cannot depend on when the list was
built (restart independence).
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.constants import REPULSION_STIFFNESS
from repro.fsi import CellManager
from repro.fsi.contact import SKIN_FACTOR, ContactList, contact_forces
from repro.membrane import make_rbc
from repro.telemetry import Telemetry, active

CUTOFF = 0.4
STIFFNESS = 1.7


def _fresh_pairs(verts, cells, cutoff):
    """Inter-cell pairs of a from-scratch tree, lexicographic order."""
    pairs = cKDTree(verts).query_pairs(cutoff, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    keep = cells[i] != cells[j]
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]


def _cloud(rng, n=150, n_cells=12, extent=2.0):
    return rng.uniform(0.0, extent, size=(n, 3)), rng.integers(0, n_cells, size=n)


def test_active_pairs_equal_fresh_tree_along_a_random_walk(rng):
    """Small steps, with jumps larger than the skin thrown in: every step
    the active pairs are the oracle's, and the tree is rebuilt only when
    a vertex leaves its half-skin ball."""
    verts, cells = _cloud(rng)
    contacts = ContactList()
    tel = Telemetry()
    n_steps, jumps, seen_pairs = 60, (17, 40), 0
    with active(tel):
        for step in range(n_steps):
            i, j = contacts.active_pairs(verts, cells, CUTOFF, key=0)
            want_i, want_j = _fresh_pairs(verts, cells, CUTOFF)
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            seen_pairs += len(i)
            verts = verts + rng.normal(0.0, 0.01 * CUTOFF, size=verts.shape)
            if step in jumps:
                verts[rng.integers(len(verts))] += 3.0 * SKIN_FACTOR * CUTOFF
    assert seen_pairs > 0
    rebuilds = tel.counter("fsi.contact.rebuilds").value
    # First build, one per jump, and a few as the walk diffuses out of
    # the half-skin ball: far fewer than one per step.
    assert len(jumps) + 1 <= rebuilds <= n_steps // 4
    assert tel.counter("fsi.contact.pairs").value == seen_pairs
    assert tel.counter("fsi.contact.candidates").value >= seen_pairs


def test_forces_do_not_depend_on_when_the_list_was_built(rng):
    """Restart independence: a list built at step 0 and carried to step k
    gives forces ``array_equal`` to a list built at step k."""
    verts, cells = _cloud(rng)
    carried = ContactList()
    for _ in range(25):
        got = carried.forces(verts, cells, CUTOFF, STIFFNESS, key=0).copy()
        fresh = ContactList().forces(verts, cells, CUTOFF, STIFFNESS, key=0)
        assert np.array_equal(got, fresh)
        assert np.array_equal(
            got, contact_forces(verts, cells, CUTOFF, STIFFNESS)
        )
        verts = verts + rng.normal(0.0, 0.02 * CUTOFF, size=verts.shape)
    assert np.abs(got).max() > 0.0


def test_key_or_cutoff_change_rebuilds(rng):
    verts, cells = _cloud(rng)
    contacts = ContactList()
    tel = Telemetry()
    with active(tel):
        contacts.active_pairs(verts, cells, CUTOFF, key=0)
        contacts.active_pairs(verts, cells, CUTOFF, key=0)
        assert tel.counter("fsi.contact.rebuilds").value == 1
        # Same positions, relabelled cells: only the key says so.
        relabelled = (cells + rng.integers(0, 3, size=len(cells))) % 12
        i, j = contacts.active_pairs(verts, relabelled, CUTOFF, key=1)
        assert tel.counter("fsi.contact.rebuilds").value == 2
        want = _fresh_pairs(verts, relabelled, CUTOFF)
        assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])
        i, j = contacts.active_pairs(verts, relabelled, 0.5 * CUTOFF, key=1)
        assert tel.counter("fsi.contact.rebuilds").value == 3
        want = _fresh_pairs(verts, relabelled, 0.5 * CUTOFF)
        assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])


@pytest.mark.parametrize("cutoff", [0.0, -1.0])
def test_non_positive_cutoff_and_empty_population(cutoff):
    contacts = ContactList()
    verts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
    f = contacts.forces(verts, np.array([0, 1]), cutoff, 1.0)
    assert f.shape == (2, 3) and not f.any()
    f = contacts.forces(np.empty((0, 3)), np.empty(0, dtype=int), 0.5, 1.0)
    assert f.shape == (0, 3)
    # ... and the list still works afterwards.
    f = contacts.forces(verts, np.array([0, 1]), 0.5, 1.0)
    assert f[0, 0] < 0 < f[1, 0]


def _touching_cells(manager, n):
    """``n`` RBCs stacked face to face, 0.3 um apart (inside the cutoff)."""
    for k in range(n):
        manager.add(make_rbc(
            np.array([0.0, 0.0, k * 0.3e-6]) + 5e-6,
            global_id=manager.allocate_id(), subdivisions=1,
        ))


def _manager_oracle(manager):
    verts, ordinals, _ = manager.all_vertices()
    return contact_forces(
        verts, ordinals, manager.contact_cutoff, REPULSION_STIFFNESS
    ).copy()


def test_manager_list_survives_add_remove_and_motion(rng):
    """The manager's carried list against the stateless oracle while the
    population drifts, gains a cell and loses one mid-run."""
    manager = CellManager(contact_cutoff=0.5e-6)
    _touching_cells(manager, 3)
    tel = Telemetry()
    for step in range(30):
        manager.packed_vertices()
        with active(tel):  # the oracle's own builds stay uncounted
            got = manager.contact_forces().copy()
        assert np.array_equal(got, _manager_oracle(manager))
        if step == 0:
            assert np.abs(got).max() > 0.0
        n = sum(len(c.vertices) for c in manager.cells)
        manager.update_vertices(rng.normal(0.0, 4e-9, size=(n, 3)))
        if step == 10:
            manager.add(make_rbc(
                np.array([5e-6, 5e-6, 5.9e-6]),
                global_id=manager.allocate_id(), subdivisions=1,
            ))
        if step == 20:
            manager.remove(manager.cells[0].global_id)
    # First build, the add and the remove; the drift stays inside the skin.
    assert tel.counter("fsi.contact.rebuilds").value == 3
