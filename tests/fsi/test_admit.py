"""Batched greedy overlap resolution (``UniformSubgrid.admit``) against the
one-query-one-insert loop it replaced (``tests/core/reference_bodies.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsi.subgrid import UniformSubgrid
from repro.telemetry import Telemetry, active

from ..core.reference_bodies import sequential_admit

#: A power of two, so lattice points ``k * R / 2`` and their differences
#: are exact and pairs two lattice steps apart sit at exactly ``R``.
R = 2.0**-21


def _pair(index_points, index_labels, cell_size):
    """Two identical indexes holding the given points."""
    out = []
    for _ in range(2):
        g = UniformSubgrid(cell_size=cell_size)
        for pts, label in zip(index_points, index_labels):
            g.insert(pts, label)
        out.append(g)
    return out


def _assert_same_index(a, b):
    assert len(a) == len(b)
    assert a._points.tobytes() == b._points.tobytes()
    assert np.array_equal(a._labels, b._labels)
    assert np.array_equal(a._hashes, b._hashes)
    assert np.array_equal(a._order, b._order)


def _assert_admit_matches(blocks, labels, radius, index_points=(),
                          index_labels=(), cell_size=None):
    batched, sequential = _pair(index_points, index_labels,
                                cell_size or radius)
    got = batched.admit(blocks, labels, radius)
    want = sequential_admit(sequential, blocks, labels, radius)
    assert got.dtype == bool and got.shape == (len(blocks),)
    assert got.tolist() == want.tolist()
    _assert_same_index(batched, sequential)
    return got


def _blocks(rng, n, span, lattice, radius):
    """``n`` small point clouds of 1-8 points each, some repeating an
    earlier block's points exactly."""
    blocks = []
    for _ in range(n):
        if blocks and rng.uniform() < 0.15:
            blocks.append(blocks[rng.integers(len(blocks))].copy())
            continue
        m = int(rng.integers(1, 9))
        if lattice:
            # Lattice of spacing radius / 2: many pairs at exactly radius.
            centre = rng.integers(-int(span / radius), int(span / radius) + 1, 3)
            pts = (2 * centre + rng.integers(-2, 3, size=(m, 3))) * (radius / 2)
        else:
            centre = rng.uniform(-span, span, 3)
            pts = centre + rng.uniform(-1.5 * radius, 1.5 * radius, (m, 3))
        blocks.append(pts.astype(np.float64))
    return blocks


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_blocks=st.integers(0, 40),
    n_indexed=st.integers(0, 12),
    lattice=st.booleans(),
    density=st.floats(0.5, 6.0),
    wide_cells=st.booleans(),
)
def test_admit_matches_sequential_greedy(seed, n_blocks, n_indexed, lattice,
                                         density, wide_cells):
    """Property: same admitted blocks and same index afterwards (points,
    labels, hash order) as the one-at-a-time loop, on dense populations
    with and without indexed points, on a lattice with exact-radius pairs
    and off it, with exact repeats, and with cells wider than the radius."""
    rng = np.random.default_rng(seed)
    radius = R if lattice else float(rng.uniform(0.2, 1.0))
    span = radius * density
    blocks = _blocks(rng, n_blocks, span, lattice, radius)
    labels = rng.permutation(1000)[:n_blocks] + 100
    indexed = _blocks(rng, n_indexed, span, lattice, radius)
    cell_size = radius * (2.0 if wide_cells else 1.0)
    _assert_admit_matches(blocks, labels, radius, indexed,
                          list(range(n_indexed)), cell_size)


def test_chain_keeps_the_end_whose_only_conflict_was_rejected():
    """A–B and B–C overlap, A–C do not: greedy by ID keeps A and C.
    Dropping the higher ID of every overlapping pair would lose C too."""
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.75, 0.0, 0.0]])
    c = np.array([[1.5, 0.0, 0.0]])
    keep = _assert_admit_matches([a, b, c], [1, 2, 3], 1.0)
    assert keep.tolist() == [True, False, True]
    # An indexed point next to A blocks it, so B is kept and C is not.
    keep = _assert_admit_matches([a, b, c], [1, 2, 3], 1.0,
                                 [np.array([[-0.5, 0.0, 0.0]])], [0])
    assert keep.tolist() == [False, True, False]


@pytest.mark.parametrize("radius", [R, 0.5, 1.0])
def test_pairs_at_exactly_the_radius_conflict(radius):
    """``d2 == radius²`` conflicts; one ulp farther does not."""
    a = np.array([[0.0, 0.0, 0.0]])
    at = np.array([[radius, 0.0, 0.0]])
    beyond = np.array([[np.nextafter(radius, 2 * radius), 0.0, 0.0]])
    assert _assert_admit_matches([a, at], [0, 1], radius).tolist() == [True, False]
    assert _assert_admit_matches([a, beyond], [0, 1], radius).tolist() == [True, True]
    keep = _assert_admit_matches([at, beyond], [1, 2], radius, [a], [0])
    assert keep.tolist() == [False, True]


def test_coincident_vertices_conflict():
    p = np.array([[0.3, -0.2, 0.1], [2.0, 2.0, 2.0]])
    keep = _assert_admit_matches([p, p.copy(), p[1:].copy()], [4, 5, 6], 0.5)
    assert keep.tolist() == [True, False, False]
    keep = _assert_admit_matches([p.copy()], [5], 0.5, [p], [4])
    assert keep.tolist() == [False]


def test_empty_sides():
    """No blocks leaves the index alone; an empty index admits by the
    blocks alone; an empty block is admitted and stores nothing."""
    pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    keep = _assert_admit_matches([], [], 0.5, [pts], [1])
    assert keep.tolist() == []
    keep = _assert_admit_matches([pts[:1], pts[1:]], [1, 2], 0.5)
    assert keep.tolist() == [True, False]
    keep = _assert_admit_matches([np.empty((0, 3)), pts], [1, 2], 0.5)
    assert keep.tolist() == [True, True]
    keep = _assert_admit_matches([np.empty((0, 3))] * 2, [1, 2], 0.5, [pts], [3])
    assert keep.tolist() == [True, True]


def test_indexed_points_far_outside_the_blocks_box():
    """Indexed points far from every block neither block nor pair."""
    far = [np.array([[1e6, 0.0, 0.0]]), np.array([[-1e3, -1e3, 5e2]])]
    blocks = [np.array([[0.0, 0.0, 0.0]]), np.array([[0.3, 0.0, 0.0]]),
              np.array([[3.0, 0.0, 0.0]])]
    keep = _assert_admit_matches(blocks, [7, 8, 9], 0.5, far, [1, 2])
    assert keep.tolist() == [True, False, True]


def test_admit_rejects_radius_above_cell_size():
    g = UniformSubgrid(cell_size=1.0)
    with pytest.raises(ValueError):
        g.admit([np.zeros((1, 3))], [0], 1.5)


def test_admit_counts_vertex_pairs_and_sorts_once_per_join(monkeypatch):
    """Work-count guard: one admit over 40 overlapping blocks sorts in one
    join and one insert, whatever the block count, and counts the vertex
    pairs it found within the radius."""
    blocks = [np.array([[0.1 * k, 0.0, 0.0], [0.1 * k, 5.0, 0.0]])
              for k in range(40)]
    sorts = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sorts.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    tel = Telemetry()
    g = UniformSubgrid(cell_size=0.25)
    with active(tel):
        keep = g.admit(blocks, list(range(40)), 0.25)
    assert keep.tolist() == [k % 3 == 0 for k in range(40)]
    assert len(sorts) == 2
    # Each point pairs with its 2 neighbours on each side along x (the
    # rows are 0.1 apart), in both rows.
    assert tel.counter("overlap.pairs").value == 2 * (39 + 38)
