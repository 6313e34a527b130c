"""Window-move capture/fill algorithm (Section 2.4.3 / Fig. 3B)."""

import numpy as np
import pytest

from repro.core import Window, WindowSpec, WindowMover, classify_for_move
from repro.core.moving import MoveReport
from repro.fsi import CellManager
from repro.membrane import make_ctc, make_rbc

from ..fsi.reference_bodies import find_overlapping_vertices

SPEC = WindowSpec(proper_side=24e-6, onramp_width=8e-6, insertion_width=8e-6)


def _populated(center, n=8, seed=0):
    """Window at `center` with RBCs laid out on a grid inside it."""
    m = CellManager()
    w = Window(center=np.asarray(center), spec=SPEC)
    rng = np.random.default_rng(seed)
    lo, hi = w.interior_bounds()
    placed = 0
    for x in np.linspace(lo[0] + 5e-6, hi[0] - 5e-6, 3):
        for y in np.linspace(lo[1] + 5e-6, hi[1] - 5e-6, 3):
            if placed >= n:
                break
            m.add(
                make_rbc(
                    np.array([x, y, center[2]]),
                    global_id=m.allocate_id(),
                    subdivisions=2,
                )
            )
            placed += 1
    return m, w


def test_classify_for_move_splits_by_new_interior():
    m, old = _populated(np.zeros(3))
    new = old.moved_to(np.array([10e-6, 0, 0]))
    capture, rest = classify_for_move(m.cells, old, new)
    assert len(capture) + len(rest) == m.n_cells
    lo, hi = new.interior_bounds()
    for c in capture:
        assert np.all(c.centroid() >= lo) and np.all(c.centroid() <= hi)
    for c in rest:
        assert not (np.all(c.centroid() >= lo) and np.all(c.centroid() <= hi))


def test_captured_cells_keep_exact_shape():
    m, old = _populated(np.zeros(3))
    new = old.moved_to(np.array([6e-6, 0, 0]))
    capture, _ = classify_for_move(m.cells, old, new)
    snapshots = {c.global_id: c.vertices.copy() for c in capture}
    WindowMover().move_cells(m, old, new)
    for gid, verts in snapshots.items():
        assert gid in m
        assert np.array_equal(m.get(gid).vertices, verts)


def test_fill_cells_are_shifted_copies():
    m, old = _populated(np.zeros(3))
    shapes_before = {c.global_id: c.vertices.copy() for c in m.cells}
    displacement = np.array([14e-6, 0, 0])
    new = old.moved_to(displacement)
    report = WindowMover().move_cells(m, old, new)
    assert report.n_filled > 0
    # Every fill cell's shape matches some original cell shifted by d.
    originals = [v + displacement for v in shapes_before.values()]
    new_ids = set(c.global_id for c in m.cells) - set(shapes_before)
    for gid in new_ids:
        verts = m.get(gid).vertices
        assert any(np.allclose(verts, o, atol=1e-12) for o in originals)


def test_cells_outside_new_window_removed():
    m, old = _populated(np.zeros(3))
    new = old.moved_to(np.array([30e-6, 0, 0]))
    WindowMover().move_cells(m, old, new)
    lo, hi = new.bounds()
    for c in m.cells:
        assert np.all(c.centroid() >= lo - 1e-9)
        assert np.all(c.centroid() <= hi + 1e-9)


def test_no_overlaps_after_move():
    m, old = _populated(np.zeros(3))
    new = old.moved_to(np.array([10e-6, 4e-6, 0]))
    WindowMover().move_cells(m, old, new)
    cells = m.cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert not find_overlapping_vertices(cells[i], cells[j], 0.5e-6)


def test_protected_ctc_untouched():
    m, old = _populated(np.zeros(3))
    ctc = make_ctc(np.zeros(3), global_id=m.allocate_id(), subdivisions=2)
    m.add(ctc)
    verts0 = ctc.vertices.copy()
    new = old.moved_to(np.array([12e-6, 0, 0]))
    WindowMover().move_cells(m, old, new, protect={ctc.global_id})
    assert ctc.global_id in m
    assert np.array_equal(m.get(ctc.global_id).vertices, verts0)


def test_report_bookkeeping():
    m, old = _populated(np.zeros(3))
    n0 = m.n_cells
    new = old.moved_to(np.array([10e-6, 0, 0]))
    report = WindowMover().move_cells(m, old, new)
    assert isinstance(report, MoveReport)
    assert np.allclose(report.displacement, [10e-6, 0, 0])
    assert report.n_captured + report.n_removed == n0
    assert m.n_cells == report.n_captured + report.n_filled


def test_zero_displacement_move_is_stable():
    m, old = _populated(np.zeros(3))
    ids0 = {c.global_id for c in m.cells}
    report = WindowMover().move_cells(m, old, old.moved_to(old.center))
    # Everything is captured; nothing removed.
    assert report.n_removed == 0
    assert ids0 <= {c.global_id for c in m.cells}
