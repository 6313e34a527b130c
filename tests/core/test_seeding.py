"""RBC tiles, stamping, and the hematocrit controller (Section 2.4.2)."""

import numpy as np
import pytest

from repro.analytics import region_hematocrit
from repro.core import HematocritController, RBCTile, Window, WindowSpec, stamp_tile
import repro.core.seeding as seeding
from repro.core.seeding import stamp_tile as stamp
from repro.fsi import CellManager
from repro.fsi.overlap import find_overlapping_vertices
from repro.membrane import CellKind

TILE_SIDE = 24e-6


@pytest.fixture(scope="module")
def tile():
    return RBCTile.build(hematocrit=0.2, side=TILE_SIDE, seed=3)


def test_tile_reaches_target_density(tile):
    ht = tile.n_cells * tile.cell_volume / TILE_SIDE**3
    assert np.isclose(ht, 0.2, rtol=0.05)


def test_tile_respects_min_spacing(tile):
    from repro.constants import RBC_DIAMETER

    min_d = seeding.TILE_MIN_SPACING * RBC_DIAMETER
    c = tile.centers
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            d = np.abs(c[i] - c[j])
            d = np.minimum(d, TILE_SIDE - d)
            assert np.linalg.norm(d) >= min_d - 1e-12


def test_tile_deterministic():
    a = RBCTile.build(0.15, TILE_SIDE, seed=9)
    b = RBCTile.build(0.15, TILE_SIDE, seed=9)
    assert np.allclose(a.centers, b.centers)
    assert np.allclose(a.rotations, b.rotations)


def test_tile_validation(monkeypatch):
    with pytest.raises(ValueError):
        RBCTile.build(0.0, TILE_SIDE)
    # Too few attempts to place six cells at the spacing constraint.
    monkeypatch.setattr(seeding, "TILE_MAX_ATTEMPTS", 5)
    with pytest.raises(RuntimeError):
        RBCTile.build(0.59, 10e-6)


def test_stamp_places_cells_inside_box(tile, rng):
    m = CellManager()
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.array([30e-6, 30e-6, 30e-6])
    added = stamp(m, tile, lo, hi, rng, subdivisions=2)
    assert len(added) > 0
    for c in added:
        assert np.all(c.centroid() >= lo) and np.all(c.centroid() < hi)


def test_stamp_rejects_overlaps(tile, rng):
    m = CellManager()
    lo, hi = np.zeros(3), np.full(3, 25e-6)
    stamp(m, tile, lo, hi, rng, subdivisions=2)
    cells = m.cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert not find_overlapping_vertices(cells[i], cells[j], 0.5e-6)


def test_stamp_respects_keep_predicate(tile, rng):
    m = CellManager()
    lo, hi = np.zeros(3), np.full(3, 25e-6)
    added = stamp(
        m, tile, lo, hi, rng, subdivisions=2,
        keep_predicate=lambda c: c.centroid()[0] < 10e-6,
    )
    for c in added:
        assert c.centroid()[0] < 10e-6


def test_stamp_counts_candidates_and_rejections(tile, rng):
    """Every candidate is accepted, rejected by the predicate or rejected
    for overlap, and the three telemetry counters say which."""
    from repro.telemetry import Telemetry, active

    m = CellManager()
    lo, hi = np.zeros(3), np.full(3, 25e-6)
    stamp(m, tile, lo, hi, rng, subdivisions=2)
    tel = Telemetry()
    with active(tel):
        added = stamp(
            m, tile, lo, hi, rng, subdivisions=2,
            keep_predicate=lambda c: c.centroid()[0] < 15e-6,
        )
    candidates = tel.counter("seeding.candidates").value
    overlap = tel.counter("seeding.rejected_overlap").value
    predicate = tel.counter("seeding.rejected_predicate").value
    assert overlap > 0 and predicate > 0
    assert candidates == len(added) + overlap + predicate


def test_stamp_reaches_reasonable_density(tile, rng):
    m = CellManager()
    side = 30e-6
    stamp(m, tile, np.zeros(3), np.full(3, side), rng, subdivisions=2)
    vols = np.array([c.volume() for c in m.cells])
    cents = np.array([c.centroid() for c in m.cells])
    ht = region_hematocrit(vols, cents, np.zeros(3), np.full(3, side))
    assert ht > 0.08  # tile is 0.2; stamping loses some to overlap culls


def _controller(target=0.2, seed=0):
    spec = WindowSpec(proper_side=16e-6, onramp_width=6e-6, insertion_width=8e-6)
    window = Window(center=np.zeros(3), spec=spec)
    tile = RBCTile.build(hematocrit=min(target * 1.2, 0.5), side=18e-6, seed=seed)
    return HematocritController(
        window=window,
        tile=tile,
        target=target,
        subdivisions=2,
        rng=np.random.default_rng(seed),
    )


def test_controller_fills_empty_window():
    ctrl = _controller()
    m = CellManager()
    inserted = ctrl.maintain(m)
    assert inserted > 0
    assert m.n_cells == inserted


def test_controller_skips_full_subregions():
    ctrl = _controller()
    m = CellManager()
    ctrl.maintain(m)
    # A second pass right away inserts far fewer cells.
    second = ctrl.maintain(m)
    assert second < ctrl.n_inserted


def test_controller_removes_departed_cells():
    ctrl = _controller()
    m = CellManager()
    ctrl.maintain(m)
    n0 = m.n_cells
    # Teleport one cell far outside the window.
    cell = m.cells[0]
    cell.translate(np.array([1.0, 0, 0]))
    removed = ctrl.remove_departed(m)
    assert removed == 1
    assert m.n_cells == n0 - 1


def test_controller_protects_ids():
    ctrl = _controller()
    m = CellManager()
    ctrl.maintain(m)
    cell = m.cells[0]
    cell.translate(np.array([1.0, 0, 0]))
    removed = ctrl.remove_departed(m, protect={cell.global_id})
    assert removed == 0


def test_controller_subregion_filter():
    ctrl = _controller()
    ctrl.subregion_filter = lambda lo, hi: False
    m = CellManager()
    assert ctrl.maintain(m) == 0


def test_controller_ignores_non_rbc():
    from repro.membrane import make_ctc

    ctrl = _controller()
    m = CellManager()
    ctc = make_ctc(np.array([1.0, 0, 0]), global_id=m.allocate_id(), subdivisions=2)
    m.add(ctc)
    ctrl.remove_departed(m)
    assert ctc.global_id in m  # CTCs are never removed by the controller
