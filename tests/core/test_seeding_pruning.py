"""Pruned tile enumeration, the batched RBC census and the per-placement
controller geometry, each against the body it replaced
(``tests/core/reference_bodies.py``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.seeding as seeding
from repro.core import HematocritController, RBCTile, Window, WindowSpec
from repro.core.seeding import rbc_census, stamp_tile, tile_candidates
from repro.fsi import CellManager
from repro.membrane import make_ctc
from repro.membrane.cell import random_rotation
from repro.telemetry import Telemetry, active

from .reference_bodies import (
    full_scan_candidates,
    per_cell_census,
    uncached_maintain,
)


def _assert_same_candidates(got, want):
    assert len(got) == len(want)
    if not want:
        return
    for k in range(3):
        a = np.array([c[k] for c in got])
        b = np.array([c[k] for c in want])
        assert np.array_equal(a, b)


@settings(max_examples=120, deadline=None)
@given(
    side=st.floats(4e-6, 30e-6),
    n_centres=st.integers(0, 10),
    spread=st.floats(0.2, 3.0),
    shift=st.floats(-2.0, 2.0),
    box=st.tuples(*[st.floats(0.05, 2.5)] * 3),
    corner=st.tuples(*[st.floats(-1e-3, 1e-3)] * 3),
    offset=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_enumeration_equals_full_scan(
    side, n_centres, spread, shift, box, corner, offset, seed
):
    """Same centres, orientations, tile indices and order as the scan over
    every copy, for user-built tiles whose centres may lie outside
    [0, side), boxes of any aspect anywhere, any offset and rotation."""
    rng = np.random.default_rng(seed)
    centres = (shift + spread * rng.uniform(size=(n_centres, 3))) * side
    tile = RBCTile(
        side=side, hematocrit=0.1, centers=centres.reshape(-1, 3),
        rotations=np.array([random_rotation(rng) for _ in range(n_centres)]).reshape(-1, 3, 3),
        cell_volume=1.0,
    )
    lo = np.array(corner)
    hi = lo + np.array(box) * side
    stamp_rot = random_rotation(rng)
    off = np.array(offset) * side
    got, examined = tile_candidates(tile, lo, hi, stamp_rot, off)
    want, scanned = full_scan_candidates(tile, lo, hi, stamp_rot, off)
    _assert_same_candidates(got, want)
    assert examined <= scanned


def test_pruned_enumeration_on_a_channel_sized_box():
    """A box many tiles long (the eFSI fill): the full scan's candidates
    from under 1% of its copies."""
    tile = RBCTile.build(hematocrit=0.24, side=16.5e-6, seed=0, diameter=5.5e-6)
    lo = np.array([-25e-6, -25e-6, 0.0])
    hi = np.array([25e-6, 25e-6, 147e-6])
    rng = np.random.default_rng(1)
    for _ in range(3):
        stamp_rot = random_rotation(rng)
        off = rng.uniform(0.0, tile.side, size=3)
        got, examined = tile_candidates(tile, lo, hi, stamp_rot, off)
        want, scanned = full_scan_candidates(tile, lo, hi, stamp_rot, off)
        _assert_same_candidates(got, want)
        assert len(want) > 300
        assert scanned == 23**3 and examined <= 120


def test_stamp_tile_matches_full_scan_stamp(monkeypatch):
    """Same accepted cells, ids and rng state afterwards as a stamp_tile
    that scans every copy."""
    tile = RBCTile.build(hematocrit=0.2, side=24e-6, seed=3)
    lo, hi = np.zeros(3), np.full(3, 30e-6)

    def run():
        m = CellManager()
        rng = np.random.default_rng(5)
        first = stamp_tile(m, tile, lo, hi, rng, subdivisions=2)
        second = stamp_tile(
            m, tile, lo, hi, rng, subdivisions=2,
            keep_predicate=lambda c: c.centroid()[0] < 20e-6,
        )
        return first + second, m, rng

    pruned, m_pruned, rng_pruned = run()
    monkeypatch.setattr(seeding, "tile_candidates", full_scan_candidates)
    full, m_full, rng_full = run()
    assert len(pruned) > 0
    assert [c.global_id for c in pruned] == [c.global_id for c in full]
    for a, b in zip(pruned, full):
        assert np.array_equal(a.vertices, b.vertices)
    assert m_pruned.allocate_id() == m_full.allocate_id()
    assert rng_pruned.bit_generator.state == rng_full.bit_generator.state


def test_subregion_stamp_examines_at_most_27_copies():
    """Work-count guard: a subregion-sized box (1.2 RBC diameters, tile 3
    diameters) is within 2.5 tile sides across in every direction once
    widened by the tile's half-diagonal, so at most three lattice planes of
    copies per axis can reach it.  The full scan examines 5^3 = 125."""
    from repro.constants import RBC_DIAMETER

    tile = RBCTile.build(hematocrit=0.2, side=3 * RBC_DIAMETER, seed=1)
    rng = np.random.default_rng(2)
    counts = []
    for _ in range(40):
        lo = rng.uniform(-50e-6, 50e-6, size=3)
        hi = lo + 1.2 * RBC_DIAMETER
        tel = Telemetry()
        with active(tel):
            stamp_tile(CellManager(), tile, lo, hi, rng, subdivisions=1)
        counts.append(tel.counter("seeding.tile_copies").value)
    _, scanned = full_scan_candidates(tile, lo, hi, np.eye(3), np.zeros(3))
    assert scanned == 125
    assert min(counts) >= 1 and max(counts) <= 27
    assert sum(counts) / len(counts) < 12


def test_census_equals_per_cell_methods():
    """Batched volumes and centroids are bitwise Cell.volume()/centroid(),
    in manager order, skipping CTCs, over deformed cells of two meshes."""
    rng = np.random.default_rng(0)
    m = CellManager()
    m.add(make_ctc(np.full(3, 12e-6), global_id=m.allocate_id(), subdivisions=1))
    tile = RBCTile.build(hematocrit=0.3, side=24e-6, seed=2)
    for subdivisions in (2, 1):
        stamp_tile(m, tile, np.zeros(3), np.full(3, 40e-6), rng,
                   subdivisions=subdivisions)
    for cell in m.cells:
        cell.vertices += rng.normal(scale=1e-7, size=cell.vertices.shape)
    vols, cents = rbc_census(m)
    ref_vols, ref_cents = per_cell_census(m)
    assert len(vols) == m.n_cells - 1 > 10
    assert np.array_equal(vols, ref_vols)
    assert np.array_equal(cents, ref_cents)
    empty = rbc_census(CellManager())
    assert empty[0].shape == (0,) and empty[1].shape == (0, 3)


# -- controller ---------------------------------------------------------

SPEC = WindowSpec(proper_side=16e-6, onramp_width=6e-6, insertion_width=8e-6)
WALL_X = 14e-6  # fluid is x < WALL_X: the window straddles a wall


def _inside(lo, hi):
    return 0.5 * (lo[0] + hi[0]) < WALL_X


def _fluid_fraction(lo, hi):
    return float((np.linspace(lo[0], hi[0], 4) < WALL_X).mean())


def _controller(window, rng):
    return HematocritController(
        window=window,
        tile=RBCTile.build(hematocrit=0.24, side=18e-6, seed=0),
        target=0.2,
        subdivisions=1,
        subregion_filter=_inside,
        fluid_fraction_fn=_fluid_fraction,
        rng=rng,
    )


def _move_history(after_move):
    """Fill at one placement, drift, move the window, maintain again.

    ``after_move(ctrl, new_window)`` returns the controller used from the
    move on.  Returns the population's (gid, vertices) and the rng state.
    """
    m = CellManager()
    ctrl = _controller(Window(center=np.zeros(3), spec=SPEC), np.random.default_rng(4))
    ctrl.maintain(m)
    for cell in m.cells[::3]:
        cell.translate(np.array([0.0, 0.0, 9e-6]))
    ctrl = after_move(ctrl, Window(center=np.array([0.0, 0.0, 6e-6]), spec=SPEC))
    inserted = ctrl.maintain(m)
    return inserted, [(c.global_id, c.vertices.copy()) for c in m.cells], ctrl.rng


def _same_history(a, b):
    assert a[0] == b[0] and a[0] > 0
    assert [g for g, _ in a[1]] == [g for g, _ in b[1]]
    for (_, va), (_, vb) in zip(a[1], b[1]):
        assert np.array_equal(va, vb)
    assert a[2].bit_generator.state == b[2].bit_generator.state


def _uncached(self, manager, protect=frozenset()):
    """HematocritController.maintain as it was before the placement cache."""
    def stamp(lo, hi, existing):
        # ``stamp_tile`` takes the manager's own vertex index (rebuilt
        # once earlier stamps added cells) instead of ``existing``.
        return stamp_tile(
            manager, self.tile, lo, hi, self.rng, diameter=self.diameter,
            subdivisions=self.subdivisions, keep_predicate=self.keep_predicate,
        )
    return uncached_maintain(self, manager, stamp, protect)


def _retarget(ctrl, window):
    ctrl.window = window
    return ctrl


def test_retargeted_controller_inserts_what_a_fresh_one_does():
    def rebuild(ctrl, window):
        return _controller(window, ctrl.rng)

    _same_history(_move_history(_retarget), _move_history(rebuild))


def test_cached_controller_matches_uncached_body(monkeypatch):
    """The pre-cache pass (geometry recomputed at every use, per-cell
    census) makes the same decisions and draws before and after a move."""
    cached = _move_history(_retarget)
    monkeypatch.setattr(HematocritController, "maintain", _uncached)
    _same_history(cached, _move_history(_retarget))


def test_placement_geometry_computed_once_per_placement():
    calls = []

    def counting_fraction(lo, hi):
        calls.append(1)
        return _fluid_fraction(lo, hi)

    def monitored(window):
        boxes = window.insertion_subregions(ctrl.subregion_size)
        return sum(_inside(lo, hi) for lo, hi in boxes)

    ctrl = _controller(Window(center=np.zeros(3), spec=SPEC), np.random.default_rng(0))
    ctrl.fluid_fraction_fn = counting_fraction
    m = CellManager()
    for _ in range(2):
        ctrl.maintain(m)
    first = monitored(ctrl.window)
    assert len(calls) == first > 0
    ctrl.window = Window(center=np.array([2e-6, 0.0, 0.0]), spec=SPEC)
    for _ in range(2):
        ctrl.maintain(m)
    assert len(calls) == first + monitored(ctrl.window)


def test_shell_gate_matches_uncached_body(monkeypatch):
    """Two passes from an empty window: the first fills, the shell gate
    stops the second."""
    def run():
        m = CellManager()
        ctrl = _controller(Window(center=np.zeros(3), spec=SPEC), np.random.default_rng(7))
        out = [ctrl.maintain(m), ctrl.maintain(m)]
        return out, [c.global_id for c in m.cells], ctrl.n_inserted

    cached = run()
    assert cached[0][0] > 0 and cached[0][1] == 0
    monkeypatch.setattr(HematocritController, "maintain", _uncached)
    assert cached == run()
