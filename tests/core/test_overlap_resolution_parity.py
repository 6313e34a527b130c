"""Tile stamping, the hematocrit controller and the window fill, each
resolving overlaps in one ``UniformSubgrid.admit`` pass, against their
one-query-one-insert bodies (``tests/core/reference_bodies.py``): same
global IDs, vertex bytes, counters and index afterwards."""

import dataclasses

import numpy as np
import pytest

import repro.core.moving as moving
import repro.core.seeding as seeding
from repro.constants import OVERLAP_CUTOFF
from repro.core import HematocritController, RBCTile, Window, WindowMover, WindowSpec
from repro.fsi import CellManager
from repro.fsi.subgrid import UniformSubgrid
from repro.membrane import make_ctc, make_rbc
from repro.membrane.cell import random_rotation
from repro.telemetry import Telemetry, active

from . import reference_bodies
from .reference_bodies import (
    sequential_move_cells,
    sequential_stamp_tile,
    uncached_maintain,
)

CUTOFF = 0.5e-6
SPEC = WindowSpec(proper_side=16e-6, onramp_width=6e-6, insertion_width=8e-6)


def _counts(tel):
    """The program's counters; the resolver's own pair count is new."""
    return {name: c.value for name, c in tel.metrics.counters.items()
            if name != "overlap.pairs"}


def _population(m):
    return [(c.global_id, c.kind, c.vertices.tobytes()) for c in m.cells]


def _index(g):
    return (g._points.tobytes(), g._labels.tobytes(), g._hashes.tobytes(),
            g._order.tobytes())


def _dense_manager(n, seed, span=16e-6):
    """RBCs at random centres, packed so that many pairs overlap."""
    rng = np.random.default_rng(seed)
    m = CellManager()
    for _ in range(n):
        m.add(make_rbc(rng.uniform(0.0, span, size=3), global_id=m.allocate_id(),
                       rotation=random_rotation(rng), subdivisions=1))
    return m


def _shaped(tile, seed):
    """``tile`` carrying perturbed per-cell shapes, as an equilibrated
    tile does."""
    ref = make_rbc(np.zeros(3), global_id=0, subdivisions=1).vertices
    rng = np.random.default_rng(seed)
    shapes = tuple(ref * rng.uniform(0.9, 1.1, size=3) for _ in tile.centers)
    return dataclasses.replace(tile, shapes=shapes)


@pytest.mark.parametrize("shapes", [False, True])
@pytest.mark.parametrize("predicate", [False, True])
@pytest.mark.parametrize("cached_index", [False, True])
def test_stamp_tile_matches_sequential_body(shapes, predicate, cached_index):
    """The stamp resolves on the manager's vertex index, whether it was
    built before the stamp (and reused) or by it."""
    tile = RBCTile.build(hematocrit=0.3, side=16e-6, seed=2)
    if shapes:
        tile = _shaped(tile, 3)
    keep = (lambda c: c.centroid()[1] < 12e-6) if predicate else None
    lo, hi = np.full(3, -2e-6), np.full(3, 18e-6)
    runs = []
    for stamp in (seeding.stamp_tile, sequential_stamp_tile):
        m = _dense_manager(14, seed=8)
        if cached_index:
            m.vertex_subgrid(CUTOFF)
        rng = np.random.default_rng(5)
        tel = Telemetry()
        with active(tel):
            added = stamp(m, tile, lo, hi, rng, overlap_cutoff=CUTOFF,
                          subdivisions=1, keep_predicate=keep)
        runs.append((
            [(c.global_id, c.vertices.tobytes()) for c in added],
            _population(m), m.allocate_id(), rng.bit_generator.state,
            _counts(tel), _index(m._subgrid),
        ))
    got, want = runs
    assert got == want
    counts = got[4]
    assert 0 < counts["seeding.rejected_overlap"] < counts["seeding.candidates"]
    assert (counts["seeding.rejected_predicate"] > 0) is predicate


def _controller(window, rng):
    return HematocritController(
        window=window, tile=RBCTile.build(hematocrit=0.3, side=18e-6, seed=0),
        target=0.25, subdivisions=1, rng=rng,
    )


def _maintain_history(protect):
    """Fill at one placement, drift a third of the cells, move the window
    and maintain again; record everything after each pass."""
    m = CellManager()
    ctc = m.add(make_ctc(np.zeros(3), global_id=m.allocate_id(), subdivisions=1))
    ctrl = _controller(Window(center=np.zeros(3), spec=SPEC), np.random.default_rng(4))
    tel = Telemetry()
    history = []
    with active(tel):
        for shift in (None, np.array([0.0, 0.0, 7e-6])):
            if shift is not None:
                for cell in m.cells[1::3]:
                    cell.translate(shift)
                ctrl.window = Window(center=0.5 * shift, spec=SPEC)
            inserted = ctrl.maintain(m, protect={ctc.global_id} if protect else set())
            history.append((inserted, _population(m), m.allocate_id(),
                            _index(m._subgrid), ctrl.rng.bit_generator.state))
    return history, _counts(tel)


def _sequential_maintain(self, manager, protect=frozenset()):
    """A controller pass stamping its subregions in turn, each with the
    one-query-one-insert stamp."""
    def stamp(lo, hi, existing):
        return sequential_stamp_tile(
            manager, self.tile, lo, hi, self.rng,
            overlap_cutoff=OVERLAP_CUTOFF, diameter=self.diameter,
            subdivisions=self.subdivisions,
            keep_predicate=self.keep_predicate, existing=existing,
        )
    return uncached_maintain(self, manager, stamp, protect)


@pytest.mark.parametrize("protect", [False, True])
def test_maintain_matches_sequential_body(monkeypatch, protect):
    """One resolution over all of a pass's stamps decides what stamping
    the subregions in turn does."""
    got = _maintain_history(protect)
    monkeypatch.setattr(HematocritController, "maintain", _sequential_maintain)
    want = _maintain_history(protect)
    assert got == want
    (first, second), counts = got
    assert first[0] > 0 and second[0] > 0
    assert counts["seeding.rejected_overlap"] > 0


class _Recorded(UniformSubgrid):
    """``UniformSubgrid`` remembering every instance made."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Recorded.made.append(self)


@pytest.mark.parametrize("displacement", [
    np.array([6e-6, 0.0, 0.0]), np.array([3e-6, -4e-6, 2e-6]), np.zeros(3),
])
def test_move_cells_matches_sequential_body(monkeypatch, displacement):
    """Same report, population, next ID, counters and fill index, on a
    window packed densely enough that fill clones overlap captured cells
    and one another."""
    monkeypatch.setattr(moving, "UniformSubgrid", _Recorded)
    monkeypatch.setattr(reference_bodies, "UniformSubgrid", _Recorded)
    runs, pairs = [], []
    for move in (WindowMover().move_cells, sequential_move_cells):
        m = CellManager()
        ctc = m.add(make_ctc(np.zeros(3), global_id=m.allocate_id(), subdivisions=1))
        old = Window(center=np.zeros(3), spec=SPEC)
        lo, hi = old.bounds()
        seeding.stamp_tile(m, RBCTile.build(hematocrit=0.3, side=18e-6, seed=0),
                           lo, hi, np.random.default_rng(6), subdivisions=1)
        for cell in m.cells[2::4]:  # drifted cells overlap their neighbours
            cell.translate(np.array([1.5e-6, 0.0, 0.0]))
        # Storage order no longer follows the IDs.
        rbcs = [m.remove(c.global_id) for c in m.cells if c is not ctc]
        for k in np.random.default_rng(1).permutation(len(rbcs)):
            m.add(rbcs[k])
        _Recorded.made.clear()
        tel = Telemetry()
        with active(tel):
            report = move(m, old, old.moved_to(displacement), protect={ctc.global_id})
        (occupied,) = _Recorded.made
        runs.append((
            dataclasses.astuple(report)[1:], report.displacement.tobytes(),
            _population(m), m.allocate_id(), _counts(tel), _index(occupied),
        ))
        pairs.append(tel.counter("overlap.pairs").value)
    got, want = runs
    assert got == want
    n_captured, n_filled = got[0][:2]
    assert n_captured > 0 and pairs[0] > 0
    assert (n_filled > 0) is bool(displacement.any())
