"""Packed halo exchange and golden matrices.

The golden matrix here is the distributed runtime's contract: every
executor backend reproduces the single-grid
:class:`~repro.lbm.solver.LBMSolver` bit-for-bit over ≥40 steps,
including a walled lattice.
"""

import warnings

import numpy as np
import pytest

from repro.lbm import Grid, LBMSolver
from repro.lbm.boundaries import BounceBackWalls
from repro.lbm.lattice import D3Q19
from repro.parallel import PACKED_QS, DistributedLBMSolver

SHAPE = (12, 10, 8)
TAU = 0.8
STEPS = 40


def _seeded_f(shape, tau=TAU, seed=7):
    rng = np.random.default_rng(seed)
    g = Grid(shape, tau=tau)
    g.init_equilibrium(
        1.0 + 0.02 * rng.standard_normal(shape),
        0.02 * rng.standard_normal((3,) + shape),
    )
    return g.f.copy()


def _single_grid_reference(f0, shape=SHAPE, tau=TAU, steps=STEPS, solid=None):
    g = Grid(shape, tau=tau)
    handlers = []
    if solid is not None:
        g.solid[:] = solid
        handlers.append(BounceBackWalls(solid))
    g.f[:] = f0
    g.mark_f_modified()
    s = LBMSolver(g, handlers)
    for _ in range(steps):
        s.step()
    return g.f.copy()


def _shell_solid(shape):
    solid = np.zeros(shape, dtype=bool)
    for ax in range(3):
        lo = tuple(
            slice(0, 1) if d == ax else slice(None) for d in range(3)
        )
        hi = tuple(
            slice(-1, None) if d == ax else slice(None) for d in range(3)
        )
        solid[lo] = True
        solid[hi] = True
    return solid


# ----------------------------------------------------------------------
# Packed-population rule


def test_packed_qs_counts():
    """5 populations per face, 1 per edge; D3Q19 never reads corners."""
    for off, qs in PACKED_QS.items():
        nz = sum(1 for o in off if o)
        assert nz in (1, 2), off
        assert len(qs) == (5 if nz == 1 else 1), off


def test_packed_qs_direction_rule():
    """A population rides offset ``off`` iff its velocity opposes ``off``
    on every nonzero axis — exactly what the pull stream reads from that
    halo slab."""
    for off, qs in PACKED_QS.items():
        for i in range(D3Q19.Q):
            expected = all(
                int(D3Q19.c[i][ax]) == -off[ax]
                for ax in range(3)
                if off[ax] != 0
            )
            assert (i in qs) == expected


# ----------------------------------------------------------------------
# Golden matrix


@pytest.mark.parametrize("backend", ["serial", "processes"],
                         ids=["exchange-serial", "exchange-processes"])
def test_golden_matrix_bitwise(backend):
    f0 = _seeded_f(SHAPE)
    ref = _single_grid_reference(f0)
    with DistributedLBMSolver(
        SHAPE, tau=TAU, n_tasks=4, backend=backend, n_workers=2,
    ) as d:
        d.scatter(f0)
        d.step(STEPS)
        got = d.gather()
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("backend,tau", [
    ("serial", TAU), ("serial", 1.0), ("processes", TAU), ("processes", 1.0),
], ids=["exchange", "exchange-tau1", "exchange-processes",
        "exchange-tau1-processes"])
def test_golden_matrix_walled_periodic(backend, tau):
    """Solid shell on the periodic decomposition: full-array equality —
    even the garbage-but-deterministic solid nodes match.  tau = 1 runs
    the collide without its (1 - omega) f pass on every rank."""
    solid = _shell_solid(SHAPE)
    f0 = _seeded_f(SHAPE, tau=tau)
    ref = _single_grid_reference(f0, tau=tau, solid=solid)
    with DistributedLBMSolver(
        SHAPE, tau=tau, n_tasks=4, backend=backend, n_workers=2, solid=solid,
    ) as d:
        d.scatter(f0)
        d.step(STEPS)
        got = d.gather()
    np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------
# Communication accounting


def _check_packed_exchange_cuts_bytes_3x(backend):
    shape = (16, 16, 16)
    f0 = _seeded_f(shape)
    ref = _single_grid_reference(f0, shape=shape, steps=2)
    with DistributedLBMSolver(
        shape, tau=TAU, n_tasks=8, backend=backend, n_workers=2,
    ) as d:
        assert d.decomp.dims == (2, 2, 2)
        d.scatter(f0)
        d.step(2)
        full_rim = 8 * 19 * 8 * (10**3 - 8**3 - 8)
        assert full_rim / d.bytes_per_step() >= 3.0
        assert d.last_step_messages > 0
        np.testing.assert_array_equal(d.gather(), ref)


def test_packed_exchange_cuts_bytes_3x():
    """The fig7-config acceptance bar: the packed halos ship ≥3x fewer
    bytes per step than the full 19-population rim (every halo node a
    D3Q19 stencil reaches: the padded 10³ shell of an 8³ block minus its
    8 corners), with identical physics."""
    _check_packed_exchange_cuts_bytes_3x("serial")


def test_packed_exchange_cuts_bytes_3x_processes():
    """The same bar and bitwise check on 8 ranks over a 2-worker pool."""
    _check_packed_exchange_cuts_bytes_3x("processes")


def test_packed_volume_closed_form():
    """The machine-independent communication pin: 16³ on 8 periodic ranks
    (2×2×2 blocks of 8³).  A rank ships the 5 populations that cross each
    of its 6 face slabs (8×8 nodes) and the 1 that crosses each of its 12
    edge slabs (8 nodes); nothing crosses a corner.  Periodic wrap folds
    the 18 slabs onto 6 distinct neighbors (3 across a face, 3 across an
    edge), one coalesced message each."""
    shape = (16, 16, 16)
    with DistributedLBMSolver(
        shape, tau=TAU, n_tasks=8, dtype="float64",
    ) as d:
        assert d.decomp.dims == (2, 2, 2)
        d.scatter(_seeded_f(shape))
        d.step(2)
        values_per_rank = 6 * 5 * 8 * 8 + 12 * 1 * 8
        assert d.bytes_per_step() == 8 * values_per_rank * 8 == 129_024
        assert d.last_step_messages == 8 * 6
        assert d.last_step_slabs == 8 * 18


def test_messages_coalesced_slabs_raw():
    """messages = distinct (dst, src) neighbor pairs after coalescing;
    slabs = raw q-direction copies (one per offset).  A 1x2x2 grid has 3
    distinct neighbors per rank (after periodic wrap collapses
    duplicates) and 16 non-self offsets."""
    with DistributedLBMSolver((16, 16, 16), tau=TAU, n_tasks=4) as d:
        assert d.decomp.dims == (1, 2, 2)
        d.scatter(_seeded_f((16, 16, 16)))
        d.step(1)
        assert d.last_step_slabs == 64          # 16 offsets x 4 ranks
        assert d.last_step_messages == 12       # 3 neighbors x 4 ranks
        assert d.halo.counters.slabs == 64
        assert d.halo.counters.messages == 12
        assert d.last_step_bytes == d.halo.counters.bytes_sent


# ----------------------------------------------------------------------
# Removed switches are inert


def test_removed_env_switches_are_inert(monkeypatch):
    """``REPRO_HALO_PACK`` / ``REPRO_DIST_OVERLAP`` no longer exist: set
    to the values that used to select the deleted paths, the solver
    builds without a warning, ships the packed byte count and matches
    the single grid bitwise."""
    f0 = _seeded_f(SHAPE)
    ref = _single_grid_reference(f0, steps=5)
    with DistributedLBMSolver(SHAPE, tau=TAU, n_tasks=4) as d:
        d.scatter(f0)
        d.step(5)
        packed_bytes = d.bytes_per_step()
    monkeypatch.setenv("REPRO_HALO_PACK", "0")
    monkeypatch.setenv("REPRO_DIST_OVERLAP", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with DistributedLBMSolver(SHAPE, tau=TAU, n_tasks=4) as d:
            d.scatter(f0)
            d.step(5)
            assert d.bytes_per_step() == packed_bytes
            np.testing.assert_array_equal(d.gather(), ref)
    assert not hasattr(d, "halo_pack") and not hasattr(d, "overlap")
