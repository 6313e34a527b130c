"""Lattice passes split over two halves give the inline bits.

Each test forces the rule both ways in one process: ``SPLIT_PANELS`` = 2
splits any lattice of two or more panels, and ``_halves`` = 1 or 2 stands
for the process's CPU affinity.  A test of ``lattice_halves`` itself runs
under whatever affinity the suite was started with.
"""

import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest

from repro.lbm import D3Q19, BounceBackWalls, Grid, LBMSolver, halves
from repro.lbm.collision import (
    PANEL,
    CollisionScratch,
    collide_bgk,
    moments,
    patch_moments,
)
from repro.lbm.streaming import stream_pull

#: 3 panels with a ragged last one (9240 = 2 * 4096 + 1048), and exactly
#: 2 full panels.
SHAPES = [(20, 21, 22), (16, 16, 32)]
DTYPES = [np.float64, np.float32]


@pytest.fixture
def split(monkeypatch):
    """``split(on)``: passes of two or more panels split (or not) from now."""
    monkeypatch.setattr(halves, "SPLIT_PANELS", 2)

    def set_halves(on: bool) -> None:
        monkeypatch.setattr(halves, "_halves", 2 if on else 1)

    return set_halves


def _populations(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    f = D3Q19.w[:, None, None, None] * (
        1.0 + 0.05 * rng.standard_normal((D3Q19.Q,) + shape))
    return np.ascontiguousarray(f, dtype=dtype)


def _force(shape, dtype, seed=1):
    """A force that is zero on the first panel and on the last columns."""
    force = 1e-4 * np.random.default_rng(seed).standard_normal((3,) + shape)
    flat = force.reshape(3, -1)
    flat[:, :PANEL] = 0.0
    flat[:, -500:] = 0.0
    return force.astype(dtype)


def _both(split, run):
    """``run()`` inline and split; both results."""
    split(False)
    inline = run()
    split(True)
    return inline, run()


def _tau(kind, shape, dtype):
    if kind == "field":
        rng = np.random.default_rng(2)
        return (0.6 + 0.5 * rng.random(shape)).astype(dtype)
    return kind


def test_pass_splits_only_from_the_panel_threshold(monkeypatch):
    monkeypatch.setattr(halves, "_halves", 2)
    n = halves.SPLIT_PANELS * PANEL
    assert halves.split_column(n - 1, PANEL) is None
    mid = halves.split_column(n + 1000, PANEL)
    assert mid % PANEL == 0 and 0 < mid < n + 1000
    monkeypatch.setattr(halves, "_halves", 1)
    assert halves.split_column(10 * n, PANEL) is None


def test_lattice_halves_follow_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(halves, "_halves", None)
    assert halves.lattice_halves() == min(halves.affinity_cpus(), 2)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("tau", [0.8, 1.0, "field"])
@pytest.mark.parametrize("forced", [False, True])
def test_collide_split_is_bitwise_inline(split, dtype, shape, tau, forced):
    f = _populations(shape, dtype)
    force = _force(shape, dtype) if forced else None
    tau = _tau(tau, shape, dtype)
    inline, halved = _both(split, lambda: collide_bgk(f, tau, force))
    assert halved.dtype == dtype
    assert np.array_equal(inline, halved)


@pytest.mark.parametrize("dtype", DTYPES)
def test_collide_split_in_place_with_cached_moments(split, dtype):
    shape = SHAPES[0]
    force, tau = _force(shape, dtype), _tau("field", shape, dtype)

    def run():
        f = _populations(shape, dtype)
        out = collide_bgk(f, tau, force, out=f,
                          scratch=CollisionScratch(shape, dtype=dtype),
                          moments_in=moments(f))
        assert out is f
        return f

    inline, halved = _both(split, run)
    assert np.array_equal(inline, halved)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("tau", [0.8, 1.0, "field"])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("on", [False, True])
def test_collide_in_panel_moments_equal_cached(split, dtype, tau, forced, on):
    """The moments each panel forms for itself give the bits of cached
    ones handed over, split or inline: a ragged last panel, and a force
    that is zero on some panels."""
    shape = SHAPES[0]
    f = _populations(shape, dtype)
    force = _force(shape, dtype) if forced else None
    tau = _tau(tau, shape, dtype)
    split(on)
    own = collide_bgk(f, tau, force)
    handed = collide_bgk(f, tau, force, moments_in=moments(f))
    assert np.array_equal(own, handed)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("on", [False, True])
def test_collide_in_panel_moments_on_strided_slab_views(split, dtype, on):
    big = (24, 21, 22)
    slab = (slice(None), slice(2, 22))
    force = _force(big, dtype)[slab]
    tau = _tau("field", big, dtype)[2:22]
    f = _populations(big, dtype)
    rho, mom = moments(f)
    split(on)
    own, handed = f.copy(), f.copy()
    collide_bgk(own[slab], tau, force, out=own[slab])
    collide_bgk(handed[slab], tau, force, out=handed[slab],
                moments_in=(rho[2:22], mom[slab]))
    assert np.array_equal(own, handed)


@pytest.mark.parametrize("dtype", DTYPES)
def test_collide_split_on_strided_slab_views(split, dtype):
    """``f``, ``out``, force and τ as slabs of a larger lattice."""
    big = (24, 21, 22)
    slab = (slice(None), slice(2, 22))
    force = _force(big, dtype)[slab]
    tau = _tau("field", big, dtype)[2:22]

    def run():
        f = _populations(big, dtype)
        collide_bgk(f[slab], tau, force, out=f[slab])
        return f

    inline, halved = _both(split, run)
    assert np.array_equal(inline, halved)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_moments_split_is_bitwise_inline(split, dtype, shape):
    f = _populations(shape, dtype)
    inline, halved = _both(split, lambda: np.stack(moments(f)[1:]))
    assert np.array_equal(inline, halved)
    inline, halved = _both(split, lambda: moments(f)[0])
    assert np.array_equal(inline, halved)


@pytest.mark.parametrize("dtype", DTYPES)
def test_patch_moments_split_is_bitwise_inline(split, dtype):
    shape = SHAPES[0]
    f = _populations(shape, dtype)
    n = int(np.prod(shape))
    # more than two panels of nodes, in scattered order, ragged end
    nodes = np.random.default_rng(3).permutation(n)[:3 * PANEL - 77]

    columns = f.reshape(19, -1)[:, nodes]

    def run():
        out = np.zeros((4,) + shape, dtype=dtype)
        patch_moments(out, nodes, columns)
        return out

    inline, halved = _both(split, run)
    assert np.array_equal(inline, halved)
    rho, mom = moments(f)
    assert np.array_equal(halved[0].reshape(-1)[nodes], rho.reshape(-1)[nodes])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("in_place", [False, True])
def test_stream_split_is_bitwise_inline(split, dtype, in_place):
    shape = SHAPES[0]

    def run():
        f = _populations(shape, dtype)
        return stream_pull(f, out=f if in_place else None)

    inline, halved = _both(split, run)
    assert np.array_equal(inline, halved)
    f = _populations(shape, dtype)
    for i, c in enumerate(D3Q19.c):
        assert np.array_equal(halved[i], np.roll(f[i], c, axis=(0, 1, 2)))


def test_helper_half_raises_floating_point_errors_as_inline(split):
    """A subnormal τ makes ω = 1/τ overflow, only in the last panel,
    which the helper's half owns: both ways raise under
    ``over="raise"``, and neither does under ``all="ignore"``."""
    shape = SHAPES[0]
    f = _populations(shape, np.float64)
    tau = np.full(shape, 0.8)
    tau.reshape(-1)[-100:] = 1e-310
    for on in (False, True):
        split(on)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            collide_bgk(f, tau)
        with np.errstate(all="ignore"):
            collide_bgk(f, tau)


def test_solver_steps_stay_bitwise_under_frequent_thread_switches(split):
    """Moments, collide and stream of a walled, forced lattice stepped
    split, with the interpreter switching threads every microsecond,
    give the inline bits step after step."""
    shape = SHAPES[0]
    solid = np.zeros(shape, dtype=bool)
    solid[:, 0] = solid[:, -1] = True

    def run():
        grid = Grid(shape, tau=0.7, dtype=np.float64)
        grid.solid = solid
        grid.f[...] = _populations(shape, np.float64)
        grid.force[...] = _force(shape, np.float64)
        grid.mark_f_modified()
        LBMSolver(grid, [BounceBackWalls(solid)]).step(6)
        return grid.f

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        inline, halved = _both(split, run)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(inline, halved)


@pytest.mark.parametrize("raising", ["first", "second"])
def test_error_is_raised_after_both_halves_stop(raising):
    """An exception from either half reaches the caller only once the
    other half has finished."""
    finished = threading.Event()

    def slow():
        time.sleep(0.05)
        finished.set()

    def fail():
        raise ValueError(raising)

    first, second = (fail, slow) if raising == "first" else (slow, fail)
    with pytest.raises(ValueError, match=raising):
        halves.run_halves(first, second)
    assert finished.is_set()
    # the helper is idle again and the error is not raised twice
    halves.run_halves(lambda: None, lambda: None)


def _child_step(conn):
    f = _populations(SHAPES[0], np.float64)
    post = collide_bgk(f, 0.8)
    conn.send((halves.lattice_halves(), halves._helper is None,
               stream_pull(post).tobytes()))


def test_forked_child_never_splits(split):
    """A child forked after the helper started steps inline and finishes
    (it would wait forever on a helper thread that is not there)."""
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    split(True)
    f = _populations(SHAPES[0], np.float64)
    want = stream_pull(collide_bgk(f, 0.8))
    assert halves._helper is not None
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_step, args=(send,))
    child.start()
    try:
        assert recv.poll(60), "forked child did not finish its step"
        child_halves, no_helper, got = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert (child_halves, no_helper) == (1, True)
    assert got == want.tobytes()
    assert child.exitcode == 0
