"""Distributed LBM: bit-exact equivalence with the single-grid solver."""

import numpy as np
import pytest

from repro.lbm import Grid, LBMSolver
from repro.parallel import DistributedLBMSolver


def _reference(shape, tau, seed):
    rng = np.random.default_rng(seed)
    g = Grid(shape, tau=tau)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    vel = 0.03 * rng.standard_normal((3,) + shape)
    g.init_equilibrium(rho, vel)
    return g


@pytest.mark.parametrize("n_tasks", [1, 2, 4, 8],
                         ids=lambda n: f"exchange-{n}")
def test_matches_single_grid(n_tasks):
    shape = (12, 10, 8)
    g = _reference(shape, tau=0.8, seed=0)
    with DistributedLBMSolver(shape, tau=0.8, n_tasks=n_tasks) as d:
        d.scatter(g.f.copy())
        ref = LBMSolver(g, [])
        ref.step(4)
        d.step(4)
        assert np.array_equal(d.gather(), g.f)


def test_task_count_does_not_change_result():
    shape = (12, 12, 12)
    g = _reference(shape, tau=0.9, seed=1)
    results = []
    for n_tasks in (2, 6, 8):
        with DistributedLBMSolver(shape, tau=0.9, n_tasks=n_tasks) as d:
            d.scatter(g.f.copy())
            d.step(3)
            results.append(d.gather())
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[1], results[2])


def test_scatter_gather_roundtrip():
    shape = (9, 7, 5)
    g = _reference(shape, tau=0.8, seed=2)
    with DistributedLBMSolver(shape, tau=0.8, n_tasks=4) as d:
        d.scatter(g.f)
        assert np.array_equal(d.gather(), g.f)


def test_scatter_validates_shape():
    with DistributedLBMSolver((8, 8, 8), tau=0.8, n_tasks=2) as d:
        with pytest.raises(ValueError):
            d.scatter(np.zeros((19, 4, 4, 4)))


def test_communication_accounted():
    shape = (16, 16, 16)
    with DistributedLBMSolver(shape, tau=0.8, n_tasks=8) as d:
        d.scatter(_reference(shape, 0.8, 3).f)
        d.step(2)
        assert d.halo.counters.bytes_sent > 0
        assert d.halo.counters.messages > 0
        assert d.bytes_per_step() == d.halo.counters.bytes_sent / 2


def test_single_task_sends_nothing():
    shape = (8, 8, 8)
    with DistributedLBMSolver(shape, tau=0.8, n_tasks=1) as d:
        d.scatter(_reference(shape, 0.8, 4).f)
        d.step(2)
        assert d.halo.counters.bytes_sent == 0


def test_halo_bytes_scale_with_surface():
    """Same per-rank volume, more ranks -> per-rank bytes constant.

    This measured surface law is what the Fig. 8 weak-scaling model uses.
    """
    per_rank = []
    for n_tasks, side in ((1, 8), (8, 16)):
        shape = (side, side, side)
        with DistributedLBMSolver(shape, tau=0.8, n_tasks=n_tasks) as d:
            d.scatter(_reference(shape, 0.8, 5).f)
            d.step(1)
            per_rank.append(d.halo.counters.bytes_sent / n_tasks)
    assert per_rank[0] == 0.0  # one rank: no traffic yet
    assert per_rank[1] > 0


def test_counter_reset_across_reuse():
    """bytes_per_step averages only over steps since the last reset."""
    shape = (12, 12, 12)
    with DistributedLBMSolver(shape, tau=0.9, n_tasks=8) as d:
        d.scatter(_reference(shape, 0.9, 6).f)
        d.step(4)
        per_step = d.bytes_per_step()
        d.reset_counters()
        d.step(1)
        assert d.bytes_per_step() == pytest.approx(per_step)
        assert d.last_step_bytes == pytest.approx(per_step)
        assert d.last_step_messages == d.halo.counters.messages
