"""Executor backends: bit-exact equivalence, pool lifecycle."""

import numpy as np
import pytest

from repro.lbm import Grid, LBMSolver
from repro.parallel import (
    BACKENDS,
    DistributedLBMSolver,
    resolve_backend,
)
from repro.telemetry import Telemetry, active


def _reference(shape, tau, seed, steps):
    rng = np.random.default_rng(seed)
    g = Grid(shape, tau=tau)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    vel = 0.03 * rng.standard_normal((3,) + shape)
    g.init_equilibrium(rho, vel)
    f0 = g.f.copy()
    LBMSolver(g, []).step(steps)
    return f0, g.f


# ----------------------------------------------------------------------
# Backend matrix: every backend must reproduce the single-grid solver
# bit-for-bit on a periodic lattice.


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"exchange-{b}" for b in BACKENDS])
def test_backend_matrix_matches_single_grid(backend):
    shape = (12, 10, 8)
    f0, f_ref = _reference(shape, tau=0.8, seed=0, steps=4)
    with DistributedLBMSolver(
        shape, tau=0.8, n_tasks=4, backend=backend, n_workers=2,
    ) as d:
        d.scatter(f0)
        d.step(4)
        assert np.array_equal(d.gather(), f_ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_workers_fewer_than_ranks(backend):
    """A 2-worker pool over 8 ranks chunks correctly and stays exact."""
    shape = (16, 8, 8)
    f0, f_ref = _reference(shape, tau=0.9, seed=1, steps=3)
    with DistributedLBMSolver(
        shape, tau=0.9, n_tasks=8, backend=backend, n_workers=2,
    ) as d:
        d.scatter(f0)
        d.step(3)
        assert np.array_equal(d.gather(), f_ref)


def test_invalid_backend_rejected(monkeypatch):
    for backend in ("mpi", "threads"):  # threads: a name that used to exist
        with pytest.raises(ValueError, match="unknown backend"):
            DistributedLBMSolver((8, 8, 8), tau=0.8, n_tasks=2,
                                 backend=backend)
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "threads")
    with pytest.raises(ValueError, match="unknown backend"):
        DistributedLBMSolver((8, 8, 8), tau=0.8, n_tasks=2)


# ----------------------------------------------------------------------
# Worker-pool lifecycle: teardown and re-entry without leaks.


def test_process_pool_teardown_and_reentry():
    shape = (8, 8, 8)
    f0 = np.full((19,) + shape, 0.05)
    for _ in range(2):  # re-entry: a fresh pool after a full teardown
        d = DistributedLBMSolver(
            shape, tau=0.8, n_tasks=4, backend="processes", n_workers=2,
        )
        names = list(d.blocks.segment_names)
        procs = list(d.executor._procs)
        d.scatter(f0)
        d.step(2)
        d.close()
        for p in procs:
            assert not p.is_alive()
        for name in names:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def test_close_is_idempotent():
    d = DistributedLBMSolver(
        (8, 8, 8), tau=0.8, n_tasks=2, backend="processes", n_workers=2,
    )
    d.step(1)
    d.close()
    d.close()


def test_many_short_runs_leak_nothing(recwarn):
    """Campaign-style usage: many short-lived solvers in one process.

    Every pool must tear down deterministically — no surviving worker
    processes, no shared-memory segments, and no ResourceWarning /
    shared-memory leak warnings accumulated across the loop.
    """
    import gc
    import warnings
    from multiprocessing import shared_memory

    shape = (8, 8, 8)
    f0 = np.full((19,) + shape, 0.05)
    all_names: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for i in range(6):
            backend = "processes" if i % 2 == 0 else "serial"
            with DistributedLBMSolver(
                shape, tau=0.8, n_tasks=2, backend=backend, n_workers=2,
            ) as d:
                all_names.extend(d.blocks.segment_names or ())
                d.scatter(f0)
                d.step(1)
        gc.collect()
    for name in all_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    leak_warnings = [
        w for w in recwarn.list if "leak" in str(w.message).lower()
    ]
    assert leak_warnings == []


def test_finalizer_cleans_up_without_close():
    """Dropping an unclosed solver must not leak segments (GC safety net)."""
    import gc

    d = DistributedLBMSolver(
        (8, 8, 8), tau=0.8, n_tasks=2, backend="processes", n_workers=2,
    )
    names = list(d.blocks.segment_names)
    d.step(1)
    del d
    gc.collect()
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Backend resolution and environment override.


def test_resolve_backend_defaults():
    backend, workers = resolve_backend(None, None, n_tasks=4)
    assert backend in BACKENDS
    assert 1 <= workers <= 4


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    backend, workers = resolve_backend(None, None, n_tasks=8)
    assert backend == "processes"
    assert workers == 3
    # Explicit arguments win over the environment.
    backend, workers = resolve_backend("serial", 5, n_tasks=8)
    assert backend == "serial"
    assert workers == 1  # serial always runs single-worker
    # A bad variable is named in the error; explicit counts clamp and
    # never read it.
    for bad in ("two", "0", "-3", "1.5"):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS.*>= 1"):
            resolve_backend(None, None, n_tasks=8)
        assert resolve_backend(None, 0, n_tasks=8) == ("processes", 1)
        assert resolve_backend("processes", -3) == ("processes", 1)


def test_env_backend_reaches_solver(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
    with DistributedLBMSolver((8, 8, 8), tau=0.8, n_tasks=4) as d:
        assert d.backend == "processes"
        assert d.n_workers == 2


def test_worker_count_capped_at_ranks():
    with DistributedLBMSolver(
        (8, 8, 8), tau=0.8, n_tasks=2, backend="processes", n_workers=16,
    ) as d:
        assert d.n_workers == 2


# ----------------------------------------------------------------------
# Telemetry wiring: per-phase timers, per-rank seconds, comm counters.


def test_step_records_phases_and_comm_counters():
    shape = (8, 8, 8)
    tel = Telemetry()
    with DistributedLBMSolver(shape, tau=0.8, n_tasks=4) as d:
        d.scatter(np.full((19,) + shape, 0.05))
        with active(tel):
            d.step(2)
    phases = tel.summary()["phases"]
    for name in ("dist/collide", "dist/halo", "dist/stream"):
        assert phases[name]["count"] == 2
    assert tel.counter("comm.bytes_sent").value == d.halo.counters.bytes_sent
    assert tel.counter("comm.messages").value == d.halo.counters.messages
    # Per-rank wall-clock accumulators cover every rank and phase.
    for phase in ("collide", "halo", "stream"):
        assert set(d.rank_phase_seconds[phase]) == set(range(4))
        assert all(t >= 0.0 for t in d.rank_phase_seconds[phase].values())


def test_reset_counters_gives_per_phase_deltas():
    """A solver reused across bench phases reports per-step averages for
    the current phase only."""
    shape = (12, 12, 12)
    with DistributedLBMSolver(shape, tau=0.9, n_tasks=8) as d:
        d.scatter(np.full((19,) + shape, 0.05))
        d.step(3)
        first = d.bytes_per_step()
        assert first > 0
        d.reset_counters()
        assert d.bytes_per_step() == 0.0
        d.step(2)
        assert d.bytes_per_step() == pytest.approx(first)
        assert d.halo.counters.bytes_sent == pytest.approx(2 * first)


def test_measure_throughput_smoke():
    from repro.parallel import measure_throughput

    r = measure_throughput((8, 8, 8), n_tasks=2, backend="serial", steps=2,
                           warmup=1)
    assert r["steps_per_s"] > 0
    assert r["bytes_per_step"] > 0
    assert r["backend"] == "serial"
