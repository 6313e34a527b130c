"""Measured wall-clock throughput of the parallel LBM backends.

The scaling benches (Figs. 7-8) historically reported *modeled* numbers
only; these helpers time the real executors so the benches and
the ``python -m repro scaling --measured`` CLI record measured
steps-per-second curves next to the model.  Results carry the machine's
CPU count — a single-core box cannot show multi-worker speedup, and the
artifact should make that legible rather than hide it.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from .distributed import DistributedLBMSolver


def _seeded_f(shape: tuple[int, int, int], tau: float, seed: int = 0) -> np.ndarray:
    """A perturbed-equilibrium global distribution array for timing runs."""
    from ..lbm import Grid

    rng = np.random.default_rng(seed)
    g = Grid(tuple(shape), tau=tau)
    g.init_equilibrium(
        1.0 + 0.02 * rng.standard_normal(shape),
        0.02 * rng.standard_normal((3,) + tuple(shape)),
    )
    return g.f


def measure_throughput(
    shape: tuple[int, int, int],
    n_tasks: int,
    backend: str = "serial",
    n_workers: int | None = None,
    steps: int = 10,
    warmup: int = 2,
    tau: float = 0.9,
    seed: int = 0,
) -> dict:
    """Time ``steps`` distributed LBM steps under one backend config.

    Returns a record with wall seconds, steps/s, per-step comm volume
    and the resolved backend/worker configuration.
    """
    f0 = _seeded_f(shape, tau, seed)
    with DistributedLBMSolver(
        shape, tau=tau, n_tasks=n_tasks,
        backend=backend, n_workers=n_workers,
    ) as d:
        d.scatter(f0)
        if warmup:
            d.step(warmup)
        d.reset_counters()
        t0 = perf_counter()
        d.step(steps)
        wall_s = perf_counter() - t0
        return {
            "backend": d.backend,
            "n_workers": d.n_workers,
            "dims": list(d.decomp.dims),
            "n_tasks": n_tasks,
            "shape": list(shape),
            "steps": steps,
            "wall_s": wall_s,
            "steps_per_s": steps / wall_s,
            "ms_per_step": 1e3 * wall_s / steps,
            "bytes_per_step": d.bytes_per_step(),
            "messages_per_step": d.last_step_messages,
            "slabs_per_step": d.last_step_slabs,
        }


def measured_scaling_curve(
    shape: tuple[int, int, int],
    n_tasks: int,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    backends: tuple[str, ...] = ("processes",),
    steps: int = 10,
    warmup: int = 2,
    tau: float = 0.9,
) -> dict:
    """Serial reference plus per-backend worker sweeps on one lattice.

    Speedups are wall-clock ratios against the serial backend on the
    *same* decomposition, i.e. they isolate the executor, not the
    domain split.
    """
    serial = measure_throughput(
        shape, n_tasks, backend="serial",
        steps=steps, warmup=warmup, tau=tau,
    )
    curves: dict[str, dict[str, dict]] = {}
    for backend in backends:
        curves[backend] = {}
        for w in worker_counts:
            if w > n_tasks:
                continue
            r = measure_throughput(
                shape, n_tasks, backend=backend, n_workers=w,
                steps=steps, warmup=warmup, tau=tau,
            )
            r["speedup_vs_serial"] = r["steps_per_s"] / serial["steps_per_s"]
            curves[backend][str(w)] = r
    best = max(
        (r["speedup_vs_serial"] for c in curves.values() for r in c.values()),
        default=0.0,
    )
    return {
        "shape": list(shape),
        "n_tasks": n_tasks,
        "steps": steps,
        "cpu_count": os.cpu_count(),
        "serial": serial,
        "curves": curves,
        "best_speedup_vs_serial": best,
    }


def measured_weak_scaling(
    block: tuple[int, int, int] = (16, 16, 16),
    task_counts: tuple[int, ...] = (1, 2, 4),
    backend: str = "serial",
    n_workers: int | None = None,
    steps: int = 5,
    warmup: int = 1,
    tau: float = 0.9,
) -> dict:
    """Fixed per-rank block, growing lattice: the Fig. 8 premise, timed.

    With the serial backend the efficiency column shows the pure
    work-growth baseline; with a pooled backend and one worker per rank
    it shows how much of the growth the executor hides.
    """
    points: dict[str, dict] = {}
    t1 = None
    for n in task_counts:
        # Grow the lattice by doubling axes round-robin so each rank
        # keeps (roughly) the same block.
        dims = [1, 1, 1]
        m, ax = n, 0
        while m > 1:
            for p in (2, 3, 5, 7, 11, 13):
                if m % p == 0:
                    dims[ax % 3] *= p
                    m //= p
                    ax += 1
                    break
            else:
                dims[ax % 3] *= m
                m = 1
        shape = tuple(block[i] * dims[i] for i in range(3))
        r = measure_throughput(
            shape, n, backend=backend, n_workers=n_workers,
            steps=steps, warmup=warmup, tau=tau,
        )
        if t1 is None:
            t1 = r["wall_s"]
        r["efficiency_vs_1"] = t1 / r["wall_s"]
        points[str(n)] = r
    return {
        "block": list(block),
        "backend": backend,
        "steps": steps,
        "cpu_count": os.cpu_count(),
        "points": points,
    }
