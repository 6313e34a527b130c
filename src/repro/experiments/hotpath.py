"""Hot-path FSI micro-run: the campaign's cheap job.

A seeded cell-laden periodic lattice (16³, four RBCs by default) packaged
behind the uniform ``run_from_params`` seam so campaigns can schedule
throughput probes alongside physics runs.
Timing comes from the telemetry phase timers when a backend is
installed, wall clock otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..fsi.cell_manager import CellManager
from ..fsi.stepper import FSIStepper
from ..lbm.grid import Grid
from ..membrane.cell import make_rbc, random_rotation
from ..units import UnitSystem
from .runseam import checkpoint_interval, filter_params, iter_segments


@dataclass
class HotpathResult:
    """Timing and population facts from one hot-path micro-run."""

    steps: int
    wall_s: float
    ms_per_step: float
    steps_per_s: float
    n_cells: int
    n_vertices: int
    extras: dict = field(default_factory=dict)


def build_hotpath_stepper(
    shape=(16, 16, 16),
    n_cells: int = 4,
    subdivisions: int = 1,
    seed: int = 0,
) -> FSIStepper:
    """Seeded cell-laden periodic lattice driven by a body force."""
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    grid = Grid(tuple(shape), tau=1.0, origin=np.zeros(3), spacing=dx)
    manager = CellManager()
    rng = np.random.default_rng(seed)
    extent = dx * (np.asarray(shape) - 1)
    for _ in range(n_cells):
        center = extent * (0.25 + 0.5 * rng.random(3))
        manager.add(
            make_rbc(
                center,
                global_id=manager.allocate_id(),
                rotation=random_rotation(rng),
                subdivisions=subdivisions,
            )
        )
    return FSIStepper(
        grid,
        units,
        manager,
        mode="wrap",
        body_force=np.array([500.0, 0.0, 0.0]),
    )


def run_hotpath(
    shape=(16, 16, 16),
    n_cells: int = 4,
    subdivisions: int = 1,
    steps: int = 20,
    warmup: int = 2,
    seed: int = 0,
    checkpointer=None,
) -> HotpathResult:
    """Time ``steps`` FSI steps on the benchmark lattice.

    Checkpoints capture the lattice field and the cell population, so a
    preempted probe resumes its remaining step budget (the recorded
    timing then covers the resumed portion only).
    """
    stepper = build_hotpath_stepper(shape, n_cells, subdivisions, seed)
    grid = stepper.grid
    manager = stepper.cells
    step_done = 0
    if checkpointer is not None:
        data = checkpointer.load()
        if data is not None:
            step_done = data["step"]
            grid.f[:] = data["f_coarse"]
            grid.mark_f_modified()
            for gid in [c.global_id for c in manager.cells]:
                manager.remove(gid)
            for cell in sorted(
                data["manager"].cells, key=lambda c: c.global_id
            ):
                manager.add(cell.copy())
    if step_done == 0 and warmup > 0:
        stepper.step(warmup)
    every = checkpoint_interval(checkpointer)
    t0 = time.perf_counter()
    timed = 0
    for seg in iter_segments(step_done, steps, every):
        stepper.step(seg)
        step_done += seg
        timed += seg
        if checkpointer is not None and every > 0:
            checkpointer.save(
                step=step_done, f_coarse=grid.f, manager=manager
            )
    wall_s = time.perf_counter() - t0
    timed = max(timed, 1)
    n_vertices = sum(len(c.vertices) for c in manager.cells)
    return HotpathResult(
        steps=steps,
        wall_s=wall_s,
        ms_per_step=1e3 * wall_s / timed,
        steps_per_s=timed / wall_s if wall_s > 0 else float("inf"),
        n_cells=manager.n_cells,
        n_vertices=n_vertices,
        extras={"timed_steps": timed},
    )


def run_from_params(params: dict, *, checkpointer=None) -> dict:
    """Uniform campaign entry: run the hot-path probe from a params dict."""
    kwargs = filter_params(run_hotpath, params)
    if "shape" in kwargs:
        kwargs["shape"] = tuple(kwargs["shape"])
    r = run_hotpath(**kwargs, checkpointer=checkpointer)
    return {
        "experiment": "hotpath",
        "steps": int(r.steps),
        "ms_per_step": float(r.ms_per_step),
        "steps_per_s": float(r.steps_per_s),
        "n_cells": int(r.n_cells),
        "n_vertices": int(r.n_vertices),
    }
