"""Inline-vs-split crossover of the lattice halves (docs/performance.md).

Steps walled-duct lattices of increasing size with ``LBMSolver``, one
half and two halves in alternating rounds in one process, and prints a
Markdown table of the median step times and their ratio.  For the sweep
every lattice of two or more panels may split; the product rule splits
from ``repro.lbm.halves.SPLIT_PANELS`` panels, read off this table.

    PYTHONPATH=src python benchmarks/lattice_halves.py [--steps 20] [--rounds 5]

Measure with nothing else running: the split needs both CPUs.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.lbm import halves
from repro.lbm.boundaries import BounceBackWalls
from repro.lbm.collision import PANEL
from repro.lbm.grid import Grid
from repro.lbm.solver import LBMSolver

SHAPES = [
    (16, 32, 32), (32, 32, 32), (32, 32, 48), (32, 32, 64), (40, 40, 48),
    (32, 48, 64), (40, 40, 64), (49, 49, 49), (48, 48, 64), (64, 64, 64),
]


def duct(shape) -> LBMSolver:
    solid = np.zeros(shape, dtype=bool)
    solid[:, 0, :] = solid[:, -1, :] = True
    solid[:, :, 0] = solid[:, :, -1] = True
    rng = np.random.default_rng(0)
    grid = Grid(shape, tau=0.9)
    grid.solid = solid
    grid.init_equilibrium(1.0 + 0.01 * rng.standard_normal(shape),
                          0.01 * rng.standard_normal((3,) + shape))
    return LBMSolver(grid, [BounceBackWalls(solid)])


def step_ms(solver: LBMSolver, steps: int) -> list[float]:
    times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        solver.step()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if halves.affinity_cpus() < 2:
        raise SystemExit("the split needs a process that may use two CPUs")
    halves.SPLIT_PANELS = 2
    print("| nodes | panels | inline ms | split ms | split / inline |")
    print("|---|---|---|---|---|")
    for shape in SHAPES:
        solver = duct(shape)
        runs = {1: [], 2: []}
        for r in range(args.rounds):
            for h in ((1, 2) if r % 2 == 0 else (2, 1)):
                halves._halves = h
                solver.step()  # warm the buffers of this mode
                runs[h] += step_ms(solver, args.steps)
        inline, split = (statistics.median(runs[h]) for h in (1, 2))
        n = int(np.prod(shape))
        print(f"| {n:,} | {n / PANEL:.1f} | {inline:.2f} | {split:.2f} "
              f"| {split / inline:.2f} |")


if __name__ == "__main__":
    main()
