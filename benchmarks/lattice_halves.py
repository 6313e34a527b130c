"""Inline-vs-split crossover of the lattice halves (docs/performance.md).

Steps walled-duct lattices of increasing size with ``LBMSolver``, one
half and two halves in alternating rounds in one process, and prints a
Markdown table of the median step times and their ratio.  For the sweep
every lattice of one or more panels may split; the product rule splits
from ``repro.lbm.halves.SPLIT_PANELS`` panels, read off this table.

    PYTHONPATH=src python benchmarks/lattice_halves.py [--steps 20] [--rounds 5]

With ``--placement`` every step splits and the table compares the helper
placed on the CPU the caller is not on (the product rule in a two-CPU
process) against the helper left to the scheduler.

With ``--widths`` the table is per collide panel width
(``repro.lbm.collision.PANEL``, read off it) on the 49^3 and 64^3
lattices: the bytes of one half's float64 panel rows, and the inline and
split step times.

Measure with nothing else running: the split needs both CPUs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np

from repro.lbm import collision, halves
from repro.lbm.boundaries import BounceBackWalls
from repro.lbm.collision import PANEL
from repro.lbm.grid import Grid
from repro.lbm.solver import LBMSolver

SHAPES = [
    (16, 32, 32), (32, 32, 32), (32, 32, 48), (32, 32, 64), (40, 40, 48),
    (32, 48, 64), (40, 40, 64), (49, 49, 49), (48, 48, 64), (64, 64, 64),
]
#: Panel widths and lattices of ``--widths``.
WIDTHS = [n * collision.GEMM_COLS for n in (2, 4, 6, 8)]
WIDTH_SHAPES = [(49, 49, 49), (64, 64, 64)]


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


def placed(on: bool, cpus) -> None:
    """Place the helper per the product rule, or leave it unplaced."""
    helper = halves._helper
    if on:
        helper.cpus = cpus
    else:
        helper.cpus = helper.cpu = None
        os.sched_setaffinity(helper._tid, os.sched_getaffinity(0))


def alternating(solver: LBMSolver, modes, mode, args) -> list[float]:
    """Median step ms of ``solver`` in each of ``modes``, in alternating
    rounds."""
    runs = {m: [] for m in modes}
    for r in range(args.rounds):
        for m in (modes if r % 2 == 0 else modes[::-1]):
            mode(m)
            solver.step()  # warm the buffers of this mode
            runs[m] += step_ms(solver, args.steps)
    return [statistics.median(runs[m]) for m in modes]


def set_halves(h: int) -> None:
    halves._halves = h


def widths(args) -> None:
    """Inline and split step per panel width (``--widths``)."""
    print("| panel | half's rows (bytes) | nodes | inline ms | split ms "
          "| split / inline |")
    print("|---|---|---|---|---|---|")
    for width in WIDTHS:
        collision.PANEL = width
        collision._panel_buffers.cache_clear()
        rows = sum(b.nbytes for b in
                   collision._panel_buffers(np.dtype(np.float64), 0))
        for shape in WIDTH_SHAPES:
            inline, split = alternating(duct(shape), (1, 2), set_halves, args)
            print(f"| {width:,} | {rows:,} | {int(np.prod(shape)):,} "
                  f"| {inline:.2f} | {split:.2f} | {split / inline:.2f} |")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--placement", action="store_true",
                        help="placed against unplaced split steps")
    parser.add_argument("--widths", action="store_true",
                        help="inline and split steps per panel width")
    args = parser.parse_args(argv)
    if halves.affinity_cpus() < 2:
        raise SystemExit("the split needs a process that may use two CPUs")
    halves.SPLIT_PANELS = 1
    if args.widths:
        widths(args)
        return
    if args.placement:
        if halves.affinity_cpus() != 2:
            raise SystemExit("the helper is placed only on two CPUs")
        halves.run_halves(lambda: None, lambda: None)
        cpus = halves._helper.cpus
        modes, names = (False, True), ("unplaced", "placed")

        def mode(on):
            placed(on, cpus)
    else:
        modes, names, mode = (1, 2), ("inline", "split"), set_halves
    a, b = names
    print(f"| nodes | panels | {a} ms | {b} ms | {b} / {a} |")
    print("|---|---|---|---|---|")
    for shape in SHAPES:
        first, second = alternating(duct(shape), modes, mode, args)
        n = int(np.prod(shape))
        print(f"| {n:,} | {n / PANEL:.1f} | {first:.2f} | {second:.2f} "
              f"| {second / first:.2f} |")


if __name__ == "__main__":
    main()
