"""Inline-vs-split crossover of the IBM marker passes (docs/performance.md §1).

Times the three passes of one FSI step's coupling — the stencil weights
(``_marker_weights``), the interpolation and the spread onto a body
force — on RBC-packed marker clouds of increasing size, one half and two
halves in alternating rounds in one process, and prints a Markdown table
of the median times and their ratios.  For the sweep every population
may split; the product rule splits from
``repro.ibm.coupling.SPLIT_MARKERS`` markers, read off this table.

    PYTHONPATH=src python benchmarks/marker_halves.py [--reps 10] [--rounds 5]

The cells are 162-vertex RBCs of 8 lattice spacings (``channel_efsi``'s
mesh and resolution), 9 spacings apart on a cubic lattice of centres,
in a box of about ten nodes per marker.  Measure with nothing else
running: the split needs both CPUs.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.ibm import coupling
from repro.ibm.kernels import KERNELS
from repro.lbm import halves
from repro.membrane import make_rbc

CELLS = [13, 25, 43, 50, 76, 101, 152, 202, 273, 404]
PASSES = ("weights", "interp", "spread")


def cloud(n_cells: int, seed: int = 0) -> tuple[np.ndarray, tuple]:
    """Marker positions of ``n_cells`` rotated RBCs and the lattice shape."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n_cells ** (1 / 3)))
    pos = []
    for i in range(n_cells):
        centre = 8.0 + 9.0 * np.array(np.unravel_index(i, (side,) * 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cell = make_rbc(centre, global_id=i, rotation=q, diameter=8.0,
                        subdivisions=2)
        pos.append(cell.vertices)
    shape = (9 * side + 8,) * 3
    return np.concatenate(pos), shape


def timings(pos, shape, reps: int) -> dict[str, list[float]]:
    """Milliseconds per call of each pass, ``reps`` calls each."""
    kernel = KERNELS["cosine4"]
    s = kernel.support
    w = np.empty((len(pos), s, s, s))
    flat = np.empty((len(pos), s ** 3), coupling.INDEX_DTYPE)
    builder = coupling.StencilBuilder(shape, kernel, "clip")
    stencil = builder.build(pos, w, flat)
    rng = np.random.default_rng(1)
    u = 1e-3 * rng.standard_normal((3,) + shape)
    forces = np.asfortranarray(rng.standard_normal((len(pos), 3)))
    field = np.empty((3,) + shape)
    body = np.array([1e-5, 0.0, 0.0])
    calls = {
        "weights": lambda: coupling._marker_weights(pos, kernel, w),
        "interp": lambda: coupling.interpolate_with_stencil(u, stencil),
        "spread": lambda: coupling.spread_with_stencil(
            forces, stencil, field, body),
    }
    out = {}
    for name, call in calls.items():
        call()  # warm this mode's buffers
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = times
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if halves.affinity_cpus() < 2:
        raise SystemExit("the split needs a process that may use two CPUs")
    coupling.SPLIT_MARKERS = 0
    head = " | ".join(f"{p} inline / split ms (ratio)" for p in PASSES)
    print(f"| markers | nodes | {head} |")
    print("|---|---|" + "---|" * len(PASSES))
    for n_cells in CELLS:
        pos, shape = cloud(n_cells)
        runs = {h: {p: [] for p in PASSES} for h in (1, 2)}
        for r in range(args.rounds):
            for h in ((1, 2) if r % 2 == 0 else (2, 1)):
                halves._halves = h
                for p, times in timings(pos, shape, args.reps).items():
                    runs[h][p] += times
        cols = []
        for p in PASSES:
            inline, split = (statistics.median(runs[h][p]) for h in (1, 2))
            cols.append(f"{inline:.2f} / {split:.2f} ({split / inline:.2f})")
        print(f"| {len(pos):,} | {int(np.prod(shape)):,} | "
              + " | ".join(cols) + " |")


if __name__ == "__main__":
    main()
