#!/usr/bin/env python3
"""Hot-path micro-benchmark: seeded cell-laden FSI stepping.

Times ``FSIStepper.step`` on a small periodic lattice carrying a seeded
RBC population and reports per-phase cost (``forces`` / ``spread`` /
``collide_stream`` / ``advect``, split via the telemetry phase timers)
plus overall throughput.  The result is written to ``BENCH_hotpaths.json``
— the repo's recorded perf trajectory for the coupling/assembly hot path.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_hotpath_step.py

Record a baseline before an optimization, then embed it for comparison::

    PYTHONPATH=src python benchmarks/bench_hotpath_step.py --out /tmp/pre.json
    # ... apply the optimization ...
    PYTHONPATH=src python benchmarks/bench_hotpath_step.py \
        --baseline /tmp/pre.json --out BENCH_hotpaths.json

This is a standalone script (not a pytest-benchmark module) so CI can run
it cheaply and upload the JSON artifact; see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.fsi import CellManager, FSIStepper
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation
from repro.parallel import BACKENDS
from repro.telemetry import Telemetry, active
from repro.units import UnitSystem

#: Top-level stepper phases recorded by the telemetry timers.
PHASES = ("forces", "spread", "collide_stream", "advect")


def build_stepper(shape, n_cells: int, subdivisions: int, seed: int,
                  backend: str | None = None,
                  workers: int | None = None,
                  dtype: str | None = None) -> FSIStepper:
    """Seeded cell-laden periodic lattice driven by a body force."""
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    grid = Grid(tuple(shape), tau=1.0, origin=np.zeros(3), spacing=dx,
                dtype=dtype)
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
        backend=backend,
        workers=workers,
    )


def run(args, backend: str | None = None, workers: int | None = None,
        dtype: str | None = None) -> dict:
    stepper = build_stepper(args.shape, args.cells, args.subdivisions,
                            args.seed, backend=backend, workers=workers,
                            dtype=dtype)
    try:
        stepper.step(args.warmup)

        tel = Telemetry(meta={"benchmark": "hotpath_step"})
        t0 = time.perf_counter()
        with active(tel):
            stepper.step(args.steps)
        wall_s = time.perf_counter() - t0

        phases = tel.summary()["phases"]
        phase_ms = {
            name: 1e3 * phases[name]["total_s"] / args.steps
            for name in PHASES
            if name in phases
        }
        n_vertices = sum(len(c.vertices) for c in stepper.cells.cells)
        result = {
            "total_ms_per_step": 1e3 * wall_s / args.steps,
            "steps_per_s": args.steps / wall_s,
            "phase_ms_per_step": phase_ms,
            "wall_s": wall_s,
            "steps": args.steps,
            "n_cells": stepper.cells.n_cells,
            "n_vertices": n_vertices,
            "backend": stepper.backend,
            "workers": stepper.n_workers,
            "dtype": stepper.grid.dtype.name,
        }
    finally:
        stepper.close()
    return result


def run_sweep(args, serial: dict) -> dict:
    """Serial-vs-parallel phase curves over the backend/worker matrix.

    Mirrors the measured-curve convention of ``bench_fig7_strong_scaling``:
    one serial anchor plus per-backend worker sweeps, each entry carrying
    the full per-phase breakdown, keyed for ``BENCH_hotpaths.json``.
    """
    curves: dict = {}
    for backend in args.sweep_backends:
        if backend == "serial":
            continue
        curves[backend] = {}
        for w in args.sweep_workers:
            r = run(args, backend=backend, workers=w)
            r["speedup_vs_serial"] = (
                serial["total_ms_per_step"] / r["total_ms_per_step"]
            )
            curves[backend][str(w)] = r
    return {
        "serial": serial,
        "curves": curves,
        "cpu_count": os.cpu_count(),
    }


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs=3, default=[24, 24, 24],
                        metavar=("NX", "NY", "NZ"), help="lattice shape")
    parser.add_argument("--cells", type=int, default=6, help="number of seeded RBCs")
    parser.add_argument("--subdivisions", type=int, default=2,
                        help="RBC mesh refinement level")
    parser.add_argument("--steps", type=int, default=40, help="timed steps")
    parser.add_argument("--warmup", type=int, default=5, help="untimed warmup steps")
    parser.add_argument("--seed", type=int, default=7, help="placement RNG seed")
    parser.add_argument("--backend", default=None,
                        choices=BACKENDS,
                        help="FSI executor backend for the main run "
                             "(default: REPRO_PARALLEL_BACKEND or serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="FSI worker count for the main run")
    parser.add_argument("--dtype", default=None,
                        choices=("float32", "float64"),
                        help="Eulerian compute dtype for the main run "
                             "(default: REPRO_DTYPE or float64)")
    parser.add_argument("--sweep-dtypes", nargs="+", default=None,
                        choices=("float32", "float64"),
                        help="also record a float32-vs-float64 phase curve "
                             "(same backend as the main run)")
    parser.add_argument("--sweep-backends", nargs="+", default=None,
                        choices=BACKENDS,
                        help="also record serial-vs-parallel phase curves "
                             "over these backends")
    parser.add_argument("--sweep-workers", type=int, nargs="+",
                        default=[2, 4],
                        help="worker counts for the backend sweep")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="earlier BENCH json to embed for comparison")
    parser.add_argument("--out", type=Path, default=Path("BENCH_hotpaths.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    result = run(args, backend=args.backend, workers=args.workers,
                 dtype=args.dtype)
    record = {
        "benchmark": "hotpath_step",
        "config": {
            "shape": list(args.shape),
            "cells": args.cells,
            "subdivisions": args.subdivisions,
            "steps": args.steps,
            "warmup": args.warmup,
            "seed": args.seed,
            "backend": result["backend"],
            "workers": result["workers"],
            "dtype": result["dtype"],
        },
        "machine": machine_info(),
        "result": result,
    }
    if args.sweep_backends:
        serial = (result
                  if result["backend"] == "serial"
                  else run(args, backend="serial", dtype=args.dtype))
        record["parallel"] = run_sweep(args, serial)
    if args.sweep_dtypes:
        curve = {}
        for dt in args.sweep_dtypes:
            curve[dt] = (result if dt == result["dtype"]
                         else run(args, backend=args.backend,
                                  workers=args.workers, dtype=dt))
        record["dtype_curve"] = curve
        if {"float32", "float64"} <= curve.keys():
            record["dtype_speedup_float32"] = (
                curve["float64"]["total_ms_per_step"]
                / curve["float32"]["total_ms_per_step"]
            )
    if args.out.exists():
        # Preserve previously recorded sweeps on plain re-runs (same
        # convention as the weak-scaling section of BENCH_scaling.json).
        try:
            with open(args.out, encoding="utf-8") as fh:
                prior = json.load(fh)
            for key in ("parallel", "dtype_curve", "dtype_speedup_float32"):
                if key in prior and key not in record:
                    record[key] = prior[key]
        except (json.JSONDecodeError, OSError):
            pass
    if args.baseline is not None and args.baseline.exists():
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        record["baseline"] = {
            "config": base.get("config"),
            "result": base.get("result"),
        }
        speedup = base["result"]["total_ms_per_step"] / result["total_ms_per_step"]
        record["speedup_vs_baseline"] = speedup

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"hotpath_step [{result['backend']} x{result['workers']}, "
          f"dtype={result['dtype']}]: "
          f"{result['total_ms_per_step']:.2f} ms/step "
          f"({result['steps_per_s']:.1f} steps/s), "
          f"{result['n_cells']} cells / {result['n_vertices']} vertices")
    for name in PHASES:
        if name in result["phase_ms_per_step"]:
            print(f"  {name:<16} {result['phase_ms_per_step'][name]:8.3f} ms/step")
    if "speedup_vs_baseline" in record:
        print(f"  speedup vs baseline: {record['speedup_vs_baseline']:.2f}x")
    if args.sweep_dtypes and "dtype_curve" in record:
        print("dtype sweep:")
        for dt, r in record["dtype_curve"].items():
            print(f"  {dt:>9s}: {r['total_ms_per_step']:8.2f} ms/step")
        if "dtype_speedup_float32" in record:
            print(f"  float32 speedup vs float64: "
                  f"{record['dtype_speedup_float32']:.2f}x")
    if args.sweep_backends:
        par = record["parallel"]
        print(f"backend sweep (cpu_count={par['cpu_count']}):")
        print(f"  {'serial':>9s} x1        : "
              f"{par['serial']['total_ms_per_step']:8.2f} ms/step")
        for backend, curve in par["curves"].items():
            for w, r in curve.items():
                print(f"  {backend:>9s} x{w:<8s} : "
                      f"{r['total_ms_per_step']:8.2f} ms/step "
                      f"(speedup {r['speedup_vs_serial']:.2f}x)")
        if par["cpu_count"] == 1:
            print("  note: single-CPU machine — worker pools cannot beat "
                  "serial here; rerun on a multi-core box for real curves")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
