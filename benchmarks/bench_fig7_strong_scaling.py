"""Fig. 7: strong scaling on Summit (modeled) + measured executor scaling.

The scaling model's absolute rates are calibration constants; its
communication structure (surface-to-volume halo growth) is validated here
against the in-process runtime, which exchanges real bytes.  The
runtime also *executes* the decomposition: run this file as a script
with ``--measured`` to time the ``serial`` and ``processes`` backends on
one lattice and record the wall-clock speedup curve alongside the model
into ``BENCH_scaling.json``::

    PYTHONPATH=src python benchmarks/bench_fig7_strong_scaling.py --measured

Paper: 10.5 mm cube, 0.65 mm window, n=10, ~1M RBCs; ~6x speedup from 32
to 512 nodes, breakdown attributed to halo transfer growth.
"""

import numpy as np

try:
    from conftest import banner
except ImportError:  # script mode: pytest's conftest is not on the path
    def banner(title):
        print(f"\n=== {title} ===")

from repro.parallel import BACKENDS, DistributedLBMSolver
from repro.perfmodel import strong_scaling_curve


def test_fig7_speedup_curve(benchmark):
    curve = benchmark(strong_scaling_curve)
    banner("Fig. 7: strong scaling speedup (vs 32 nodes)")
    for n, d in curve.items():
        comm_frac = d["comm"] / d["total"]
        print(f"  {n:4d} nodes: speedup {d['speedup']:5.2f}, "
              f"comm fraction {comm_frac:.2f}")
    print("  paper: ~6x at 512 nodes")
    assert 5.0 < curve[512]["speedup"] < 7.0
    # Monotone but saturating: each doubling gains less.
    gains = []
    nodes = sorted(curve)
    for a, b in zip(nodes, nodes[1:]):
        gains.append(curve[b]["speedup"] / curve[a]["speedup"])
    assert all(g2 < g1 for g1, g2 in zip(gains, gains[1:]))


def test_fig7_halo_surface_law_measured(benchmark):
    """Measured halo bytes per rank shrink as (points/rank)^(2/3) —
    the mechanism behind the strong-scaling breakdown."""

    def measure():
        out = {}
        for n_tasks in (2, 4, 8):
            d = DistributedLBMSolver((24, 24, 24), tau=0.9, n_tasks=n_tasks)
            rng = np.random.default_rng(0)
            from repro.lbm import Grid

            g = Grid((24, 24, 24), tau=0.9)
            g.init_equilibrium(1.0, 0.01 * rng.standard_normal((3, 24, 24, 24)))
            d.scatter(g.f)
            d.step(2)
            out[n_tasks] = d.halo.counters.bytes_sent / 2 / n_tasks
        return out

    per_rank = benchmark.pedantic(measure, rounds=1, iterations=1)
    banner("Fig. 7 input: measured halo bytes per rank per step")
    for n, b in per_rank.items():
        print(f"  {n} ranks: {b:.0f} bytes/rank/step")
    # Total communication grows with rank count even at fixed problem size.
    assert per_rank[8] * 8 > per_rank[2] * 2


# ----------------------------------------------------------------------
# Script mode: measured wall-clock scaling of the executor backends.


def _machine_info() -> dict:
    import os
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    import argparse
    import json
    from pathlib import Path

    from repro.parallel import measured_scaling_curve

    parser = argparse.ArgumentParser(
        description="Measured executor scaling + Fig. 7 model, recorded "
                    "into BENCH_scaling.json")
    parser.add_argument("--measured", action="store_true",
                        help="time the executor backends (otherwise only "
                             "the modeled curve is recorded)")
    parser.add_argument("--shape", type=int, nargs=3, default=[64, 64, 64],
                        metavar=("NX", "NY", "NZ"), help="measured lattice")
    parser.add_argument("--tasks", type=int, default=8,
                        help="rank count for the measured decomposition")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to sweep per backend")
    parser.add_argument("--backends", nargs="+", default=["processes"],
                        choices=BACKENDS)
    parser.add_argument("--steps", type=int, default=10, help="timed steps")
    parser.add_argument("--warmup", type=int, default=2, help="untimed steps")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="earlier BENCH json to embed for comparison")
    parser.add_argument("--out", type=Path, default=Path("BENCH_scaling.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    model = {
        str(n): {"speedup": d["speedup"], "comm_fraction": d["comm"] / d["total"]}
        for n, d in strong_scaling_curve().items()
    }
    result = {"strong": {"model": model}}

    if args.measured:
        measured = measured_scaling_curve(
            tuple(args.shape), args.tasks,
            worker_counts=tuple(args.workers),
            backends=tuple(b for b in args.backends if b != "serial"),
            steps=args.steps, warmup=args.warmup,
        )
        result["strong"]["measured"] = measured
        banner("Fig. 7 measured: executor wall-clock scaling")
        s = measured["serial"]
        print(f"  lattice {args.shape}, {args.tasks} ranks, "
              f"cpu_count={measured['cpu_count']}")
        print(f"  serial              : {s['steps_per_s']:8.2f} steps/s")
        for backend, curve in measured["curves"].items():
            for w, r in curve.items():
                print(f"  {backend:>9s} x{w:<8s} : {r['steps_per_s']:8.2f} "
                      f"steps/s (speedup {r['speedup_vs_serial']:.2f}x)")
        if measured["cpu_count"] == 1:
            print("  note: single-CPU machine — worker pools cannot beat "
                  "serial here; rerun on a multi-core box for real curves")

    record = {
        "benchmark": "scaling",
        "config": {
            "measured": bool(args.measured),
            "shape": list(args.shape),
            "tasks": args.tasks,
            "workers": list(args.workers),
            "backends": list(args.backends),
            "steps": args.steps,
            "warmup": args.warmup,
        },
        "machine": _machine_info(),
        "result": result,
    }
    # Preserve a weak-scaling section recorded by bench_fig8_weak_scaling.
    if args.out.exists():
        try:
            with open(args.out, encoding="utf-8") as fh:
                prior = json.load(fh)
            if "weak" in prior.get("result", {}):
                record["result"]["weak"] = prior["result"]["weak"]
        except (json.JSONDecodeError, OSError):
            pass
    if args.baseline is not None and args.baseline.exists():
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        record["baseline"] = {
            "config": base.get("config"),
            "result": base.get("result"),
        }
        try:
            prev = base["result"]["strong"]["measured"]["serial"]["steps_per_s"]
            now = record["result"]["strong"]["measured"]["serial"]["steps_per_s"]
            record["speedup_vs_baseline"] = now / prev
        except (KeyError, TypeError, ZeroDivisionError):
            pass

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
