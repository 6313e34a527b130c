"""Fig. 8: weak scaling on Summit (modeled, with measured comm inputs).

Paper: 17e6 fluid points per node (9.1e6 bulk + 8.0e6 window), ~2400
cells per node, 1-256 nodes; >=90% efficiency vs the 8-node baseline with
anomalously fast 1-4 node runs (communication volume saturates at the
2x2x2 decomposition).

Script mode times the fixed-block-per-rank premise on the real executor
backends and records the measured points into the ``weak`` section of
``BENCH_scaling.json`` (created/updated in place; the ``strong`` section
is written by ``bench_fig7_strong_scaling.py --measured``)::

    PYTHONPATH=src python benchmarks/bench_fig8_weak_scaling.py --measured
"""

import numpy as np

try:
    from conftest import banner
except ImportError:  # script mode: pytest's conftest is not on the path
    def banner(title):
        print(f"\n=== {title} ===")

from repro.parallel import BACKENDS, BlockDecomposition, DistributedLBMSolver
from repro.perfmodel import weak_scaling_curve


def test_fig8_efficiency_curve(benchmark):
    curve = benchmark(weak_scaling_curve)
    banner("Fig. 8: weak scaling efficiency (vs 8-node baseline)")
    for n, d in curve.items():
        print(f"  {n:4d} nodes: efficiency {d['efficiency_vs_baseline']:5.3f}")
    print("  paper: >=90% for all cases above 8 nodes; 1-4 fast")
    for n, d in curve.items():
        if n > 8:
            assert d["efficiency_vs_baseline"] >= 0.90
        if n < 8:
            assert d["efficiency_vs_baseline"] > 1.0


def test_fig8_neighbor_saturation_measured(benchmark):
    """The paper's explanation, measured: distinct-neighbor counts (and
    hence per-rank communication) only reach their full value at 8 ranks."""

    def measure():
        hist = {}
        for n in (1, 2, 4, 8, 27):
            d = BlockDecomposition((54, 54, 54), n)
            hist[n] = max(d.neighbor_count_histogram())
        return hist

    hist = benchmark.pedantic(measure, rounds=1, iterations=1)
    banner("Fig. 8 input: max distinct neighbors per rank")
    for n, m in hist.items():
        print(f"  {n:3d} ranks: {m} neighbors")
    assert hist[1] == 0
    assert hist[2] < hist[4] <= hist[8] <= hist[27]


def test_fig8_constant_per_rank_traffic_measured(benchmark):
    """Weak scaling premise: per-rank halo bytes stay constant when the
    per-rank block size is fixed."""

    def measure():
        out = {}
        for n_tasks, side in ((8, 16), (27, 24), (64, 32)):
            d = DistributedLBMSolver((side,) * 3, tau=0.9, n_tasks=n_tasks)
            from repro.lbm import Grid

            g = Grid((side,) * 3, tau=0.9)
            g.init_equilibrium(1.0, None)
            d.scatter(g.f)
            d.step(1)
            out[n_tasks] = d.halo.counters.bytes_sent / n_tasks
        return out

    per_rank = benchmark.pedantic(measure, rounds=1, iterations=1)
    banner("Fig. 8 input: per-rank halo bytes at fixed 8^3 block")
    vals = list(per_rank.values())
    for n, b in per_rank.items():
        print(f"  {n:3d} ranks: {b:.0f} bytes/rank/step")
    assert np.isclose(vals[1], vals[2], rtol=0.05)


# ----------------------------------------------------------------------
# Script mode: measured weak scaling of the executor backends.


def main(argv=None) -> int:
    import argparse
    import json
    import os
    import platform
    from pathlib import Path

    from repro.parallel import measured_weak_scaling

    parser = argparse.ArgumentParser(
        description="Measured weak scaling of the executor backends, "
                    "recorded into the weak section of BENCH_scaling.json")
    parser.add_argument("--measured", action="store_true",
                        help="time the executor backends (otherwise only "
                             "the modeled curve is recorded)")
    parser.add_argument("--block", type=int, nargs=3, default=[16, 16, 16],
                        metavar=("NX", "NY", "NZ"),
                        help="per-rank block held fixed as ranks grow")
    parser.add_argument("--tasks", type=int, nargs="+", default=[1, 2, 4],
                        help="rank counts to sweep")
    parser.add_argument("--backends", nargs="+",
                        default=["serial", "processes"],
                        choices=BACKENDS)
    parser.add_argument("--steps", type=int, default=5, help="timed steps")
    parser.add_argument("--warmup", type=int, default=1, help="untimed steps")
    parser.add_argument("--out", type=Path, default=Path("BENCH_scaling.json"),
                        help="BENCH json to create or update in place")
    args = parser.parse_args(argv)

    model = {
        str(n): {"efficiency_vs_baseline": d["efficiency_vs_baseline"]}
        for n, d in weak_scaling_curve().items()
    }
    weak = {"model": model}

    if args.measured:
        weak["measured"] = {}
        banner("Fig. 8 measured: fixed block per rank, growing lattice")
        for backend in args.backends:
            m = measured_weak_scaling(
                tuple(args.block), tuple(args.tasks),
                backend=backend,
                n_workers=max(args.tasks) if backend != "serial" else None,
                    steps=args.steps, warmup=args.warmup,
            )
            weak["measured"][backend] = m
            for n, r in m["points"].items():
                print(f"  {backend:>9s} {n:>3s} ranks "
                      f"({'x'.join(str(s) for s in r['shape'])}): "
                      f"{r['ms_per_step']:8.2f} ms/step, "
                      f"efficiency {r['efficiency_vs_1']:.2f}")
        if os.cpu_count() == 1:
            print("  note: single-CPU machine — pooled backends cannot hide "
                  "the work growth here; rerun on a multi-core box")

    if args.out.exists():
        try:
            with open(args.out, encoding="utf-8") as fh:
                record = json.load(fh)
        except (json.JSONDecodeError, OSError):
            record = {}
    else:
        record = {}
    record.setdefault("benchmark", "scaling")
    record.setdefault("machine", {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    })
    record.setdefault("result", {})["weak"] = weak
    record.setdefault("config", {})["weak"] = {
        "measured": bool(args.measured),
        "block": list(args.block),
        "tasks": list(args.tasks),
        "backends": list(args.backends),
        "steps": args.steps,
        "warmup": args.warmup,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
