"""Fig. 7: strong scaling on Summit (modeled, with counted comm inputs).

The scaling model's absolute rates are calibration constants; its
communication structure (surface-to-volume halo growth) is validated here
against the in-process runtime, which exchanges and counts real halo
bytes.

Paper: 10.5 mm cube, 0.65 mm window, n=10, ~1M RBCs; ~6x speedup from 32
to 512 nodes, breakdown attributed to halo transfer growth.
"""

import numpy as np

from conftest import banner
from repro.parallel import DistributedLBMSolver
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

