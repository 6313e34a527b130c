"""Fig. 9: CTC tracking through a (synthetic) cerebral vasculature.

Runs the moving-window APR through a toy Murray's-law tree — the
substitute for the patient-derived cerebral geometry — and reproduces the
figure's quantitative content: the CTC trajectory traced by the window,
the maintained window hematocrit, and the node-hour projection for a full
vessel traversal at the paper's 1.5 mm/day rate (dashed yellow line:
~500 node-hours for the full vessel).
"""

import numpy as np

from conftest import FULL, banner
from repro.experiments.vessel_tree import HEMATOCRIT, run_tree_ctc
from repro.perfmodel.costmodel import fig9_projection, traversal_node_hours

STEPS = 300 if FULL else 80


def test_fig9_tracking_run(benchmark):
    r = benchmark.pedantic(run_tree_ctc, kwargs={"steps": STEPS},
                           rounds=1, iterations=1)
    banner("Fig. 9: cerebral CTC tracking (toy scale)")
    traj = r.trajectory
    ht = r.ht_history[-1, 1]
    print(f"  CTC advanced {r.advance * 1e6:.2f} um over {r.times[-1] * 1e6:.1f} us")
    print(f"  window Ht {ht:.3f} (target {HEMATOCRIT}), {r.n_cells_final} cells")
    print(f"  window moves: {r.window_moves}")
    assert len(traj) == STEPS
    assert np.isfinite(traj).all()
    assert r.advance > 0
    assert ht > 0.03
    # The CTC travels downstream (+z along the root vessel).
    assert traj[-1, 2] > traj[0, 2]


def test_fig9_node_hour_projection(benchmark):
    proj = benchmark(fig9_projection)
    banner("Fig. 9: node-hour projection")
    print(f"  {proj['vessel_length_mm']:.1f} mm at {proj['mm_per_day']} mm/day "
          f"-> {proj['node_hours']:.0f} node-hours (paper's dashed line: ~500)")
    assert np.isclose(proj["node_hours"], 500.0, rtol=1e-6)


def test_fig9_rate_arithmetic(benchmark):
    nh = benchmark(traversal_node_hours, 1.5e-3)
    print(f"\n  1.5 mm of CTC travel = {nh:.0f} node-hours "
          "(paper: 1.5 mm per day on one node = 24)")
    assert np.isclose(nh, 24.0)
