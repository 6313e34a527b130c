"""Node-hour cost model (Section 3.3, Fig. 9)."""

import numpy as np
import pytest

from repro.perfmodel import ScalingModel, node_hour_ratio, traversal_node_hours
from repro.perfmodel.costmodel import (
    PAPER_APR_RUN,
    PAPER_EFSI_RUN,
    RunCost,
    fig9_projection,
)


def test_paper_node_hours():
    assert PAPER_APR_RUN.node_hours == 6 * 36
    assert PAPER_EFSI_RUN.node_hours == 22 * 120


def test_paper_ratio_over_ten():
    """Section 3.3: 'the APR method saved over 10x compute time'."""
    r = node_hour_ratio()
    assert r > 10.0
    assert np.isclose(r, 2640.0 / 216.0)


def test_custom_runs():
    assert node_hour_ratio(RunCost(1, 10.0), RunCost(2, 10.0)) == 2.0


def test_model_reproduces_apr_advantage():
    """First-principles model: eFSI (fine everywhere) costs >> APR."""
    model = ScalingModel()
    # Fig. 6 scale: 2000 um channel at 0.5 um vs window of 120 um side.
    total_points = (400e-6 / 0.5e-6) ** 2 * (2000e-6 / 0.5e-6)
    window_points = (120e-6 / 0.5e-6) ** 3
    bulk_points = (400e-6 / 2.5e-6) ** 2 * (2000e-6 / 2.5e-6)

    def node_seconds(n_nodes, bulk, window, n_cells):
        step = model.step_time(n_nodes, bulk, window, n_cells, fine_substeps=5)
        return n_nodes * step["total"]

    apr = node_seconds(6, bulk_points, window_points, 5.3e3)
    # eFSI: a window that covers the entire domain, no bulk
    efsi = node_seconds(22, 1.0, total_points, 4.5e5)
    assert efsi / apr > 5.0


def test_traversal_node_hours_fig9_rate():
    # 1.5 mm at 1.5 mm/day on one node = 24 node-hours.
    assert np.isclose(traversal_node_hours(1.5e-3), 24.0)


def test_traversal_scales_with_distance():
    assert traversal_node_hours(3e-3) == 2 * traversal_node_hours(1.5e-3)


def test_traversal_validation():
    with pytest.raises(ValueError):
        traversal_node_hours(-1.0)


def test_fig9_projection_500_node_hours():
    """The dashed-line projection: ~500 node-hours for the full vessel."""
    proj = fig9_projection()
    assert np.isclose(proj["node_hours"], 500.0, rtol=1e-6)
    assert proj["mm_per_day"] == 1.5
