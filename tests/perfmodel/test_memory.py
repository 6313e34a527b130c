"""Memory model vs the paper's Tables 2 and 3."""

import numpy as np
import pytest

from repro.constants import BYTES_PER_FLUID_POINT, BYTES_PER_RBC, RBC_VOLUME
from repro.perfmodel import (
    MemoryModel,
    fluid_points_for_volume,
    rbc_count_for_volume,
    table2_fluid_volumes,
    table3_memory,
)
from repro.perfmodel.memory import apr_total_memory, efsi_total_memory


def test_paper_constants():
    assert BYTES_PER_FLUID_POINT == 408
    assert BYTES_PER_RBC == 51 * 1024


def test_fluid_points_for_volume():
    # 1 mm^3 at 10 um spacing -> 1e6 points.
    assert np.isclose(fluid_points_for_volume(1e-9, 10e-6), 1e6)


def test_rbc_count_for_volume_paper_window():
    """Fig. 9 window: 200 um cube at 35% Ht -> ~3e4 RBCs (paper: 2.9e4)."""
    n = rbc_count_for_volume((200e-6) ** 3, 0.35)
    assert 2.5e4 < n < 3.5e4


def test_validation():
    with pytest.raises(ValueError):
        fluid_points_for_volume(-1.0, 1e-6)
    with pytest.raises(ValueError):
        rbc_count_for_volume(1e-9, 1.5)


def test_table3_paper_values():
    """Table 3 row by row, to the paper's printed precision."""
    t = table3_memory()
    assert np.isclose(t["apr_window"]["fluid_bytes"], 7.2e9, rtol=0.02)
    assert np.isclose(t["apr_window"]["rbc_bytes"], 1.48e9, rtol=0.03)
    assert np.isclose(t["apr_bulk"]["fluid_bytes"], 64.4e9, rtol=0.02)
    assert np.isclose(t["efsi"]["fluid_bytes"], 6.0e15, rtol=0.01)
    assert np.isclose(t["efsi"]["rbc_bytes"], 3.2e15, rtol=0.03)


def test_table3_totals():
    """APR fits under 100 GB; eFSI needs ~9.2 PB (5 orders of magnitude)."""
    t = table3_memory()
    apr = apr_total_memory(t)
    efsi = efsi_total_memory(t)
    assert apr < 100e9
    assert np.isclose(efsi, 9.2e15, rtol=0.02)
    assert efsi / apr > 1e5


def test_table2_window_volume():
    t = table2_fluid_volumes()
    assert np.isclose(t["apr_window_volume"], 4.91e-9, rtol=0.10)


def test_table2_efsi_volume():
    t = table2_fluid_volumes()
    assert np.isclose(t["efsi_volume"], 4.98e-9, rtol=0.05)


def test_table2_bulk_volume_geometry_capped():
    t = table2_fluid_volumes()
    assert np.isclose(t["apr_bulk_volume"], 41.0e-6, rtol=1e-9)


def test_table2_resource_counts():
    t = table2_fluid_volumes()
    assert t["gpu_count"] == 1536
    assert t["cpu_count"] == 256 * 42


def test_table2_four_orders_of_magnitude():
    """Fig. 1's headline: APR opens ~4 orders of magnitude more volume."""
    t = table2_fluid_volumes()
    ratio = t["apr_bulk_volume"] / t["efsi_volume"]
    assert 3e3 < ratio < 3e4


def test_volume_capacity_with_cells_smaller():
    m = MemoryModel()
    v_clean = m.volume_capacity(1e12, 0.5e-6, hematocrit=0.0)
    v_cells = m.volume_capacity(1e12, 0.5e-6, hematocrit=0.4)
    assert v_cells < v_clean


def test_memory_model_linearity():
    m = MemoryModel()
    assert m.total_bytes(10, 2) == 10 * 408 + 2 * 51 * 1024


def test_table3_recomputed_from_geometry():
    """Estimate counts from the geometry instead of the printed values."""
    window_pts = fluid_points_for_volume((200e-6) ** 3, 0.75e-6)
    window_rbcs = rbc_count_for_volume((200e-6) ** 3, 0.35)
    t = table3_memory(window_points=window_pts, window_rbcs=window_rbcs)
    # Same order as the paper's 7.2 GB / 1.48 GB.
    assert 5e9 < t["apr_window"]["fluid_bytes"] < 9e9
    assert 1e9 < t["apr_window"]["rbc_bytes"] < 2e9
