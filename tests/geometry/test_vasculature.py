"""Synthetic vascular trees (Murray's law substitutes for patient data)."""

import numpy as np
import pytest

from repro.geometry import VascularTree, murray_tree, upper_body_tree
from repro.geometry.vasculature import MURRAY_RATIO, resample_polyline


def test_murray_ratio_value():
    assert np.isclose(MURRAY_RATIO**3 * 2.0, 1.0)


def test_tree_segment_count():
    t = murray_tree(generations=3, root_radius=1e-3, seed=0)
    # One root + 2 + 4 + 8 = 15 segments for 3 bifurcation levels.
    assert t.n_segments == 15


def test_radii_follow_murray():
    t = murray_tree(generations=2, root_radius=1e-3, seed=1)
    radii = sorted({round(r, 9) for _, _, r in t.segments()}, reverse=True)
    assert np.isclose(radii[1] / radii[0], MURRAY_RATIO, rtol=1e-6)
    assert np.isclose(radii[2] / radii[1], MURRAY_RATIO, rtol=1e-6)


def test_deterministic_for_seed():
    a = murray_tree(3, 1e-3, seed=42)
    b = murray_tree(3, 1e-3, seed=42)
    for (a1, a2, ra), (b1, b2, rb) in zip(a.segments(), b.segments()):
        assert np.allclose(a1, b1) and np.allclose(a2, b2) and ra == rb


def test_different_seeds_differ():
    a = murray_tree(3, 1e-3, seed=1)
    b = murray_tree(3, 1e-3, seed=2)
    pa = np.vstack([s[1] for s in a.segments()])
    pb = np.vstack([s[1] for s in b.segments()])
    assert not np.allclose(pa, pb)


def test_sdf_inside_root_vessel():
    t = murray_tree(1, root_radius=1e-3, seed=0)
    root_pos = t.graph.nodes[t.root()]["pos"]
    probe = root_pos + np.array([0.0, 0.0, 1e-3])  # just inside the root
    assert t.sdf(probe[None])[0] < 0


def test_sdf_outside_bounding_box():
    t = murray_tree(2, root_radius=1e-3, seed=0)
    lo, hi = t.bounding_box()
    assert t.sdf((hi + 1.0)[None])[0] > 0


def test_centerline_path_starts_at_root():
    t = murray_tree(3, 1e-3, seed=0)
    path = t.centerline_path()
    assert np.allclose(path[0], t.graph.nodes[t.root()]["pos"])
    assert len(path) >= 4


def test_path_radii_decrease_down_tree():
    t = murray_tree(3, 1e-3, seed=0, jitter=0.0)
    nodes = __import__("networkx").shortest_path(
        t.graph, t.root(), t.terminals()[0]
    )
    radii = t.path_radii(nodes)
    assert np.all(np.diff(radii) <= 1e-12)


def test_terminals_are_leaves():
    t = murray_tree(2, 1e-3, seed=0)
    for leaf in t.terminals():
        assert t.graph.out_degree(leaf) == 0
    assert len(t.terminals()) == 4


def test_total_volume_positive_and_scales():
    small = murray_tree(2, 0.5e-3, seed=0, jitter=0.0)
    big = murray_tree(2, 1e-3, seed=0, jitter=0.0)
    assert big.total_volume() > small.total_volume() * 7  # ~ r^2 * L ~ r^3


def test_upper_body_preset_volume_near_paper():
    """Fig. 1 / Table 2: upper-body fluid volume ~41 mL."""
    v_ml = upper_body_tree().total_volume() * 1e6
    assert 30.0 < v_ml < 55.0


def test_resample_polyline_spacing():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1.0, 0]])
    out = resample_polyline(pts, spacing=0.25)
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert np.allclose(seg, seg[0], rtol=0.3)
    assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])


def test_add_vessel_validation():
    t = VascularTree()
    with pytest.raises(ValueError):
        t.add_vessel(0, 1, np.zeros(3), np.ones(3), radius=0.0)


def test_root_detection_unique():
    t = murray_tree(1, 1e-3, seed=0)
    assert t.root() == 0
