"""Cell-wall repulsion forces."""

import numpy as np

from repro.fsi import wall_normals_from_sdf, wall_repulsion_forces
from repro.fsi.walls import WallProximityPrefilter
from repro.geometry import ExpandingChannel, Tube
from repro.geometry.vasculature import VascularTree
from repro.lbm import Grid

CUTOFF = 1.0e-6
K = 1e-10


def test_no_force_far_from_wall():
    tube = Tube(radius=20e-6)
    verts = np.array([[0.0, 0, 0], [5e-6, 0, 0]])
    f = wall_repulsion_forces(tube, verts, CUTOFF, K)
    assert np.allclose(f, 0.0)


def test_force_points_into_fluid():
    tube = Tube(radius=10e-6)
    verts = np.array([[9.5e-6, 0.0, 0.0]])  # 0.5 um from the wall
    f = wall_repulsion_forces(tube, verts, CUTOFF, K)
    assert f[0, 0] < 0  # pushed back toward the axis
    assert abs(f[0, 1]) < 1e-3 * abs(f[0, 0])


def test_force_magnitude_ramp():
    tube = Tube(radius=10e-6)
    near = wall_repulsion_forces(tube, np.array([[9.8e-6, 0, 0]]), CUTOFF, K)
    far = wall_repulsion_forces(tube, np.array([[9.2e-6, 0, 0]]), CUTOFF, K)
    assert np.linalg.norm(near[0]) > np.linalg.norm(far[0]) > 0
    # Linear ramp: F(d) = k (1 - d/dc).
    assert np.isclose(np.linalg.norm(near[0]), K * (1 - 0.2), rtol=0.05)


def test_vertex_past_wall_gets_full_push():
    tube = Tube(radius=10e-6)
    f = wall_repulsion_forces(tube, np.array([[10.4e-6, 0, 0]]), CUTOFF, K)
    assert np.isclose(np.linalg.norm(f[0]), K, rtol=0.05)
    assert f[0, 0] < 0


def test_normals_unit_and_inward():
    tube = Tube(radius=10e-6)
    pts = np.array([[9e-6, 0, 0], [0, 9e-6, 0], [6.4e-6, 6.4e-6, 5e-6]])
    n = wall_normals_from_sdf(tube, pts, h=0.25e-6)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
    for p, nn in zip(pts, n):
        radial = np.array([p[0], p[1], 0.0])
        radial /= np.linalg.norm(radial)
        assert nn @ radial < -0.99  # points toward the axis


def test_plain_callable_sdf():
    f = wall_repulsion_forces(
        lambda p: p[..., 0] - 5e-6,  # wall at x = 5 um, fluid below
        np.array([[4.6e-6, 0, 0]]),
        CUTOFF,
        K,
    )
    assert f[0, 0] < 0


def test_zero_cutoff_disables():
    tube = Tube(radius=10e-6)
    f = wall_repulsion_forces(tube, np.array([[9.9e-6, 0, 0]]), 0.0, K)
    assert np.allclose(f, 0.0)


def test_empty_input():
    tube = Tube(radius=10e-6)
    f = wall_repulsion_forces(tube, np.empty((0, 3)), CUTOFF, K)
    assert f.shape == (0, 3)


# -- lattice-sampled proximity prefilter ------------------------------------


def _tube_grid(radius=10e-6, shape=(12, 12, 12)):
    spacing = 2.0 * radius / (shape[1] - 1)
    origin = np.array([-radius, -radius, 0.0])
    return Grid(shape, tau=0.9, origin=origin, spacing=spacing)


def test_prefilter_bitwise_equals_unfiltered(rng):
    """Prefiltered wall forces == exact pass, bit for bit, on a vertex
    cloud spanning deep-fluid, near-wall, past-wall and out-of-window."""
    tube = Tube(radius=10e-6)
    grid = _tube_grid()
    pf = WallProximityPrefilter(tube, grid, CUTOFF)
    verts = np.concatenate([
        rng.uniform(-4e-6, 4e-6, size=(40, 3)),          # deep in the fluid
        np.array([[9.6e-6, 0, 0], [0, 9.9e-6, 5e-6],
                  [10.3e-6, 0, 0]]),                     # near / past wall
        np.array([[25e-6, 25e-6, 25e-6]]),               # outside window
    ])
    got = pf.forces(verts, CUTOFF, K)
    want = wall_repulsion_forces(tube, verts, CUTOFF, K)
    assert np.array_equal(got, want)
    # The deep-fluid block must actually have been skipped, not recomputed.
    assert np.allclose(got[:40], 0.0)


def test_prefilter_matches_tracks_window_placement():
    tube = Tube(radius=10e-6)
    grid = _tube_grid()
    pf = WallProximityPrefilter(tube, grid, CUTOFF)
    assert pf.matches(grid)
    moved = Grid(grid.shape, tau=0.9,
                 origin=grid.origin + grid.spacing, spacing=grid.spacing)
    assert not pf.matches(moved)


def test_prefilter_plain_callable_sdf():
    sdf = lambda p: p[..., 0] - 5e-6  # noqa: E731 - wall at x = 5 um
    grid = Grid((10, 10, 10), tau=0.9, origin=np.zeros(3), spacing=1e-6)
    pf = WallProximityPrefilter(sdf, grid, CUTOFF)
    verts = np.array([[4.6e-6, 2e-6, 2e-6], [1e-6, 2e-6, 2e-6]])
    got = pf.forces(verts, CUTOFF, K)
    want = wall_repulsion_forces(sdf, verts, CUTOFF, K)
    assert np.array_equal(got, want)
    assert got[0, 0] < 0 and np.allclose(got[1], 0.0)


def test_prefilter_samples_equal_whole_lattice_sampling():
    """Slab-by-slab sampling of an elementwise SDF gives the whole-lattice
    samples bit for bit."""
    grid = _tube_grid(shape=(9, 12, 7))
    channel = ExpandingChannel(radius_in=5e-6, radius_out=10e-6,
                               z_expand=3e-6, taper=2e-6)
    index = np.indices(grid.shape).reshape(3, -1).T
    for sdf in (Tube(radius=10e-6), channel, lambda p: p[..., 0] - 5e-6):
        pf = WallProximityPrefilter(sdf, grid, CUTOFF)
        fn = sdf.sdf if hasattr(sdf, "sdf") else sdf
        want = fn(grid.origin + grid.spacing * index).reshape(grid.shape)
        assert np.array_equal(pf._node_sdf, want)


def test_prefilter_blas_backed_sdf_forces_equal_unfiltered(rng):
    """A vessel network's SDF projects through a BLAS matrix-vector
    product, so its slab samples may differ from whole-lattice ones in
    the last bit; the prefiltered forces are still the exact pass's."""
    tree = VascularTree()
    tree.add_vessel(0, 1, [-2e-6, 0.3e-6, 0.1e-6], [6e-6, 1.7e-6, 9e-6], 3e-6)
    tree.add_vessel(1, 2, [6e-6, 1.7e-6, 9e-6], [1e-6, 9e-6, 4e-6], 2e-6)
    grid = Grid((5, 13, 11), tau=0.9, origin=np.array([-3e-6, -5e-6, -2e-6]),
                spacing=1e-6)
    pf = WallProximityPrefilter(tree, grid, CUTOFF)
    index = np.indices(grid.shape).reshape(3, -1).T
    whole = tree.sdf(grid.origin + grid.spacing * index).reshape(grid.shape)
    assert np.allclose(pf._node_sdf, whole, rtol=1e-12, atol=0.0)
    verts = grid.origin + rng.uniform(-1.0, 14.0, size=(600, 3)) * 1e-6
    got = pf.forces(verts, CUTOFF, K)
    want = wall_repulsion_forces(tree, verts, CUTOFF, K)
    assert np.array_equal(got, want)
    pushed = np.any(want != 0.0, axis=1)
    assert pushed.any() and not pushed.all()
