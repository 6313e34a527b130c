"""Block decomposition and neighbor topology."""

import numpy as np
import pytest

from repro.parallel import BlockDecomposition, balanced_dims


def test_balanced_dims_products():
    for n in (1, 2, 4, 6, 8, 12, 36, 42):
        dims = balanced_dims(n, (128, 128, 128))
        assert int(np.prod(dims)) == n


def test_balanced_dims_prefers_cubes():
    assert sorted(balanced_dims(8, (64, 64, 64))) == [2, 2, 2]
    assert sorted(balanced_dims(27, (90, 90, 90))) == [3, 3, 3]


def test_balanced_dims_respects_anisotropy():
    """A long thin domain should be split along its long axis."""
    dims = balanced_dims(4, (400, 10, 10))
    assert dims[0] == 4


def test_balanced_dims_validation():
    with pytest.raises(ValueError):
        balanced_dims(0, (4, 4, 4))
    with pytest.raises(ValueError):
        balanced_dims(64, (2, 2, 2))


def test_blocks_partition_domain():
    d = BlockDecomposition((17, 9, 5), 6)
    owned = np.zeros((17, 9, 5), dtype=int)
    for r in range(6):
        b = d.block(r)
        owned[b.lo[0] : b.hi[0], b.lo[1] : b.hi[1], b.lo[2] : b.hi[2]] += 1
    assert np.all(owned == 1)


def test_local_shapes_sum_to_domain():
    d = BlockDecomposition((16, 16, 16), 8)
    total = sum(int(np.prod(d.local_shape(r))) for r in range(8))
    assert total == 16**3


def test_neighbor_periodic_wrap():
    d = BlockDecomposition((8, 8, 8), 8)  # 2x2x2
    assert d.neighbor(0, (1, 0, 0)) is not None
    # With dims 2, +1 and -1 wrap to the same neighbor.
    assert d.neighbor(0, (1, 0, 0)) == d.neighbor(0, (-1, 0, 0))


def test_neighbor_nonperiodic_edges():
    d = BlockDecomposition((8, 8, 8), 8, periodic=(False, False, False))
    corner = 0
    assert d.neighbor(corner, (-1, 0, 0)) is None


def test_neighbor_count_saturation_story():
    """The Fig. 8 explanation: full connectivity only from 8 ranks up."""
    shape = (64, 64, 64)
    hist1 = BlockDecomposition(shape, 1).neighbor_count_histogram()
    hist2 = BlockDecomposition(shape, 2).neighbor_count_histogram()
    hist8 = BlockDecomposition(shape, 8).neighbor_count_histogram()
    hist27 = BlockDecomposition(shape, 27).neighbor_count_histogram()
    assert hist1 == {0: 1}
    assert hist2 == {1: 2}
    assert hist8 == {6: 8}  # 2x2x2 periodic: +1/-1 wrap to the same rank
    # D3Q19 exchanges along 18 directions (no pure corners), so full
    # connectivity at >=27 ranks is 18 distinct neighbors per rank.
    assert set(hist27) == {18}


def test_halo_nodes_surface_scaling():
    d = BlockDecomposition((32, 32, 32), 8)
    halo = d.halo_nodes(0, width=1)
    local = int(np.prod(d.local_shape(0)))
    assert halo == 18**3 - 16**3
    assert halo < local


def test_dims_override():
    d = BlockDecomposition((12, 12, 12), 4, dims=(4, 1, 1))
    assert d.dims == (4, 1, 1)
    with pytest.raises(ValueError):
        BlockDecomposition((12, 12, 12), 4, dims=(2, 1, 1))


# ----------------------------------------------------------------------
# Fluid-weighted split planes


def test_weighted_splits_uniform_fallbacks():
    from repro.parallel import weighted_splits

    uniform = weighted_splits(16, 4, None)
    assert list(uniform) == [0, 4, 8, 12, 16]
    # zero / non-finite / negative-total profiles fall back to uniform
    assert list(weighted_splits(16, 4, np.zeros(16))) == [0, 4, 8, 12, 16]
    bad = np.full(16, np.inf)
    assert list(weighted_splits(16, 4, bad)) == [0, 4, 8, 12, 16]


def test_weighted_splits_follow_cumulative_weight():
    from repro.parallel import weighted_splits

    # all the weight in the first half -> planes crowd into it
    w = np.zeros(16)
    w[:8] = 1.0
    s = weighted_splits(16, 4, w)
    assert s[0] == 0 and s[-1] == 16
    assert s[3] <= 8  # three of the four parts live in the loaded half


def test_weighted_splits_monotone_repair():
    from repro.parallel import weighted_splits

    # a delta profile would put every cut at the same plane without the
    # repair passes; each part must keep >= 1 cell
    w = np.zeros(12)
    w[5] = 1.0
    s = weighted_splits(12, 6, w)
    assert all(b - a >= 1 for a, b in zip(s[:-1], s[1:]))
    assert s[0] == 0 and s[-1] == 12


def test_weighted_splits_oversplit_raises():
    from repro.parallel import weighted_splits

    with pytest.raises(ValueError):
        weighted_splits(3, 4, None)


def test_decomposition_without_weights_is_legacy():
    a = BlockDecomposition((12, 10, 8), 4)
    b = BlockDecomposition((12, 10, 8), 4, weights=None)
    for r in range(4):
        assert a.block(r).lo == b.block(r).lo
        assert a.block(r).hi == b.block(r).hi


def test_decomposition_fluid_weighted_shifts_planes():
    """A fluid mask loading one x-half moves the x split plane, keeps a
    valid partition, and changes nothing when the mask is uniform."""
    shape = (16, 8, 8)
    fluid = np.zeros(shape)
    fluid[:8] = 1.0  # all fluid in the low-x half
    d = BlockDecomposition(shape, 2, dims=(2, 1, 1), weights=fluid)
    assert d.block(0).hi[0] <= 8
    covered = np.zeros(shape, dtype=np.int64)
    for r in range(2):
        b = d.block(r)
        covered[b.lo[0]:b.hi[0], b.lo[1]:b.hi[1], b.lo[2]:b.hi[2]] += 1
    assert (covered == 1).all()
    u = BlockDecomposition(shape, 2, dims=(2, 1, 1),
                           weights=np.ones(shape))
    legacy = BlockDecomposition(shape, 2, dims=(2, 1, 1))
    assert u.block(0).hi == legacy.block(0).hi


def test_weights_shape_validation():
    with pytest.raises(ValueError):
        BlockDecomposition((8, 8, 8), 2, weights=np.ones((4, 4, 4)))
    with pytest.raises(ValueError):
        BlockDecomposition((8, 8, 8), 2, weights=[np.ones(8), np.ones(8)])
