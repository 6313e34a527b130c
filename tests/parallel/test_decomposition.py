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


def test_split_planes_are_uniform():
    """Split planes are ``np.linspace`` on every axis of the balanced grid."""
    d = BlockDecomposition((12, 10, 8), 4)
    for ax in range(3):
        expected = np.linspace(0, d.shape[ax], d.dims[ax] + 1).astype(int)
        assert list(d.splits[ax]) == list(expected)
    for r in range(4):
        b = d.block(r)
        assert b.lo == tuple(d.splits[ax][b.coords[ax]] for ax in range(3))
        assert b.hi == tuple(d.splits[ax][b.coords[ax] + 1] for ax in range(3))
