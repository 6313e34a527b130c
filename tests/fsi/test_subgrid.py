"""Background uniform subgrid: fixed-radius queries (Section 2.4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsi import UniformSubgrid
from repro.fsi.subgrid import inter_label_pairs
from repro.membrane import make_rbc


def test_query_finds_inserted_point():
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[0.5, 0.5, 0.5]]), labels=7)
    idx, labels = g.query(np.array([0.6, 0.5, 0.5]), radius=0.5)
    assert len(idx) == 1
    assert labels[0] == 7


def test_query_excludes_far_points():
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]), labels=np.array([1, 2]))
    _, labels = g.query(np.array([0.1, 0.0, 0.0]), radius=0.5)
    assert set(labels) == {1}


def test_query_radius_bounded_by_cell_size():
    g = UniformSubgrid(cell_size=0.5)
    g.insert(np.array([[0.0, 0.0, 0.0]]), labels=0)
    with pytest.raises(ValueError):
        g.query(np.zeros(3), radius=1.0)


def test_negative_coordinates_supported():
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[-3.2, -0.1, -7.9]]), labels=3)
    _, labels = g.query(np.array([-3.0, 0.0, -8.0]), radius=0.6)
    assert 3 in labels


def test_query_labels_near_unions_over_points():
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[0.0, 0, 0]]), labels=1)
    g.insert(np.array([[10.0, 0, 0]]), labels=2)
    probe = np.array([[0.1, 0, 0], [9.9, 0, 0]])
    assert g.query_labels_near(probe, radius=0.5) == {1, 2}


def test_len_counts_points():
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.zeros((4, 3)), labels=0)
    assert len(g) == 4


def test_cell_size_validation():
    with pytest.raises(ValueError):
        UniformSubgrid(cell_size=0.0)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    radius=st.floats(0.05, 0.99),
)
def test_matches_brute_force(seed, radius):
    """Property: subgrid query == brute-force distance filter."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(60, 3))
    labels = rng.integers(0, 10, size=60)
    g = UniformSubgrid(cell_size=1.0)
    g.insert(pts, labels)
    probe = rng.uniform(-2.0, 2.0, size=3)
    idx, found = g.query(probe, radius)
    brute = np.nonzero(((pts - probe) ** 2).sum(axis=1) <= radius * radius)[0]
    assert set(idx.tolist()) == set(brute.tolist())


# -- CSR-index edge cases ---------------------------------------------------


def test_points_straddling_bin_zero():
    """Points just below and above zero land in different bins but both
    fall inside a query spanning the origin."""
    g = UniformSubgrid(cell_size=1.0)
    pts = np.array([[-1e-9, 0.0, 0.0], [1e-9, 0.0, 0.0], [-0.999, 0.0, 0.0]])
    g.insert(pts, labels=np.array([1, 2, 3]))
    idx, labels = g.query(np.zeros(3), radius=0.5)
    assert set(labels.tolist()) == {1, 2}
    assert g.query_labels_near(np.array([[0.0, 0.0, 0.0]]), 1.0) == {1, 2, 3}


def test_duplicate_points_all_reported():
    g = UniformSubgrid(cell_size=1.0)
    p = np.array([[0.25, 0.25, 0.25]])
    g.insert(np.repeat(p, 4, axis=0), labels=np.array([5, 6, 5, 7]))
    idx, labels = g.query(p[0], radius=0.1)
    assert len(idx) == 4
    assert sorted(labels.tolist()) == [5, 5, 6, 7]
    assert g.query_labels_near(p, 0.1) == {5, 6, 7}


def test_radius_exactly_cell_size():
    """radius == cell_size is the largest legal radius; a point exactly
    one cell away (touching the 27-neighborhood boundary) must be found."""
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
             labels=np.array([1, 2]))
    idx, labels = g.query(np.zeros(3), radius=1.0)
    assert set(labels.tolist()) == {1, 2}
    assert g.query_labels_near(np.zeros((1, 3)), 1.0) == {1, 2}


def test_empty_grid_queries():
    g = UniformSubgrid(cell_size=1.0)
    idx, labels = g.query(np.zeros(3), radius=0.5)
    assert len(idx) == 0 and len(labels) == 0
    assert g.query_labels_near(np.zeros((3, 3)), 0.5) == set()
    assert g.query_labels_near(np.empty((0, 3)), 0.5) == set()


def test_incremental_rebuild_after_query():
    """Inserting after a query must re-index: the new points are visible
    and earlier results stay correct."""
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[0.0, 0.0, 0.0]]), labels=1)
    assert g.query_labels_near(np.zeros((1, 3)), 0.5) == {1}
    g.insert(np.array([[0.2, 0.0, 0.0], [4.0, 4.0, 4.0]]),
             labels=np.array([2, 3]))
    assert g.query_labels_near(np.zeros((1, 3)), 0.5) == {1, 2}
    g.insert(np.array([[0.0, 0.3, 0.0]]), labels=4)
    assert g.query_labels_near(np.zeros((1, 3)), 0.5) == {1, 2, 4}
    idx, _ = g.query(np.array([4.0, 4.0, 4.0]), radius=0.5)
    assert idx.tolist() == [2]


def test_batched_query_has_no_per_point_python_path(monkeypatch):
    """query_labels_near must not fall back to per-point query() calls."""
    g = UniformSubgrid(cell_size=1.0)
    g.insert(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
             labels=np.array([1, 2]))

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("query_labels_near iterated per point")

    monkeypatch.setattr(UniformSubgrid, "query", boom)
    probes = np.array([[0.1, 0.0, 0.0], [1.1, 1.0, 1.0], [9.0, 9.0, 9.0]])
    assert g.query_labels_near(probes, 0.5) == {1, 2}


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 1_000_000),
    radius=st.floats(0.05, 1.0),
    cell_size=st.floats(1.0, 3.0),
)
def test_batched_labels_match_brute_force(seed, radius, cell_size):
    """Property (>=100 seeds): batched query_labels_near == brute force
    on randomized clouds, including negative coordinates and duplicates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    pts = rng.uniform(-3.0, 3.0, size=(n, 3))
    if n > 4:  # inject exact duplicates
        pts[-2:] = pts[:2]
    labels = rng.integers(0, 12, size=n)
    g = UniformSubgrid(cell_size=cell_size)
    g.insert(pts, labels)
    probes = rng.uniform(-3.5, 3.5, size=(int(rng.integers(1, 20)), 3))
    got = g.query_labels_near(probes, radius)
    d2 = ((pts[None, :, :] - probes[:, None, :]) ** 2).sum(axis=-1)
    hit = (d2 <= radius * radius).any(axis=0)
    assert got == set(np.unique(labels[hit]).tolist())


# -- incrementally merged hash index -----------------------------------------


def _brute_query(pts, probe, radius):
    return np.flatnonzero(((pts - probe) ** 2).sum(axis=1) <= radius * radius)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 1_000_000),
    cell_size=st.sampled_from([1e-9, 1e-6, 0.3, 1.0, 2.5]),
    n_batches=st.integers(1, 6),
)
def test_interleaved_inserts_match_brute_force(seed, cell_size, n_batches):
    """Property (>=100 examples): after every insert batch, ``query`` and
    ``query_labels_near`` equal brute force.  Coordinates are negative and
    positive, batches repeat earlier points exactly, and a tiny cell size
    gives bin keys whose hash products wrap."""
    rng = np.random.default_rng(seed)
    radius = cell_size * float(rng.uniform(0.05, 1.0))
    span = 3.0 * cell_size * 10.0 ** float(rng.uniform(0, 3))
    g = UniformSubgrid(cell_size=cell_size)
    pts = np.empty((0, 3))
    labels = np.empty(0, dtype=np.int64)
    for _ in range(n_batches):
        m = int(rng.integers(0, 40))
        new = rng.uniform(-span, span, size=(m, 3))
        if len(pts) and m > 2:  # exact duplicates of stored points
            new[:2] = pts[rng.integers(0, len(pts), size=2)]
        new_labels = rng.integers(0, 15, size=m)
        g.insert(new, new_labels)
        pts = np.vstack([pts, new])
        labels = np.concatenate([labels, new_labels])
        assert len(g) == len(pts)
        if not len(pts):
            continue
        # Probes near stored points (hits) and anywhere (mostly misses).
        near = pts[rng.integers(0, len(pts), size=6)]
        near = near + rng.uniform(-radius, radius, size=near.shape)
        probes = np.vstack([near, rng.uniform(-span, span, size=(4, 3))])
        for probe in probes:
            idx, found = g.query(probe, radius)
            brute = _brute_query(pts, probe, radius)
            assert len(np.unique(idx)) == len(idx)
            assert sorted(idx.tolist()) == brute.tolist()
            assert np.array_equal(found, labels[idx])
        d2 = ((pts[None, :, :] - probes[:, None, :]) ** 2).sum(axis=-1)
        hit = (d2 <= radius * radius).any(axis=0)
        assert g.query_labels_near(probes, radius) == set(
            np.unique(labels[hit]).tolist()
        )


def test_neighbor_offset_hashes_distinct():
    """Distinct offset hashes make a probe's 27 candidate hashes distinct,
    so no stored point is a candidate twice for one probe."""
    from repro.fsi.subgrid import _OFFSET_HASH

    assert len(_OFFSET_HASH) == 27
    assert len(np.unique(_OFFSET_HASH)) == 27
    g = UniformSubgrid(cell_size=1.0)
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(300, 3))
    g.insert(pts, 0)
    slot, probe = g._candidates(np.zeros((1, 3)))
    assert len(np.unique(slot)) == len(slot)
    idx, _ = g.query(np.zeros(3), radius=1.0)
    assert len(np.unique(idx)) == len(idx) > 0


def test_forced_hash_collision_stays_exact(monkeypatch):
    """Two bins sharing a hash add candidates the distance filter drops."""
    import repro.fsi.subgrid as subgrid

    p = np.array([1, 1000, 1_000_000], dtype=np.int64)
    monkeypatch.setattr(subgrid, "_HASH_P", p)
    monkeypatch.setattr(
        subgrid, "_OFFSET_HASH", subgrid._bin_hash(subgrid._NEIGHBOR_OFFSETS)
    )
    assert len(np.unique(subgrid._OFFSET_HASH)) == 27
    g = UniformSubgrid(cell_size=1.0)
    # Bins (0, 1, 0) and (1000, 0, 0) both hash to 1000.
    g.insert(np.array([[0.5, 1.5, 0.5], [1000.5, 0.5, 0.5]]),
             labels=np.array([1, 2]))
    probe = np.array([0.5, 1.6, 0.5])
    slot, _ = g._candidates(probe[None])
    assert sorted(slot.tolist()) == [0, 1]  # the collision is exercised
    idx, labels = g.query(probe, radius=0.5)
    assert idx.tolist() == [0] and labels.tolist() == [1]
    assert g.query_labels_near(probe[None], 0.5) == {1}
    idx, labels = g.query(np.array([1000.5, 0.6, 0.5]), radius=0.5)
    assert idx.tolist() == [1] and labels.tolist() == [2]


def test_sequential_accepts_sort_only_the_new_batch(monkeypatch):
    """Work-count guard: while 50 cells are accepted one by one (query,
    then insert), no ``np.argsort`` call sorts more points than the cell
    being inserted (stored points are merged, never re-sorted)."""
    from repro.membrane import make_rbc

    cells = [
        make_rbc(np.array([10e-6 * i, 0.0, 0.0]), global_id=i, subdivisions=1)
        for i in range(50)
    ]
    n_vertices = len(cells[0].vertices)
    sizes = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    g = UniformSubgrid(cell_size=0.5e-6)
    for cell in cells:
        assert not g.query_labels_near(cell.vertices, 0.5e-6)
        g.insert(cell.vertices, cell.global_id)
    assert len(g) == 50 * n_vertices
    assert len(sizes) >= 50
    assert max(sizes) <= n_vertices


# -- inter-label self-join (the contact list's pair search) -----------------


def _query_pairs_oracle(points, labels, radius):
    """``cKDTree.query_pairs`` with the same-label pairs removed, lexsorted."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    keep = labels[i] != labels[j]
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]


def _assert_pairs_equal_oracle(points, labels, radius):
    i, j = inter_label_pairs(points, labels, radius)
    want_i, want_j = _query_pairs_oracle(points, labels, radius)
    assert i.dtype == j.dtype == np.intp
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    return len(i)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale,offset,radius", [
    (1.0, 0.0, 0.15),
    (2.0, -1.0, 0.3),
    (50.0, -1.0e3, 4.0),
    (1.0e-5, -3.0e-5, 1.0e-6),
    (3.0e-5, 2.0e-5, 0.7e-6),
])
def test_inter_label_pairs_match_query_pairs(seed, scale, offset, radius):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 700))
    points = offset + scale * rng.uniform(size=(n, 3))
    labels = rng.integers(0, 9, size=n)
    assert _assert_pairs_equal_oracle(points, labels, radius) > 0


def test_inter_label_pairs_on_stacked_rbcs():
    """Stacked, randomly rotated RBC meshes: the contact list's input."""
    rng = np.random.default_rng(3)
    verts, labels = [], []
    for k in range(6):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        cell = make_rbc(np.array([0.0, 0.0, 1.2e-6 * k]), global_id=10 + k,
                        rotation=q, subdivisions=2)
        verts.append(cell.vertices)
        labels.append(np.full(len(cell.vertices), 10 + k))
    points, labels = np.concatenate(verts), np.concatenate(labels)
    assert _assert_pairs_equal_oracle(points, labels, 0.5e-6) > 0


@pytest.mark.parametrize("spacing", [0.25, 0.1, 0.37e-6])
def test_inter_label_pairs_keep_pairs_at_exactly_the_radius(spacing):
    """Lattice points one spacing apart, searched at that spacing: the
    bound is inclusive, and a point a hair across a bin edge still finds
    its neighbour."""
    index = np.indices((7, 6, 5)).reshape(3, -1).T
    points = -2.0 * spacing + spacing * index
    labels = index.sum(axis=1) % 2      # every lattice neighbour differs
    found = _assert_pairs_equal_oracle(points, labels, spacing)
    if spacing == 0.25:
        # Exact arithmetic: every lattice edge is a pair.
        assert found == 6 * 6 * 5 + 7 * 5 * 5 + 7 * 6 * 4


def test_inter_label_pairs_pair_two_bin_edges_apart():
    """``b - a`` rounds to exactly the radius, though ``a / r`` sits a
    hair below the first bin edge and ``b / r`` on the second one."""
    a, b = np.nextafter(1.0, 0.0), 2.0
    points = np.array([[0.0, 5.0, 0.0], [a, 0.0, 0.0], [b, 0.0, 0.0]])
    assert _assert_pairs_equal_oracle(points, np.arange(3), 1.0) == 1


def test_inter_label_pairs_single_label_and_tiny_inputs():
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(50, 3))
    for pts, labels in [
        (points, np.full(50, 4)),
        (np.empty((0, 3)), np.empty(0, dtype=np.int64)),
        (points[:1], np.array([1])),
    ]:
        i, j = inter_label_pairs(pts, labels, 0.5)
        assert len(i) == len(j) == 0
        assert i.dtype == j.dtype == np.intp


# -- the pair search in fixed chunks of occupied bins ----------------------


def _unchunked_pairs(points, labels, radius):
    """The pair search over every occupied bin at once: the body
    ``inter_label_pairs`` had before it walked the bins in chunks."""
    from repro.fsi.subgrid import _BIN_SLACK, _HALF_SHELL, _ragged, sq_norm

    n = len(points)
    cell = np.floor(
        (points - points.min(axis=0)) / (radius * (1.0 + _BIN_SLACK))
    ).astype(np.int64) + 1
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    offsets = (_HALF_SHELL[:, 0] * dims[1] + _HALF_SHELL[:, 1]) * dims[2] \
        + _HALF_SHELL[:, 2]
    order = np.argsort(key)
    key, label = key[order], labels[order]
    new_bin = np.empty(n, dtype=bool)
    new_bin[0] = True
    np.not_equal(key[1:], key[:-1], out=new_bin[1:])
    start = np.flatnonzero(new_bin)
    size = np.diff(np.append(start, n))
    bins = key[start]
    low = np.minimum.reduceat(label, start)
    high = np.maximum.reduceat(label, start)
    table = np.full(int(np.prod(dims)), -1, dtype=np.int32)
    table[bins] = np.arange(len(bins), dtype=np.int32)
    nb = table[bins[:, None] + offsets]
    b, o = np.nonzero(nb >= 0)
    nb = nb[b, o]
    mixed = (low[b] != high[nb]) | (high[b] != low[nb])
    b, nb = b[mixed], nb[mixed]
    own = np.flatnonzero(low != high)
    a = np.concatenate([_ragged(start[own], size[own]),
                        _ragged(start[b], size[b])])
    lo = np.concatenate([a[:size[own].sum()] + 1,
                         np.repeat(start[nb], size[b])])
    hi = np.concatenate([np.repeat(start[own] + size[own], size[own]),
                         np.repeat(start[nb] + size[nb], size[b])])
    width = hi - lo
    a = np.repeat(a, width)
    c = _ragged(lo, width)
    other = label[a] != label[c]
    i, j = order[a[other]], order[c[other]]
    hit = sq_norm(points[i] - points[j]) <= radius * radius
    i, j = i[hit], j[hit]
    i, j = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((j, i))
    return i[order], j[order]


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("seed", range(3))
def test_chunked_pairs_equal_the_unchunked_search(monkeypatch, chunk, seed):
    """Chunk edges fall between bins that pair with each other across
    them; the sorted pairs are those of the one-pass search, exactly."""
    import repro.fsi.subgrid as subgrid

    monkeypatch.setattr(subgrid, "PAIR_BIN_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 400))
    points = rng.uniform(size=(n, 3))
    labels = rng.integers(0, 5, size=n)
    i, j = inter_label_pairs(points, labels, 0.12)
    want_i, want_j = _unchunked_pairs(points, labels, 0.12)
    assert len(i) > 0
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_chunked_pairs_over_several_default_chunks():
    """A sparse cloud fills several :data:`PAIR_BIN_CHUNK` passes."""
    from repro.fsi.subgrid import PAIR_BIN_CHUNK

    rng = np.random.default_rng(11)
    n = 3 * PAIR_BIN_CHUNK + 100
    points = 40.0 * rng.uniform(size=(n, 3))
    labels = rng.integers(0, 50, size=n)
    i, j = inter_label_pairs(points, labels, 1.0)
    want_i, want_j = _unchunked_pairs(points, labels, 1.0)
    assert len(i) > 0
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
