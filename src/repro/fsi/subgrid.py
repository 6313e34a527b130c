"""Background uniform subgrid for neighbor queries (Section 2.4.2).

The paper's overlap-removal algorithm "detects overlaps by identifying
nearby cells at each vertex of the tested cell, using a background uniform
subgrid".  :class:`UniformSubgrid` is that structure: points are binned
into cubic cells of the query cutoff size, so a radius query touches only
the 27 surrounding bins.

The index is a linear spatial hash kept sorted incrementally.  A point's
bin key ``k = floor(x / cell_size)`` maps to ``h(k) = k . P`` with three
large odd constants and wrapping int64 arithmetic.  The hash is linear,
``h(k + o) = h(k) + h(o)``, so a probe's 27 neighbor hashes are 27
additions.  Stored points are held in hash order: ``insert`` sorts only
the new batch and merges it in with ``searchsorted`` + ``np.insert`` (one
O(N) copy, no re-sort of stored points), and a query finds each
candidate bin's run with a left/right ``searchsorted``.

Results are exact.  Any point within ``radius <= cell_size`` of a probe
sits in one of the probe's 27 bins, so it is a candidate.  Two bins
sharing a hash only add candidates, and the exact distance filter of
:func:`subgrid_query` removes those.  The 27 offset hashes are distinct,
so the 27 candidate hashes of one probe are too, and each stored point
comes back at most once per probe.

:func:`inter_label_pairs` is the same grid used the other way round: a
self-join of one point set, for the contact list's pair search.  It bins
every point at once by the search radius with dense, collision-free bin
keys and pairs each bin with itself and its 13 half-shell neighbour bins,
so every pair of neighbouring bins is visited once.

Seeding, window fills and overlap removal accept cells greedily by global
ID: a cell is kept unless it comes within the cutoff of a stored cell or
of a cell kept before it.  :meth:`UniformSubgrid.admit` resolves a whole
batch of such cells in one pass.  One :func:`inter_label_pairs` self-join
over the batch and the stored points near it finds every conflict, one
ordered walk over the conflicting cell pairs applies the rule, and one
``insert`` stores the kept cells.  The stored points, labels and hash
order afterwards are those of the one-cell-at-a-time query and insert.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import get_telemetry

#: The 27 neighbor-bin offsets of a one-ring search, shape (27, 3).
_NEIGHBOR_OFFSETS = np.stack(
    np.meshgrid(*([np.arange(-1, 2)] * 3), indexing="ij"), axis=-1
).reshape(-1, 3)

#: Odd 64-bit multipliers of the linear bin hash (two's-complement int64).
_HASH_P = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
    dtype=np.uint64,
).view(np.int64)


def _bin_hash(keys: np.ndarray) -> np.ndarray:
    """Wrapping int64 hash ``k . P`` of integer bin keys, shape (..., 3)."""
    return (keys * _HASH_P).sum(axis=-1)


#: Hashes of the 27 neighbor offsets; a probe's candidates are
#: ``h(k) + _OFFSET_HASH``.
_OFFSET_HASH = _bin_hash(_NEIGHBOR_OFFSETS.astype(np.int64))


#: One offset of each ``(o, -o)`` pair of the 26 nonzero one-ring
#: offsets (the lexicographically positive one), shape (13, 3).
_HALF_SHELL = _NEIGHBOR_OFFSETS[len(_NEIGHBOR_OFFSETS) // 2 + 1:]

#: Self-join bins are the radius times ``1 + _BIN_SLACK``.  A pair at
#: exactly the radius then still lies in neighbouring bins where rounding
#: puts one of its points a hair across a bin edge.
_BIN_SLACK = 1e-6


def sq_norm(d: np.ndarray) -> np.ndarray:
    """Squared length of each row of ``d`` (N, 3), summed x, y, z in
    turn — the squared distance ``cKDTree.query_pairs`` compares."""
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``,
    loop-free."""
    within = np.arange(int(counts.sum()), dtype=np.intp) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + within


#: Occupied bins per pass of :func:`inter_label_pairs`.  Each pass
#: forms its bins' neighbour lookups and candidate point pairs only, so
#: the search's scratch stays bounded however many bins the cloud fills.
PAIR_BIN_CHUNK = 2048


def inter_label_pairs(
    points: np.ndarray, labels: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of points with different labels
    within ``radius`` of each other, lexsorted by ``(i, j)``.

    The same pairs as ``cKDTree(points).query_pairs(radius)`` with the
    same-label pairs removed: a pair is kept when its :func:`sq_norm` is
    at most ``radius * radius``.

    Points are binned by the radius.  Each bin is paired with itself and
    its 13 half-shell neighbours, so every pair of neighbouring bins is
    visited once.  A bin pair whose points all carry one label is dropped
    as a whole, and the same-label point pairs of the rest are dropped
    before the distance test.  The occupied bins are walked
    :data:`PAIR_BIN_CHUNK` at a time; every pair is found exactly once,
    so the sorted result does not depend on the chunking.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(points)
    empty = np.empty(0, dtype=np.intp)
    if n < 2:
        return empty, empty
    # Dense bin keys with an empty rim bin on every side, so every
    # neighbour of an occupied bin has a key in [0, prod(dims)) and no two
    # bins share one.
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

    # Index of each occupied bin, or -1, over every bin of the bounding
    # grid.
    table = np.full(int(np.prod(dims)), -1, dtype=np.int32)
    table[bins] = np.arange(len(bins), dtype=np.int32)
    parts_i, parts_j = [], []
    for first in range(0, len(bins), PAIR_BIN_CHUNK):
        stop = min(first + PAIR_BIN_CHUNK, len(bins))
        # Occupied half-shell neighbour of each bin of the pass, or -1.
        nb = table[bins[first:stop, None] + offsets]
        b, o = np.nonzero(nb >= 0)
        nb = nb[b, o]
        b += first
        # Bin pairs whose points do not all carry one label.
        mixed = (low[b] != high[nb]) | (high[b] != low[nb])
        b, nb = b[mixed], nb[mixed]
        own = first + np.flatnonzero(low[first:stop] != high[first:stop])

        # Per point of a kept bin, the range of sorted positions it pairs
        # with: the later points of its own bin, all points of a neighbour.
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
        parts_i.append(i[hit])
        parts_j.append(j[hit])
    i, j = np.concatenate(parts_i), np.concatenate(parts_j)
    i, j = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((j, i))
    return i[order], j[order]


def subgrid_query(stored, slot, points, probe, radius):
    """Candidate distance filter of the radius queries.

    ``(slot, probe)`` are the candidate pairs from the 27-bin ring;
    returns the boolean hit mask ``|stored[slot] - points[probe]| <= r``.
    """
    d2 = ((stored[slot] - points[probe]) ** 2).sum(axis=1)
    return d2 <= radius * radius


class UniformSubgrid:
    """Hash grid over 3D points supporting fixed-radius neighbor queries."""

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self._n = 0
        # Capacity-doubling point and label buffers; rows [0, _n) are live.
        self._point_buf = np.empty((0, 3), dtype=np.float64)
        self._label_buf = np.empty(0, dtype=np.int64)
        #: Bin hashes of the stored points in ascending order, and the
        #: point index of each entry (ties in insertion order).
        self._hashes = np.empty(0, dtype=np.int64)
        self._order = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return self._n

    @property
    def _points(self) -> np.ndarray:
        return self._point_buf[: self._n]

    @property
    def _labels(self) -> np.ndarray:
        return self._label_buf[: self._n]

    def _hash_points(self, points: np.ndarray) -> np.ndarray:
        return _bin_hash(np.floor(points / self.cell_size).astype(np.int64))

    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, labels: np.ndarray | int) -> None:
        """Insert points with integer labels (e.g. owning cell global IDs)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), len(points))
        m = len(points)
        if m == 0:
            return
        n = self._n
        if n + m > len(self._point_buf):
            cap = max(n + m, 2 * len(self._point_buf))
            point_buf = np.empty((cap, 3), dtype=np.float64)
            label_buf = np.empty(cap, dtype=np.int64)
            point_buf[:n] = self._point_buf[:n]
            label_buf[:n] = self._label_buf[:n]
            self._point_buf, self._label_buf = point_buf, label_buf
        self._point_buf[n : n + m] = points
        self._label_buf[n : n + m] = labels
        self._n = n + m
        # Sort the batch only, then merge it after equal stored hashes so
        # every run stays in insertion order.
        h = self._hash_points(points)
        batch_order = np.argsort(h, kind="stable")
        h = h[batch_order]
        at = np.searchsorted(self._hashes, h, side="right")
        self._hashes = np.insert(self._hashes, at, h)
        self._order = np.insert(self._order, at, batch_order + n)

    def admit(
        self, blocks: list[np.ndarray], labels: list[int] | np.ndarray,
        radius: float,
    ) -> np.ndarray:
        """Insert, in order, each point block that lies within ``radius``
        of no stored point and no block admitted before it.

        ``blocks`` are (V_k, 3) arrays (one cell's vertices each), in the
        order of the greedy rule, i.e. ascending global ID; ``labels`` is
        one label per block.  Returns the boolean mask of the admitted
        blocks.  Results, stored points, labels and hash order equal those
        of testing each block with :meth:`query_labels_near` and inserting
        it when nothing was found.

        Block ``k`` conflicts with a stored point or with block ``j`` when
        one of the pairs :func:`inter_label_pairs` finds over the blocks and
        the stored points near them links the two; the same squared
        distance :func:`subgrid_query` compares decides.  Walking the
        block-block conflicts by their later block rejects ``k`` exactly
        when an admitted ``j < k`` conflicts with it, because every conflict
        of ``j`` with an earlier block is walked before ``j``'s own.
        """
        self._check_radius(radius)
        n_blocks = len(blocks)
        counts = np.array([len(b) for b in blocks], dtype=np.intp)
        if not counts.sum():
            return np.ones(n_blocks, dtype=bool)
        points = np.concatenate(blocks).astype(np.float64, copy=False)
        # Stored points that can pair with a block point; the box is padded
        # by twice the radius so rounding cannot drop a pair at the radius.
        stored = self._points
        pad = 2.0 * radius
        inside = (stored >= points.min(axis=0) - pad) \
            & (stored <= points.max(axis=0) + pad)
        near = stored[inside[:, 0] & inside[:, 1] & inside[:, 2]]
        # Stored points all carry label -1, so pairs among them are never
        # formed; block k's points carry k.
        owner = np.concatenate([
            np.full(len(near), -1, dtype=np.intp),
            np.repeat(np.arange(n_blocks, dtype=np.intp), counts),
        ])
        i, j = inter_label_pairs(np.concatenate([near, points]), owner, radius)
        get_telemetry().inc("overlap.pairs", len(i))
        # i < j and the owners ascend with the row, so owner[i] < owner[j].
        first, second = owner[i], owner[j]
        keep = np.ones(n_blocks, dtype=bool)
        keep[second[first < 0]] = False
        # Distinct block-block conflicts, ordered by the later block.
        inner = first >= 0
        ok = keep.tolist()
        for edge in np.unique(second[inner] * n_blocks + first[inner]).tolist():
            later, earlier = divmod(edge, n_blocks)
            if ok[earlier]:
                ok[later] = False
        keep = np.array(ok, dtype=bool)
        if keep.any():
            rows = np.repeat(keep, counts)
            self.insert(points[rows],
                        np.repeat(np.asarray(labels, dtype=np.int64)[keep],
                                  counts[keep]))
        return keep

    # ------------------------------------------------------------------
    def _candidates(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stored-point and probe-point index pairs from the 27-bin ring.

        Returns ``(slot, probe)`` arrays of equal length: ``slot`` indexes
        the stored points, ``probe`` the query points.  Each stored point
        appears at most once per probe (its hash equals at most one of the
        probe's 27 distinct candidate hashes).
        """
        m = len(points)
        if m == 0 or self._n == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        cand = (self._hash_points(points)[:, None] + _OFFSET_HASH).reshape(-1)
        # Neighboring probes share most of their ring bins: search each
        # distinct hash once, in ascending (cache-local) order.
        uniq, inverse = np.unique(cand, return_inverse=True)
        start = np.searchsorted(self._hashes, uniq, side="left")
        found = self._hashes[np.minimum(start, self._n - 1)] == uniq
        counts = np.zeros(len(uniq), dtype=np.intp)
        counts[found] = (
            np.searchsorted(self._hashes, uniq[found], side="right")
            - start[found]
        )
        counts = counts[inverse]
        hit = np.flatnonzero(counts)
        if len(hit) == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        counts = counts[hit]
        # Ragged expansion of each matched run, loop-free.
        slot = self._order[_ragged(start[inverse[hit]], counts)]
        return slot, np.repeat(hit // len(_OFFSET_HASH), counts)

    def _check_radius(self, radius: float) -> None:
        if radius > self.cell_size * (1 + 1e-12):
            raise ValueError("query radius exceeds subgrid cell size")

    def query(
        self, point: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices and labels of stored points within ``radius`` of ``point``.

        ``radius`` must not exceed the subgrid cell size (one-ring search).
        """
        self._check_radius(radius)
        point = np.asarray(point, dtype=np.float64).reshape(1, 3)
        slot, probe = self._candidates(point)
        if len(slot) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        mask = subgrid_query(self._points, slot, point, probe, radius)
        hit = np.asarray(slot[mask], dtype=np.int64)
        return hit, self._labels[hit]

    def query_labels_near(self, points: np.ndarray, radius: float) -> set[int]:
        """Union of labels found within ``radius`` of any of the points.

        Fully batched: candidate generation, the distance filter and the
        label union are single array operations over every probe point.
        """
        self._check_radius(radius)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        slot, probe = self._candidates(points)
        if len(slot) == 0:
            return set()
        mask = subgrid_query(self._points, slot, points, probe, radius)
        hit = slot[mask]
        return set(np.unique(self._labels[hit]).tolist())
