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
candidate bin's run with a left/right ``searchsorted``.  The sequential
accept-then-insert loops of seeding and overlap removal therefore cost
O(N) per accepted cell instead of a full re-sort.

Results are exact.  Any point within ``radius <= cell_size`` of a probe
sits in one of the probe's 27 bins, so it is a candidate.  Two bins
sharing a hash only add candidates, and the exact distance filter of
:func:`subgrid_query` removes those.  The 27 offset hashes are distinct,
so the 27 candidate hashes of one probe are too, and each stored point
comes back at most once per probe.
"""

from __future__ import annotations

import numpy as np

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
        total = int(counts.sum())
        # Ragged expansion of each matched run, loop-free.
        run_start = np.repeat(start[inverse[hit]], counts)
        within = np.arange(total, dtype=np.intp) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slot = self._order[run_start + within]
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
