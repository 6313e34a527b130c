"""Background uniform subgrid for neighbor queries (Section 2.4.2).

The paper's overlap-removal algorithm "detects overlaps by identifying
nearby cells at each vertex of the tested cell, using a background uniform
subgrid".  :class:`UniformSubgrid` is that structure: points are binned
into cubic cells of the query cutoff size, so a radius query touches only
the 27 surrounding bins.

The index is CSR-style over sorted bin arrays rather than a dict of
Python lists: per-axis bin coordinates are compressed with ``np.unique``
(which also sidesteps integer overflow when tiny cell sizes produce huge
raw bin coordinates), linearized, and stably argsorted into one
``order`` array with per-bin start offsets.  Queries — including the
batched :meth:`query_labels_near` over thousands of probe points — run as
pure array operations with zero per-point Python work.  ``insert`` only
appends and caches the new points' bin keys; the sort index is rebuilt
lazily on the next query, so interleaved insert/query patterns (tile
stamping, overlap removal) pay one incremental re-sort per flush instead
of per-point dictionary churn.
"""

from __future__ import annotations

import numpy as np

#: The 27 neighbor-bin offsets of a one-ring search, shape (27, 3).
_NEIGHBOR_OFFSETS = np.stack(
    np.meshgrid(*([np.arange(-1, 2)] * 3), indexing="ij"), axis=-1
).reshape(-1, 3)


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
        self._points = np.empty((0, 3), dtype=np.float64)
        self._labels = np.empty(0, dtype=np.int64)
        #: Per-point 3D bin keys, computed once at insert time.
        self._keys = np.empty((0, 3), dtype=np.int64)
        #: Number of points covered by the current CSR index.
        self._n_indexed = 0
        # CSR index state (valid when _n_indexed == len(self._points)):
        self._axis_coords: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * 3
        self._bin_lin = np.empty(0, dtype=np.int64)  # sorted unique bin ids
        self._bin_start = np.empty(0, dtype=np.intp)
        self._bin_count = np.empty(0, dtype=np.intp)
        self._order = np.empty(0, dtype=np.intp)  # point index, bin-sorted

    def __len__(self) -> int:
        return len(self._points)

    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray, labels: np.ndarray | int) -> None:
        """Insert points with integer labels (e.g. owning cell global IDs)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), len(points))
        self._points = np.vstack([self._points, points])
        self._labels = np.concatenate([self._labels, labels])
        keys = np.floor(points / self.cell_size).astype(np.int64)
        self._keys = np.vstack([self._keys, keys])
        # The CSR index is now stale; rebuilt lazily by the next query.

    def _rebuild(self) -> None:
        """(Re)build the CSR bin index over every stored point."""
        n = len(self._points)
        if self._n_indexed == n:
            return
        # Per-axis coordinate compression: raw bin coordinates can be huge
        # for tiny cell sizes, so linearize compressed ordinals instead.
        inv = []
        dims = []
        for d in range(3):
            uniq, inv_d = np.unique(self._keys[:, d], return_inverse=True)
            self._axis_coords[d] = uniq
            inv.append(inv_d.astype(np.int64))
            dims.append(len(uniq))
        lin = (inv[0] * dims[1] + inv[1]) * dims[2] + inv[2]
        order = np.argsort(lin, kind="stable")
        sorted_lin = lin[order]
        if n:
            is_start = np.empty(n, dtype=bool)
            is_start[0] = True
            np.not_equal(sorted_lin[1:], sorted_lin[:-1], out=is_start[1:])
            starts = np.flatnonzero(is_start)
        else:
            starts = np.empty(0, dtype=np.intp)
        self._order = order
        self._bin_lin = sorted_lin[starts]
        self._bin_start = starts.astype(np.intp)
        self._bin_count = np.diff(np.concatenate([starts, [n]])).astype(np.intp)
        self._n_indexed = n

    # ------------------------------------------------------------------
    def _candidates(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stored-point and probe-point index pairs from the 27-bin ring.

        Returns ``(slot, probe)`` arrays of equal length: ``slot`` indexes
        the stored points, ``probe`` the query points.  Each stored point
        appears at most once per probe (bins partition the points and the
        27 candidate bins of one probe are distinct).
        """
        self._rebuild()
        m = len(points)
        if m == 0 or len(self._points) == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        probe_keys = np.floor(points / self.cell_size).astype(np.int64)
        # (M, 27, 3) candidate bin keys, flattened to (M*27, 3).
        cand = (probe_keys[:, None, :] + _NEIGHBOR_OFFSETS[None, :, :]).reshape(
            -1, 3
        )
        probe = np.repeat(np.arange(m, dtype=np.intp), len(_NEIGHBOR_OFFSETS))
        # Per-axis compressed lookup; bins absent on any axis cannot match.
        valid = np.ones(len(cand), dtype=bool)
        comp = np.empty((len(cand), 3), dtype=np.int64)
        for d in range(3):
            uniq = self._axis_coords[d]
            pos = np.searchsorted(uniq, cand[:, d])
            pos_c = np.minimum(pos, len(uniq) - 1)
            valid &= uniq[pos_c] == cand[:, d]
            comp[:, d] = pos_c
        dims = [len(self._axis_coords[d]) for d in range(3)]
        lin = (comp[:, 0] * dims[1] + comp[:, 1]) * dims[2] + comp[:, 2]
        bpos = np.searchsorted(self._bin_lin, lin[valid])
        bpos_c = np.minimum(bpos, len(self._bin_lin) - 1)
        hit = self._bin_lin[bpos_c] == lin[valid]
        bins = bpos_c[hit]
        probe = probe[valid][hit]
        # Ragged expansion of each matched bin's CSR run, loop-free.
        counts = self._bin_count[bins]
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        run_start = np.repeat(self._bin_start[bins], counts)
        within = np.arange(total, dtype=np.intp) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slot = self._order[run_start + within]
        return slot, np.repeat(probe, counts)

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
