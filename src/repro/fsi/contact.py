"""Short-range intercellular contact forces.

Deformable-cell suspensions need a sub-grid repulsion to keep membranes
from interpenetrating where the IBM velocity field cannot resolve the
lubrication layer (standard practice in HARVEY-family FSI codes).  A
linear soft repulsion acts between vertex pairs of *different* cells
closer than a cutoff:

    F(r) = k_c (1 - r/r_c) r_hat      for r < r_c

Pairs are found on the background uniform subgrid of Section 2.4.2
(:func:`repro.fsi.subgrid.inter_label_pairs`, a self-join of the pooled
vertex array that never forms a same-cell pair).  Vertices move a small
fraction of the cutoff per step, so the pair search is not rerun every
step: :class:`ContactList` keeps the pairs found within a skin distance
beyond the cutoff and filters them exactly each step.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import get_telemetry
from .subgrid import inter_label_pairs, sq_norm

#: Verlet skin as a multiple of the contact cutoff: candidates are
#: collected out to ``(1 + SKIN_FACTOR) * cutoff`` and stay valid until a
#: vertex has moved ``SKIN_FACTOR * cutoff / 2``.
SKIN_FACTOR = 1.0

#: Reusable scratch arrays, keyed by role; the vertex count is stable
#: between membership changes, so the per-step hot path reallocates
#: nothing.  Callers fold the returned forces into their own accumulator
#: and never retain the buffer, which makes cross-call reuse safe.
_scratch: dict[str, np.ndarray] = {}


def _scratch_buf(key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    buf = _scratch.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = _scratch[key] = np.empty(shape, dtype=dtype)
    return buf


def contact_scatter(vertices, i, j, cutoff, stiffness, out):
    """Contact pair force compute + equal-and-opposite scatter.

    ``(i, j)`` are the active inter-cell vertex pairs of a
    :class:`ContactList`; ``out`` is the zeroed (N, 3) force accumulator,
    overwritten per component.
    """
    n = len(vertices)
    d = vertices[i] - vertices[j]
    r = np.linalg.norm(d, axis=1)
    r = np.maximum(r, 1e-12 * cutoff)
    mag = stiffness * (1.0 - r / cutoff)
    fij = (mag / r)[:, None] * d
    # One bincount over the stacked (i, j) index (a dense scatter).
    # Summation order per vertex: +fij contributions in pair order,
    # then -fij.
    m = len(i)
    idx = _scratch_buf("pair_idx", (2 * m,), np.int64)
    idx[:m] = i
    idx[m:] = j
    w = _scratch_buf("pair_w", (2 * m,))
    for axis in range(3):
        w[:m] = fij[:, axis]
        np.negative(fij[:, axis], out=w[m:])
        out[:, axis] = np.bincount(idx, weights=w, minlength=n)


class ContactList:
    """Inter-cell vertex pairs carried from step to step (a Verlet list).

    One pair search collects every inter-cell pair within ``cutoff +
    skin`` (the *candidates*, sorted by ``(i, j)``); each step keeps the
    candidates that pass the exact test ``r <= cutoff`` (the *active*
    pairs).  No vertex pair can come within ``cutoff`` without being a
    candidate until some vertex has moved more than ``skin / 2`` from
    where the search saw it, and that displacement is checked on every
    call, so the active pairs always equal a fresh search at ``cutoff``:
    same set, in ``(i, j)`` order — a function of the current positions
    alone, whatever the list's history.  The skin equals the cutoff
    (:data:`SKIN_FACTOR`).

    The candidates are rebuilt when ``key`` changes (the caller's token
    for "vertex numbering or cell membership changed"; the
    :class:`~repro.fsi.cell_manager.CellManager` passes its generation),
    when the vertex count or cutoff changes, or when a vertex left its
    half-skin ball.
    """

    def __init__(self) -> None:
        self._key: object = None
        self._cutoff = 0.0
        #: Vertex positions the candidates were collected at.
        self._built_at = np.empty((0, 3))
        self._i = self._j = np.empty(0, dtype=np.intp)

    def _build(self, vertices, cell_index, cutoff, key) -> None:
        reach = (1.0 + SKIN_FACTOR) * cutoff
        self._i, self._j = inter_label_pairs(vertices, cell_index, reach)
        self._built_at = vertices.copy()
        self._cutoff = cutoff
        self._key = key
        get_telemetry().inc("fsi.contact.rebuilds")

    def active_pairs(
        self, vertices: np.ndarray, cell_index: np.ndarray, cutoff: float,
        key: object = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays ``(i, j)``, ``i < j``, of the inter-cell vertex
        pairs with ``r <= cutoff`` at ``vertices``, sorted by ``(i, j)``."""
        stale = (
            key != self._key
            or cutoff != self._cutoff
            or vertices.shape != self._built_at.shape
        )
        if not stale:
            limit = 0.5 * SKIN_FACTOR * cutoff
            stale = sq_norm(vertices - self._built_at).max() > limit * limit
        if stale:
            self._build(vertices, cell_index, cutoff, key)
        i, j = self._i, self._j
        near = sq_norm(vertices[i] - vertices[j]) <= cutoff * cutoff
        tel = get_telemetry()
        tel.inc("fsi.contact.candidates", len(i))
        tel.inc("fsi.contact.pairs", int(np.count_nonzero(near)))
        return i[near], j[near]

    def forces(
        self, vertices: np.ndarray, cell_index: np.ndarray, cutoff: float,
        stiffness: float, key: object = None,
    ) -> np.ndarray:
        """Contact forces at ``vertices``; see :func:`contact_forces`."""
        n = len(vertices)
        forces = _scratch_buf("forces", (n, 3))
        forces.fill(0.0)
        if n == 0 or cutoff <= 0.0:
            return forces
        i, j = self.active_pairs(vertices, cell_index, cutoff, key)
        if len(i):
            contact_scatter(vertices, i, j, cutoff, stiffness, forces)
        return forces


def contact_forces(
    vertices: np.ndarray,
    cell_index: np.ndarray,
    cutoff: float,
    stiffness: float,
) -> np.ndarray:
    """Pairwise repulsive forces between vertices of different cells.

    The stateless entry (a :class:`ContactList` built for this one
    call); a population stepped through time keeps its list.

    Parameters
    ----------
    vertices:
        All cell vertices stacked, shape (N, 3) [m].
    cell_index:
        Owning cell ordinal per vertex, shape (N,).
    cutoff:
        Interaction range r_c [m].
    stiffness:
        Peak force k_c at contact [N].

    Returns
    -------
    (N, 3) forces; equal and opposite within each pair (momentum-free).
    Each vertex accumulates its pairs in ``(i, j)`` order.
    """
    return ContactList().forces(
        np.asarray(vertices, dtype=np.float64), np.asarray(cell_index),
        cutoff, stiffness,
    )
