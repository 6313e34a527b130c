"""Streaming step for the D3Q19 lattice.

Pull scheme: after collision, each node pulls the population travelling in
direction ``c_i`` from its upwind neighbor ``x - c_i``.  The base operation
is periodic; boundary handlers (bounce-back walls, inlets, outlets) then
overwrite the populations that wrapped around or crossed a solid boundary.

The periodic shift is performed with direct slice-slab copies into the
destination array: a shift by +/-1 along one axis decomposes into a bulk
slab plus a wrapped face, so a full D3Q19 stream is at most 8 assignments
per direction and allocates nothing (``np.roll`` would build a fresh
full-lattice temporary for each of the 19 directions).
"""

from __future__ import annotations

import numpy as np

from .lattice import D3Q19


def _axis_segments(shift: int):
    """(dst, src) slice pairs realizing a periodic shift along one axis.

    Shape-independent because D3Q19 shifts are only -1/0/+1: the bulk slab
    and the single wrapped face are expressible with relative slices.
    """
    if shift == 0:
        return ((slice(None), slice(None)),)
    if shift == 1:
        return (
            (slice(1, None), slice(None, -1)),
            (slice(0, 1), slice(-1, None)),
        )
    if shift == -1:
        return (
            (slice(None, -1), slice(1, None)),
            (slice(-1, None), slice(0, 1)),
        )
    raise ValueError(f"unsupported shift {shift}")


def _build_segments():
    segments = []
    for i in range(D3Q19.Q):
        cx, cy, cz = (int(v) for v in D3Q19.c[i])
        per_dir = []
        for sx_dst, sx_src in _axis_segments(cx):
            for sy_dst, sy_src in _axis_segments(cy):
                for sz_dst, sz_src in _axis_segments(cz):
                    per_dir.append(
                        ((sx_dst, sy_dst, sz_dst), (sx_src, sy_src, sz_src))
                    )
        segments.append(tuple(per_dir))
    return tuple(segments)


#: Per-direction (dst, src) slice tuples for the pull stream.
_STREAM_SEGMENTS = _build_segments()


def _padded_axis_slice(shift: int) -> slice:
    """Source slice selecting ``x - shift`` for interior x of a padded axis."""
    hi = -1 - shift
    return slice(1 - shift, hi if hi != 0 else None)


def _build_padded_segments():
    segments = []
    for i in range(D3Q19.Q):
        segments.append(
            tuple(_padded_axis_slice(int(v)) for v in D3Q19.c[i])
        )
    return tuple(segments)


#: Per-direction source slices for the halo-padded pull stream.
_PADDED_SEGMENTS = _build_padded_segments()

#: Interior region of a one-node-padded block.
_INTERIOR = (slice(1, -1), slice(1, -1), slice(1, -1))


def stream_pull(f_post: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic pull streaming: out_i(x) = f_post_i(x - c_i).

    Parameters
    ----------
    f_post:
        Post-collision distributions (19, nx, ny, nz).
    out:
        Optional destination array (must not alias ``f_post``).
    """
    if out is None:
        out = np.empty_like(f_post)
    if out is f_post:
        raise ValueError("streaming cannot be done in place")
    for i, segments in enumerate(_STREAM_SEGMENTS):
        src_i = f_post[i]
        dst_i = out[i]
        for dst, src in segments:
            dst_i[dst] = src_i[src]
    return out


def stream_pull_padded(f_post: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pull streaming for a one-node-padded local block (halo runtime).

    Writes only the *interior* of ``out``: ``out_i(x) = f_post_i(x - c_i)``
    for interior x, with sources drawn from the padded ``f_post`` (interior
    plus halo rim).  No periodic wrap is applied — the halo exchange has
    already placed the wrapped/neighbor values in the rim — so each of the
    19 directions is a single precomputed slice-slab copy, the same
    mechanism (and allocation discipline) as :func:`stream_pull`.
    """
    if out is f_post:
        raise ValueError("streaming cannot be done in place")
    for i, src in enumerate(_PADDED_SEGMENTS):
        out[i][_INTERIOR] = f_post[i][src]
    return out


def padded_upwind_solid_masks(solid_padded: np.ndarray) -> np.ndarray:
    """Bounce-back masks for the interior of a one-node-padded block.

    ``solid_padded`` is the rank-local solid map including its halo rim
    (filled from the neighbors, or marked solid beyond a non-periodic
    domain edge).  Returns a boolean (19, lx+2, ly+2, lz+2) array shaped
    like the padded block and False on its rim: at an *interior* node
    ``x``, entry ``[i, x]`` is True when the pull source ``x - c_i`` is
    solid and ``x`` itself is fluid — exactly :func:`upwind_solid_masks`
    restricted to this block, since the halo carries the same values
    ``np.roll`` would wrap in.
    """
    masks = np.zeros((D3Q19.Q,) + solid_padded.shape, dtype=bool)
    interior = masks[(slice(None),) + _INTERIOR]
    for i in range(1, D3Q19.Q):
        interior[i] = solid_padded[_PADDED_SEGMENTS[i]]
    interior &= ~solid_padded[_INTERIOR][None]
    return masks


def upwind_solid_masks(solid: np.ndarray) -> np.ndarray:
    """Per-direction masks of nodes whose pull source is a solid node.

    Returns a boolean array (19, nx, ny, nz): entry ``[i, x]`` is True when
    ``x - c_i`` is solid, i.e. the population f_i(x) arriving at fluid node
    ``x`` must be supplied by the bounce-back rule instead of streaming.
    Rest direction (i = 0) is always False.
    """
    masks = np.zeros((D3Q19.Q,) + solid.shape, dtype=bool)
    for i in range(1, D3Q19.Q):
        cx, cy, cz = D3Q19.c[i]
        masks[i] = np.roll(solid, shift=(cx, cy, cz), axis=(0, 1, 2))
    masks &= ~solid[None]
    return masks
