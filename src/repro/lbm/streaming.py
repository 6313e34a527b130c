"""Streaming step for the D3Q19 lattice.

Pull scheme: after collision, each node pulls the population travelling in
direction ``c_i`` from its upwind neighbor ``x - c_i``.  The base operation
is periodic; boundary handlers (bounce-back walls, inlets, outlets) then
overwrite the populations that wrapped around or crossed a solid boundary.

Flat shift plus seams
---------------------
In a C-ordered population of shape ``(nx, ny, nz)`` the upwind node of
every node that does not wrap sits a fixed distance back in the flat
array, ``s_i = c_x ny nz + c_y nz + c_z``, so the whole bulk of a
direction is one shift of the flattened population: one slice
assignment.  The nodes whose upwind neighbor wraps around the box (the
*seams*: at most three faces per direction, one per nonzero component
of ``c_i``) get a wrong value from that shift and are rewritten from
their periodic sources afterwards.

The stream runs in place (``stream_pull(f, out=f)``): the seams'
sources are copied out before the shift and written back after it.
NumPy performs an overlapping one-dimensional assignment as if from a
copy, by walking against the direction of the shift rather than through
a temporary, so the in-place stream allocates only the seam copies.
Out of place the same body copies straight across.  Only copies are
involved: the result is the same bits either way, and the same as
``np.roll`` per direction.

A lattice of at least ``halves.SPLIT_PANELS`` collide panels streams in
two halves, one on a helper thread (:mod:`repro.lbm.halves`): each half
takes every other direction.  A direction's shift and seams touch only
its own population row, so the halves never write the same memory.
"""

from __future__ import annotations

import numpy as np

from .collision import PANEL
from .halves import run_halves, split_column
from .lattice import D3Q19


def _axis_segments(shift: int):
    """(dst, src) slice pairs realizing a periodic shift along one axis.

    Shape-independent because D3Q19 shifts are only -1/0/+1: the bulk slab
    and the single wrapped face are expressible with relative slices.
    The bulk pair comes first.
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


def _build_seams():
    seams = []
    for i in range(D3Q19.Q):
        cx, cy, cz = (int(v) for v in D3Q19.c[i])
        per_dir = [
            ((sx_dst, sy_dst, sz_dst), (sx_src, sy_src, sz_src))
            for sx_dst, sx_src in _axis_segments(cx)
            for sy_dst, sy_src in _axis_segments(cy)
            for sz_dst, sz_src in _axis_segments(cz)
        ]
        # the first combination is the bulk, which the flat shift covers
        seams.append(tuple(per_dir[1:]))
    return tuple(seams)


#: Per-direction (dst, src) slice tuples of the wrapped seams.
_SEAMS = _build_seams()

#: Lattice velocities as Python ints, for the flat shifts.
_VELOCITIES = tuple(tuple(int(v) for v in c) for c in D3Q19.c)


def stream_pull(f_post: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic pull streaming: out_i(x) = f_post_i(x - c_i).

    Parameters
    ----------
    f_post:
        Post-collision distributions (19, nx, ny, nz), C-contiguous.
    out:
        Optional C-contiguous destination: ``f_post`` itself (stream in
        place) or an array that does not overlap it.
    """
    if out is None:
        out = np.empty_like(f_post)
    in_place = out is f_post
    if not in_place and np.may_share_memory(out, f_post):
        raise ValueError("out must be f_post itself or not overlap it")
    if not (f_post.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("streaming needs C-contiguous lattices")
    _, nx, ny, nz = f_post.shape
    n = nx * ny * nz

    def directions(first, step):
        for i in range(first, D3Q19.Q, step):
            cx, cy, cz = _VELOCITIES[i]
            src_i, dst_i = f_post[i], out[i]
            shift = (cx * ny + cy) * nz + cz
            sources = [src_i[src] for _, src in _SEAMS[i]]
            if in_place:
                sources = [values.copy() for values in sources]
            lo, hi = max(shift, 0), n + min(shift, 0)
            if lo < hi and not (in_place and shift == 0):
                dst_i.reshape(-1)[lo:hi] = (
                    src_i.reshape(-1)[lo - shift:hi - shift])
            for (dst, _), values in zip(_SEAMS[i], sources):
                dst_i[dst] = values

    if split_column(n, PANEL) is None:
        directions(0, 1)
    else:
        run_halves(lambda: directions(0, 2), lambda: directions(1, 2))
    return out


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


def stream_pull_padded(f_post: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pull streaming for a one-node-padded local block (halo runtime).

    Writes only the *interior* of ``out``: ``out_i(x) = f_post_i(x - c_i)``
    for interior x, with sources drawn from the padded ``f_post`` (interior
    plus halo rim).  No periodic wrap is applied — the halo exchange has
    already placed the wrapped/neighbor values in the rim — so each of the
    19 directions is a single precomputed slice-slab copy and nothing is
    allocated.
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
