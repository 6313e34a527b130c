"""Streaming step and solid-upwind mask construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm import D3Q19, stream_pull, stream_pull_padded
from repro.lbm.streaming import upwind_solid_masks


def _rolled(f):
    out = np.empty_like(f)
    for i, c in enumerate(D3Q19.c):
        out[i] = np.roll(f[i], shift=tuple(int(v) for v in c), axis=(0, 1, 2))
    return out


def test_stream_moves_pulse_along_velocity(rng):
    shape = (6, 6, 6)
    f = np.zeros((19,) + shape)
    q = 1  # c = (1, 0, 0)
    f[q, 2, 3, 3] = 1.0
    out = stream_pull(f)
    assert out[q, 3, 3, 3] == 1.0
    assert out[q].sum() == 1.0


def test_stream_is_periodic(rng):
    shape = (4, 4, 4)
    f = np.zeros((19,) + shape)
    q = 2  # c = (-1, 0, 0)
    f[q, 0, 1, 1] = 1.0
    out = stream_pull(f)
    assert out[q, 3, 1, 1] == 1.0


def test_stream_conserves_mass(rng):
    f = rng.random((19, 5, 4, 3))
    out = stream_pull(f)
    assert np.isclose(out.sum(), f.sum())
    for q in range(19):
        assert np.isclose(out[q].sum(), f[q].sum())


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 5)] * 3),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_stream_equals_roll_and_out_of_place(shape, dtype, seed):
    """Every shift and seam geometry, down to axes of length 1 (all seam)
    and flat shifts of one element (the most overlapped)."""
    f = np.random.default_rng(seed).random((19,) + shape).astype(dtype)
    want = _rolled(f)
    assert np.array_equal(stream_pull(f), want)
    g = f.copy()
    assert stream_pull(g, out=g) is g
    assert np.array_equal(g, want)


def test_in_place_stream_allocates_less_than_a_population(rng):
    """The overlapping flat shift runs without a temporary: only the seam
    copies are allocated."""
    f = rng.random((19, 20, 24, 28))
    stream_pull(f, out=f)
    tracemalloc.start()
    try:
        stream_pull(f, out=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f[0].nbytes


def test_stream_rejects_overlapping_out():
    buf = np.zeros(19 * 27 + 1)
    f = buf[:-1].reshape(19, 3, 3, 3)
    with pytest.raises(ValueError):
        stream_pull(f, out=buf[1:].reshape(19, 3, 3, 3))
    with pytest.raises(ValueError):
        stream_pull(np.zeros((3, 3, 3, 19)).transpose(3, 0, 1, 2))


def test_stream_roundtrip_with_opposites(rng):
    """Streaming in direction i then opp(i) returns the original field."""
    f = rng.random((19, 5, 5, 5))
    once = stream_pull(f)
    swapped = once[D3Q19.opp]
    twice = stream_pull(swapped)
    assert np.allclose(twice[D3Q19.opp], f)


def test_stream_padded_matches_periodic_on_wrapped_halo(rng):
    """With halos filled by periodic wrap, the padded pull stream must
    reproduce the plain periodic stream on the interior."""
    shape = (5, 4, 3)
    f = rng.random((19,) + shape)
    ref = stream_pull(f)
    padded = np.zeros((19,) + tuple(s + 2 for s in shape))
    padded[:, 1:-1, 1:-1, 1:-1] = f
    # Fill the rim by periodic wrap (what the halo exchange does for a
    # single rank) using explicit edge copies.
    padded[:] = np.pad(f, ((0, 0), (1, 1), (1, 1), (1, 1)), mode="wrap")
    out = np.zeros_like(padded)
    stream_pull_padded(padded, out=out)
    assert np.array_equal(out[:, 1:-1, 1:-1, 1:-1], ref)


def test_stream_padded_rejects_in_place():
    f = np.zeros((19, 4, 4, 4))
    with pytest.raises(ValueError):
        stream_pull_padded(f, out=f)


def test_stream_padded_pulls_from_rim(rng):
    """A population sitting in the halo rim must stream into the interior."""
    padded = np.zeros((19, 5, 5, 5))  # 3^3 interior
    q = 1  # c = (1, 0, 0): interior x=1 pulls from rim x=0
    padded[q, 0, 2, 2] = 1.0
    out = np.zeros_like(padded)
    stream_pull_padded(padded, out=out)
    assert out[q, 1, 2, 2] == 1.0
    assert out[q, 1:-1, 1:-1, 1:-1].sum() == 1.0


def test_upwind_masks_flag_fluid_next_to_solid():
    shape = (5, 5, 5)
    solid = np.zeros(shape, dtype=bool)
    solid[0, :, :] = True
    masks = upwind_solid_masks(solid)
    # Direction (1,0,0): pull source x-1; fluid at x=1 pulls from solid x=0.
    q = int(np.nonzero((D3Q19.c == (1, 0, 0)).all(axis=1))[0][0])
    assert masks[q, 1].all()
    assert not masks[q, 2:].any()


def test_upwind_masks_exclude_solid_nodes():
    shape = (4, 4, 4)
    solid = np.zeros(shape, dtype=bool)
    solid[1, 1, 1] = True
    masks = upwind_solid_masks(solid)
    assert not masks[:, 1, 1, 1].any()


def test_upwind_masks_rest_direction_empty():
    solid = np.ones((3, 3, 3), dtype=bool)
    solid[1, 1, 1] = False
    masks = upwind_solid_masks(solid)
    assert not masks[0].any()


def test_upwind_masks_fully_enclosed_node():
    """A fluid node surrounded by solid is flagged in all 18 directions."""
    solid = np.ones((3, 3, 3), dtype=bool)
    solid[1, 1, 1] = False
    masks = upwind_solid_masks(solid)
    assert masks[1:, 1, 1, 1].all()
