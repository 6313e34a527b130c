"""The chunked weight evaluation equals the whole-population one bitwise.

``_marker_weights`` evaluates the kernel ``WEIGHT_CHUNK`` markers at a
time; the oracle (``reference_bodies.whole_population_weights``) is the
body it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ibm.coupling import WEIGHT_CHUNK, _marker_weights
from repro.ibm.kernels import KERNELS

from .reference_bodies import whole_population_weights

#: Marker counts on and around the chunk boundaries.
EDGE_COUNTS = [1, WEIGHT_CHUNK - 1, WEIGHT_CHUNK, WEIGHT_CHUNK + 1,
               2 * WEIGHT_CHUNK, 2 * WEIGHT_CHUNK + 3]


def _assert_same(positions, kernel):
    base_ref, w_ref = whole_population_weights(positions, kernel)
    base, w = _marker_weights(positions, kernel)
    np.testing.assert_array_equal(base, base_ref)
    assert w.shape == w_ref.shape
    assert np.array_equal(w, w_ref)
    w_out = np.full(w_ref.size, np.nan)
    _, w_into = _marker_weights(positions, kernel, w_out=w_out)
    assert np.shares_memory(w_into, w_out)
    assert np.array_equal(w_into, w_ref)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_weights_equal_whole_population_body(name):
    rng = np.random.default_rng(31)
    positions = rng.uniform(-3.0, 70.0, size=(10_007, 3))
    _assert_same(positions, KERNELS[name])


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(KERNELS)),
    n=st.sampled_from(EDGE_COUNTS) | st.integers(1, 3 * WEIGHT_CHUNK),
    seed=st.integers(0, 2**32 - 1),
    origin=st.floats(-1e4, 1e4, allow_nan=False),
    extent=st.sampled_from([1e-9, 1.0, 40.0, 1e3]),
)
def test_weights_equal_across_chunk_boundaries(name, n, seed, origin, extent):
    rng = np.random.default_rng(seed)
    positions = origin + extent * rng.random((n, 3))
    _assert_same(positions, KERNELS[name])


def test_integer_positions_and_single_marker():
    kernel = KERNELS["cosine4"]
    _assert_same(np.array([3.0, 4.0, 5.0]), kernel)
    _assert_same(np.arange(3 * 7, dtype=float).reshape(7, 3), kernel)
