"""The incremental stencil builder against a from-scratch build.

:class:`~repro.ibm.coupling.StencilBuilder` keeps each marker's base cell
between steps and rewrites only the rows of the flat-index buffer (and
the edge flags) whose base cell moved.  At every step its arrays must be
``array_equal`` to what :func:`~repro.ibm.coupling.make_stencil` — and
the per-axis, three-operand-einsum body both replaced — derive from the
positions alone.
"""

import numpy as np
import pytest

from repro.ibm import make_stencil
from repro.ibm.coupling import INDEX_DTYPE, StencilBuilder
from repro.ibm.kernels import KERNELS
from repro.lbm import Grid
from repro.telemetry import Telemetry, active

from .reference_bodies import reference_stencil
from .runtime_cells import add_cells, runtime_with_cells

SHAPE = (9, 11, 13)


def _buffers(n, kernel):
    s = KERNELS[kernel].support
    return np.empty((n, s, s, s)), np.empty(n * s**3, dtype=INDEX_DTYPE)


def _assert_equal_to_scratch(stencil, positions, kernel, mode):
    want = make_stencil(positions, SHAPE, kernel, mode)
    assert np.array_equal(stencil.w, want.w)
    assert np.array_equal(stencil.flat_indices(), want.flat_indices())
    assert stencil.n_clipped == want.n_clipped
    w, flat, n_clipped = reference_stencil(
        positions, SHAPE, KERNELS[kernel], mode
    )
    assert np.array_equal(want.w, w)
    assert np.array_equal(want.flat_indices().reshape(flat.shape), flat)
    assert want.n_clipped == n_clipped
    assert want.flat_indices().dtype == INDEX_DTYPE


@pytest.mark.parametrize("mode", ["clip", "wrap"])
@pytest.mark.parametrize("kernel", ["cosine4", "linear2"])
def test_builder_equals_from_scratch_every_step(kernel, mode, rng):
    """A drifting cloud that straddles every lattice face: markers cross
    cell boundaries and enter and leave the edge rows as it moves."""
    n = 400
    pos = rng.uniform(-2.5, np.array(SHAPE) + 1.5, size=(n, 3))
    builder = StencilBuilder(SHAPE, kernel, mode)
    w, flat = _buffers(n, kernel)
    clipped_per_step, reindexed = [], []
    for _ in range(40):
        stencil = builder.build(pos, w, flat)
        _assert_equal_to_scratch(stencil, pos, kernel, mode)
        # The carried edge flags give the rows whose cell left the box.
        cell = np.floor(pos)
        outside = ((cell < 0) | (cell > np.array(SHAPE) - 1)).any(axis=1)
        assert np.array_equal(builder.outside_rows(), np.flatnonzero(outside))
        clipped_per_step.append(stencil.n_clipped)
        reindexed.append(builder.rows_reindexed)
        pos = pos + rng.normal(0.0, 0.08, size=pos.shape) + 0.02
    assert reindexed[0] == n
    # Some markers change cell every step, never all of them.
    assert all(0 < r < n // 2 for r in reindexed[1:])
    if mode == "clip":
        assert len(set(clipped_per_step)) > 1  # markers entered / left the edge
    else:
        assert clipped_per_step == [0] * len(clipped_per_step)


def test_unmoved_markers_reindex_nothing(rng):
    pos = rng.uniform(2.0, 6.0, size=(50, 3))
    builder = StencilBuilder(SHAPE, "cosine4", "clip")
    w, flat = _buffers(50, "cosine4")
    builder.build(pos, w, flat)
    # Inside the same cells: new weights, no row rewritten.
    moved = np.floor(pos) + 0.5 * (pos - np.floor(pos))
    stencil = builder.build(moved, w, flat)
    assert builder.rows_reindexed == 0
    _assert_equal_to_scratch(stencil, moved, "cosine4", "clip")


def test_marker_count_change_and_reset_rewrite_every_row(rng):
    builder = StencilBuilder(SHAPE, "cosine4", "clip")
    pos = rng.uniform(0.0, 8.0, size=(30, 3))
    builder.build(pos, *_buffers(30, "cosine4"))
    # A different population in fresh buffers: nothing carried applies.
    pos = rng.uniform(0.0, 8.0, size=(45, 3))
    w, flat = _buffers(45, "cosine4")
    flat[:] = -1
    stencil = builder.build(pos, w, flat)
    assert builder.rows_reindexed == 45
    _assert_equal_to_scratch(stencil, pos, "cosine4", "clip")
    # Same count, but the caller swapped the flat buffer: reset().
    w, flat = _buffers(45, "cosine4")
    flat[:] = -1
    builder.reset()
    stencil = builder.build(pos, w, flat)
    assert builder.rows_reindexed == 45
    _assert_equal_to_scratch(stencil, pos, "cosine4", "clip")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="boundary mode"):
        StencilBuilder(SHAPE, "cosine4", "reflect")
    with pytest.raises(ValueError, match="boundary mode"):
        make_stencil(np.zeros((1, 3)), SHAPE, "cosine4", "reflect")


def test_coupler_counts_reindexed_rows_and_survives_resize(rng):
    g = Grid(SHAPE, tau=0.9, spacing=1e-6)
    runtime, manager, pos = runtime_with_cells(
        g, rng.uniform(2e-6, 7e-6, size=(2, 3))
    )
    n = len(pos)
    tel = Telemetry()
    with active(tel):
        runtime.begin_step(pos)
        runtime.begin_step(pos + 1e-9)
        assert n <= tel.counter("ibm.stencil.rows_reindexed").value < 2 * n
        add_cells(manager, rng.uniform(2e-6, 7e-6, size=(1, 3)))
        runtime.sync_population(manager)
        bigger = manager.packed_vertices()[0]
        runtime.begin_step(bigger)
    assert len(bigger) > n
    _assert_equal_to_scratch(runtime._stencil, bigger / 1e-6, "cosine4", "wrap")
