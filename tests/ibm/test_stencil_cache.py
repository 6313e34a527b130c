"""Per-step IBM stencil cache: reuse, invalidation, and conservation.

The optimized coupling path computes the kernel stencil once per FSI step
(:meth:`ParallelFSIRuntime.begin_step`) — a CSR matrix S, markers x lattice
nodes — and shares it between the pre-collision spread (``S.T @ F``) and
the post-stream interpolation (``S @ u``).  These tests pin down the
properties the cache must preserve:

1. the cached path is numerically identical to the one-shot path
   (adjointness, conservation, constant-field reproduction),
2. the sparse products agree with the bincount / gather-einsum bodies
   they replaced,
3. the stencil is invalidated whenever markers move (advection),
4. the weights are computed exactly once per step.
"""

import contextlib
import warnings as _warnings

import numpy as np
import pytest

import repro.ibm.coupling as coupling
from repro.fsi import CellManager, FSIStepper
from repro.ibm import interpolate, make_stencil, spread
from repro.ibm.coupling import interpolate_with_stencil, spread_with_stencil
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.telemetry import Telemetry, active
from repro.units import UnitSystem

from .reference_bodies import bincount_spread, gather_einsum_interpolate
from .runtime_cells import runtime_with_cells


@contextlib.contextmanager
def warnings_none():
    """Fail the test if any warning is raised inside the block."""
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        yield


def _stepper(shape=(16, 16, 16), n_cells=1, force=(500.0, 0.0, 0.0)):
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    g = Grid(shape, tau=1.0, origin=np.zeros(3), spacing=dx)
    cm = CellManager()
    rng = np.random.default_rng(11)
    extent = dx * (np.array(shape) - 1)
    for _ in range(n_cells):
        center = extent * (0.35 + 0.3 * rng.random(3))
        cm.add(make_rbc(center, global_id=cm.allocate_id(), subdivisions=1))
    return FSIStepper(g, units, cm, mode="wrap", body_force=np.array(force)), units


# -- cached path == one-shot path ------------------------------------------


def test_cached_spread_matches_module_spread(rng):
    shape = (9, 9, 9)
    pos = rng.uniform(2.0, 6.0, size=(7, 3))
    G = rng.standard_normal((7, 3))
    ref = np.zeros((3,) + shape)
    spread(G, pos, ref, "cosine4")
    st = make_stencil(pos, shape, "cosine4")
    out = np.zeros((3,) + shape)
    spread_with_stencil(G, st, out)
    assert np.array_equal(out, ref)


def test_cached_spread_conserves_total_force(rng):
    """Sum of the spread force field equals the sum of marker forces."""
    g = Grid((10, 10, 10), tau=0.9, spacing=1e-6)
    rt, _, pos = runtime_with_cells(g, rng.uniform(2e-6, 7e-6, size=(3, 3)))
    G = rng.standard_normal(pos.shape)
    rt.begin_step(pos)
    rt.spread(G, g.force)
    assert np.allclose(g.force.sum(axis=(1, 2, 3)), G.sum(axis=0), atol=1e-13)


def test_cached_interpolate_constant_field_exact(rng):
    g = Grid((8, 8, 8), tau=0.9, spacing=1e-6)
    rt, _, pos = runtime_with_cells(g, rng.uniform(1.5e-6, 5.5e-6, size=(3, 3)))
    u = np.full((3, 8, 8, 8), -0.42)
    rt.begin_step(pos)
    v = rt.interpolate(u)
    assert v.shape == pos.shape
    assert np.allclose(v, -0.42)


def test_cached_adjoint_identity(rng):
    """<spread(G), u> == <G, interp(u)> through the shared stencil."""
    shape = (8, 8, 8)
    u = rng.standard_normal((3,) + shape)
    pos = rng.uniform(2.0, 5.5, size=(6, 3))
    G = rng.standard_normal((6, 3))
    st = make_stencil(pos, shape, "cosine4")
    out = np.zeros((3,) + shape)
    spread_with_stencil(G, st, out)
    lhs = float((out * u).sum())
    rhs = float((G * interpolate_with_stencil(u, st)).sum())
    assert np.isclose(lhs, rhs, rtol=1e-13)


def test_stencil_matches_one_shot_interpolate(rng):
    shape = (10, 10, 10)
    u = rng.standard_normal((3,) + shape)
    pos = rng.uniform(2.0, 7.0, size=(5, 3))
    st = make_stencil(pos, shape, "cosine4")
    assert np.array_equal(
        interpolate_with_stencil(u, st), interpolate(u, pos, "cosine4")
    )


# -- sparse products == the bincount / gather-einsum bodies ----------------


def _edge_hugging_markers(rng, shape, n=40):
    """Markers over the whole lattice, some with support off its edge."""
    return rng.uniform(-0.4, np.asarray(shape) - 0.6, size=(n, 3))


@pytest.mark.parametrize(
    "kernel,mode",
    [("cosine4", "clip"), ("cosine4", "wrap"),
     ("linear2", "clip"), ("linear2", "wrap")],
)
def test_csr_products_match_retained_bodies(rng, kernel, mode):
    shape = (9, 8, 7)
    st = make_stencil(_edge_hugging_markers(rng, shape), shape, kernel, mode)
    G = rng.standard_normal((st.n_markers, 3))
    u = rng.standard_normal((3,) + shape)

    want = np.zeros((3,) + shape)
    bincount_spread(G, st, want)
    got = np.zeros((3,) + shape)
    spread_with_stencil(G, st, got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    want = gather_einsum_interpolate(u, st)
    got = interpolate_with_stencil(u, st)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # Scalar fields take the same operator.
    want = np.zeros(shape)
    bincount_spread(G[:, :1], st, want)
    got = np.zeros(shape)
    spread_with_stencil(G[:, :1], st, got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.allclose(
        interpolate_with_stencil(u[0], st),
        gather_einsum_interpolate(u[0], st), rtol=0, atol=1e-13,
    )


def test_stencil_matrix_wraps_weights_without_copy(rng):
    shape = (8, 8, 8)
    st = make_stencil(rng.uniform(2.0, 5.0, size=(5, 3)), shape, "cosine4")
    assert np.shares_memory(st.matrix.data, st.w)
    assert st.matrix.shape == (5, 8 * 8 * 8)
    assert np.array_equal(np.diff(st.matrix.indptr), np.full(5, 4**3))


def test_spread_rejects_non_contiguous_field(rng):
    st = make_stencil(rng.uniform(2.0, 5.0, size=(3, 3)), (8, 8, 8))
    out = np.zeros((3, 8, 8, 16))[..., ::2]
    with pytest.raises(ValueError, match="contiguous"):
        spread_with_stencil(np.ones((3, 3)), st, out)


# -- cache identity and invalidation ---------------------------------------


def test_end_step_drops_stencil():
    g = Grid((8, 8, 8), tau=0.9, spacing=1e-6)
    rt, _, pos = runtime_with_cells(g, [(4e-6, 4e-6, 4e-6)])
    rt.begin_step(pos)
    rt.end_step()
    with pytest.raises(RuntimeError):
        rt.spread(np.zeros(pos.shape), g.force)
    with pytest.raises(RuntimeError):
        rt.interpolate(np.zeros((3, 8, 8, 8)))


def test_stencil_invalidated_after_advection():
    st, _ = _stepper()
    st.step(1)
    # The stepper must not leave a stale stencil behind once vertices move.
    assert st.runtime._stencil is None


def test_generation_bumps_on_insert_and_remove():
    cm = CellManager()
    g0 = cm.generation
    cell = make_rbc(np.zeros(3), global_id=cm.allocate_id(), subdivisions=1)
    cm.add(cell)
    g1 = cm.generation
    assert g1 != g0
    cm.remove(cell.global_id)
    assert cm.generation != g1


# -- weights computed exactly once per step --------------------------------


def test_exactly_one_weights_call_per_step(monkeypatch):
    # ``_marker_weights`` is the one weight evaluation of the shared
    # builder (``StencilBuilder.build`` and ``make_stencil`` alike).
    st, _ = _stepper()
    calls = []
    real = coupling._marker_weights

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(coupling, "_marker_weights", counting)
    n_steps = 3
    st.step(n_steps)
    assert len(calls) == n_steps


def test_fluid_only_step_builds_no_stencil(monkeypatch):
    st, _ = _stepper(n_cells=0)
    calls = []
    real = coupling._marker_weights

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(coupling, "_marker_weights", counting)
    st.step(2)
    assert calls == []


# -- clip observability -----------------------------------------------------


def test_clip_counter_and_warning():
    g = Grid((8, 8, 8), tau=0.9, spacing=1e-6)
    # A cell against the x=0 face: the cosine4 support of its markers
    # with x < 1 lattice spacing extends off-lattice.
    rt, _, pos = runtime_with_cells(g, [(1e-6, 4e-6, 4e-6)], mode="clip")
    n_clipped = int(np.count_nonzero(pos[:, 0] < 1e-6))
    assert 0 < n_clipped < len(pos)
    assert make_stencil(pos / 1e-6, g.shape, "cosine4", "clip").n_clipped \
        == n_clipped
    tel = Telemetry()
    with active(tel):
        with pytest.warns(RuntimeWarning, match="clip"):
            rt.begin_step(pos)
        assert tel.counter("ibm.clipped_markers").value == n_clipped
        # The warning is one-time per runtime; the counter keeps counting.
        rt.end_step()
        with warnings_none():
            rt.begin_step(pos)
        assert tel.counter("ibm.clipped_markers").value == 2 * n_clipped


def test_interior_markers_not_counted_as_clipped():
    g = Grid((12, 12, 12), tau=0.9, spacing=1e-6)
    rt, _, pos = runtime_with_cells(g, [(5e-6, 6e-6, 5.5e-6)], mode="clip")
    tel = Telemetry()
    with active(tel), warnings_none():
        rt.begin_step(pos)
    assert tel.counter("ibm.clipped_markers").value == 0
