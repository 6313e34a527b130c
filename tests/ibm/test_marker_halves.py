"""IBM marker passes split over the lattice halves give the inline bits.

Each test forces the rule both ways in one process, as
``tests/lbm/test_halves.py`` does: ``SPLIT_MARKERS`` is lowered so the
small populations here split, and ``halves._halves`` = 1 or 2 stands for
the process's CPU affinity.  The weights split by marker rows at a
``WEIGHT_CHUNK`` boundary, the interpolation by marker rows, the spread
by force component.
"""

import numpy as np
import pytest

from repro.ibm import coupling
from repro.ibm.coupling import (
    WEIGHT_CHUNK,
    _adjoint_matvec,
    _marker_weights,
    _rows_matvec,
    interpolate_with_stencil,
    make_stencil,
    spread_with_stencil,
)
from repro.ibm.kernels import KERNELS, DeltaKernel, cosine4
from repro.lbm import halves

from ..fsi.test_parallel_fsi import (
    N_STEPS,
    _reference_step,
    _trajectory,
    build_stepper,
)

SHAPE = (13, 11, 12)
#: Three whole weight chunks and a ragged fourth.
N_MARKERS = 3 * WEIGHT_CHUNK + 517
THRESHOLD = 2 * WEIGHT_CHUNK


@pytest.fixture
def split(monkeypatch):
    """``split(on)``: populations of ``THRESHOLD`` or more markers split
    (or not) from now."""
    monkeypatch.setattr(coupling, "SPLIT_MARKERS", THRESHOLD)

    def set_halves(on: bool) -> None:
        monkeypatch.setattr(halves, "_halves", 2 if on else 1)

    return set_halves


def _both(split, run):
    """``run()`` inline and split; both results."""
    split(False)
    inline = run()
    split(True)
    return inline, run()


def _positions(n, seed=0):
    """Markers over the whole box and past its edges."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, np.asarray(SHAPE) + 0.5, size=(n, 3))


def test_split_rule_follows_the_threshold_and_the_cpus(split):
    split(True)
    assert coupling._marker_split(THRESHOLD - 1) is None
    mid = coupling._marker_split(N_MARKERS, WEIGHT_CHUNK)
    assert mid == 2 * WEIGHT_CHUNK
    assert coupling._marker_split(THRESHOLD) == THRESHOLD // 2
    split(False)
    assert coupling._marker_split(10 * N_MARKERS) is None


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, N_MARKERS])
def test_weights_split_is_bitwise_inline(split, name, n):
    pos = _positions(n)
    kernel = KERNELS[name]
    (base_i, w_i), (base_s, w_s) = _both(
        split, lambda: tuple(a.copy() for a in _marker_weights(pos, kernel)))
    assert np.array_equal(base_i, base_s)
    assert np.array_equal(w_i, w_s)


@pytest.mark.parametrize("mode", ["clip", "wrap"])
@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, N_MARKERS])
def test_interpolation_split_is_bitwise_inline(split, mode, n):
    stencil = make_stencil(_positions(n), SHAPE, "cosine4", mode)
    u = np.random.default_rng(1).standard_normal((3,) + SHAPE)
    inline, halved = _both(split, lambda: interpolate_with_stencil(u, stencil))
    assert halved.shape == (n, 3) and halved.flags.c_contiguous
    assert np.array_equal(inline, halved)
    scalar = _both(split, lambda: interpolate_with_stencil(u[1], stencil))
    assert np.array_equal(scalar[0], scalar[1])
    assert np.array_equal(scalar[1], halved[:, 1])


@pytest.mark.parametrize("body", [(0.0, 0.0, 0.0), (3.7e-4, -1e-5, 2.5e-6)])
@pytest.mark.parametrize("mode", ["clip", "wrap"])
@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, N_MARKERS])
def test_spread_onto_a_body_force_is_bitwise_the_added_product(
        split, body, mode, n):
    """Written over whatever the field held, split or inline: the bits of
    ``S.T @ F`` added onto a field holding the body force."""
    stencil = make_stencil(_positions(n), SHAPE, "cosine4", mode)
    forces = np.random.default_rng(2).standard_normal((n, 3))
    body = np.asarray(body)
    want = np.empty((3,) + SHAPE)
    want[...] = body[:, None, None, None]
    want.reshape(3, -1)[...] += (stencil.matrix.T @ forces).T

    def run():
        field = np.full((3,) + SHAPE, np.nan)
        spread_with_stencil(forces, stencil, field, body)
        return field

    inline, halved = _both(split, run)
    assert np.array_equal(inline, want)
    assert np.array_equal(halved, want)


def test_spread_reads_column_major_forces_in_place(split):
    stencil = make_stencil(_positions(N_MARKERS), SHAPE, "cosine4", "wrap")
    forces = np.random.default_rng(3).standard_normal((N_MARKERS, 3))
    body = np.array([1e-3, 0.0, -2e-4])
    want = np.empty((3,) + SHAPE)
    spread_with_stencil(forces, stencil, want, body)
    split(True)
    got = np.empty((3,) + SHAPE)
    spread_with_stencil(np.asfortranarray(forces), stencil, got, body)
    assert np.array_equal(got, want)


def test_wrappers_are_the_public_products_bit_for_bit():
    """The in-place sparsetools wrappers against ``S @ x`` and
    ``S.T @ x``, so a SciPy that moves or changes them fails here."""
    stencil = make_stencil(_positions(N_MARKERS), SHAPE, "cosine4", "clip")
    matrix = stencil.matrix
    rng = np.random.default_rng(4)
    x = rng.standard_normal(matrix.shape[1])
    y = np.zeros(matrix.shape[0])
    lo = N_MARKERS // 3
    _rows_matvec(matrix, x, y, 0, lo)
    _rows_matvec(matrix, x, y, lo, N_MARKERS)
    assert np.array_equal(y, matrix @ x)
    v = rng.standard_normal(matrix.shape[0])
    acc = np.zeros(matrix.shape[1])
    _adjoint_matvec(matrix, v, acc)
    assert np.array_equal(acc, matrix.T @ v)


def test_error_in_the_helper_half_reaches_the_caller(split):
    """A kernel that fails only on the helper's rows: the split weight
    pass raises it on the calling thread, and the next pass runs."""
    pos = _positions(N_MARKERS)
    pos[-1] = np.nan
    split(True)

    def strict(r, out=None):
        if np.isnan(r).any():
            raise FloatingPointError("NaN marker")
        return cosine4(r, out)

    kernel = DeltaKernel("strict", strict, 4)
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="NaN marker"):
        _marker_weights(pos, kernel)
    _marker_weights(pos[:-1], kernel)


def test_cosine_in_place_is_the_where_formula():
    r = np.array([-2.5, -2.0, -1.3, 0.0, 0.7, 2.0, 2.0000001, np.inf,
                  -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        want = np.where(np.abs(r) <= 2.0,
                        0.25 * (1.0 + np.cos(0.5 * np.pi * r)), 0.0)
        out = np.full_like(r, -1.0)
        assert cosine4(r, out=out) is out
        got = cosine4(r)
    assert np.array_equal(out, want)
    assert np.array_equal(got, want)
    inside = np.linspace(-2.0, 2.0, 101)
    assert np.array_equal(cosine4(inside), np.where(
        np.abs(inside) <= 2.0, 0.25 * (1.0 + np.cos(0.5 * np.pi * inside)),
        0.0))


def test_stepper_bitwise_equal_to_reference_with_the_split_forced(
        monkeypatch):
    """The stepper with every marker pass split against the reference
    composition run inline."""
    monkeypatch.setattr(halves, "_halves", 1)
    ref_snaps, ref_f = _trajectory(
        (ref := build_stepper()), N_STEPS,
        stepper=lambda: _reference_step(ref))
    # Small chunks, so the weights of the 972 markers split as well.
    monkeypatch.setattr(coupling, "WEIGHT_CHUNK", 128)
    monkeypatch.setattr(coupling, "SPLIT_MARKERS", 1)
    monkeypatch.setattr(halves, "_halves", 2)
    snaps, f = _trajectory(build_stepper(), N_STEPS)
    assert len(snaps) == len(ref_snaps)
    for got, want in zip(snaps, ref_snaps):
        assert np.array_equal(got, want)
    assert np.array_equal(f, ref_f)


def test_split_passes_allocate_what_inline_ones_do(split):
    """The helper's half allocates no array: each pass's traced peak is
    the inline pass's, give or take the Python objects of the hand-off
    and, in the weights, the buffers NumPy's iterator takes for a
    broadcast operand (``getbufsize()`` elements each, at most two per
    call, freed on return).  The helper's pooled chunk buffer exists
    before the measurement; the spread allocates nothing either way."""
    import tracemalloc

    iterator_buffers = 2 * 8 * np.getbufsize()

    pos = _positions(N_MARKERS)
    kernel = KERNELS["cosine4"]
    w = np.empty((N_MARKERS, 4, 4, 4))
    stencil = make_stencil(pos, SHAPE, "cosine4", "clip")
    u = np.random.default_rng(5).standard_normal((3,) + SHAPE)
    forces = np.asfortranarray(
        np.random.default_rng(6).standard_normal((N_MARKERS, 3)))
    field = np.empty((3,) + SHAPE)
    body = np.array([1e-4, 0.0, 0.0])
    passes = {
        "weights": lambda: _marker_weights(pos, kernel, w),
        "interp": lambda: interpolate_with_stencil(u, stencil),
        "spread": lambda: spread_with_stencil(forces, stencil, field, body),
    }

    def peak(run):
        run()  # warm: scratch and the helper thread
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    for name, run in passes.items():
        inline, halved = _both(split, lambda: peak(run))
        slack = 4096 + (iterator_buffers if name == "weights" else 0)
        assert halved <= inline + slack, (name, inline, halved)
    assert _both(split, lambda: peak(passes["spread"]))[1] <= 4096
