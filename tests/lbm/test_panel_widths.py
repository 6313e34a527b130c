"""A lattice pass gives the same bits at any panel width, split or not.

Each GEMM block is one ``GEMM_COLS``-wide BLAS call wherever its panel
starts, and every other panel pass is elementwise, so ``PANEL`` (any
multiple of ``GEMM_COLS``) moves only the speed.  Each test here
monkeypatches ``PANEL`` to one GEMM block, two, and the module's own
width, with passes of two or more panels split or inline, and holds the
result to the module's width inline.
"""

import numpy as np
import pytest

from repro.lbm import D3Q19, collision, halves
from repro.lbm.collision import (
    GEMM_COLS,
    PANEL,
    CollisionScratch,
    _blocks,
    _moments_operator,
    _operators,
    collide_bgk,
    density,
    equilibrium,
    moments,
    velocity_from_moments,
)

#: Three panels and a ragged one at the module's width (39,270 nodes).
SHAPE = (33, 34, 35)
WIDTHS = [GEMM_COLS, 2 * GEMM_COLS, PANEL]
DTYPES = [np.float64, np.float32]
#: A lattice whose x-slab ``SLAB`` is ``SHAPE``: strided views.
BIG = (SHAPE[0] + 4,) + SHAPE[1:]
SLAB = (slice(None), slice(2, 2 + SHAPE[0]))


@pytest.fixture
def ways(monkeypatch):
    """``ways(run)``: ``run()`` at every width of :data:`WIDTHS`, inline
    and split, after the reference at the module's width inline; the
    reference and the list of results."""
    monkeypatch.setattr(halves, "SPLIT_PANELS", 2)

    def at(width, on):
        monkeypatch.setattr(collision, "PANEL", width)
        monkeypatch.setattr(halves, "_halves", 2 if on else 1)
        collision._panel_buffers.cache_clear()

    def run_all(run):
        at(PANEL, False)
        want = run()
        got = []
        for width in WIDTHS:
            for on in (False, True):
                at(width, on)
                got.append(run())
        return want, got

    yield run_all
    collision._panel_buffers.cache_clear()


def _assert_all_equal(want, got):
    assert all(np.array_equal(want, g) for g in got)


def _populations(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    f = D3Q19.w[:, None, None, None] * (
        1.0 + 0.05 * rng.standard_normal((D3Q19.Q,) + shape))
    return np.ascontiguousarray(f, dtype=dtype)


def _force(shape, kind, dtype, seed=1):
    if kind is None:
        return None
    rng = np.random.default_rng(seed)
    force = 1e-4 * rng.standard_normal((3,) + shape)
    if kind == "sparse":
        force[:, rng.random(shape) < 0.7] = 0.0
        # whole zero panels at every width, and a zero last block
        force.reshape(3, -1)[:, :PANEL] = 0.0
        force.reshape(3, -1)[:, -GEMM_COLS:] = 0.0
    return force.astype(dtype)


def _tau(shape, kind, dtype):
    if kind == "field":
        rng = np.random.default_rng(2)
        return (0.6 + 0.5 * rng.random(shape)).astype(dtype)
    return kind


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("tau", [0.8, 1.0, "field"])
@pytest.mark.parametrize("force", [None, "sparse", "dense"])
@pytest.mark.parametrize("aliased", [False, True])
def test_collide_is_the_same_bits_at_every_width(ways, dtype, tau, force,
                                                 aliased):
    force = _force(SHAPE, force, dtype)
    tau = _tau(SHAPE, tau, dtype)

    def run():
        f = _populations(SHAPE, dtype)
        out = f if aliased else np.empty_like(f)
        collide_bgk(f, tau, force, out=out,
                    scratch=CollisionScratch(SHAPE, dtype=dtype))
        return out

    _assert_all_equal(*ways(run))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cached", [False, True])
def test_collide_on_strided_slabs_is_the_same_bits_at_every_width(
        ways, dtype, cached):
    force = _force(BIG, "dense", dtype)[SLAB]
    tau = _tau(BIG, "field", dtype)[SLAB[1]]

    def run():
        f = _populations(BIG, dtype)
        rho, mom = moments(f)
        collide_bgk(f[SLAB], tau, force, out=f[SLAB],
                    moments_in=(rho[SLAB[1]], mom[SLAB]) if cached else None)
        return f

    _assert_all_equal(*ways(run))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(4, 5, 6), SHAPE])
def test_moments_and_density_are_the_same_bits_at_every_width(ways, dtype,
                                                              shape):
    f = _populations(shape, dtype)

    def rows():
        out = np.empty((4,) + shape, dtype=dtype)
        moments(f, out=out)
        return out

    _assert_all_equal(*ways(rows))
    _assert_all_equal(*ways(lambda: density(f)))
    _assert_all_equal(*ways(lambda: moments(f[:, 2:-2])[1]))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(4, 5, 6), SHAPE, (33, 34, 36)])
def test_equilibrium_is_the_same_bits_at_every_width(ways, dtype, shape):
    rng = np.random.default_rng(3)
    rho = (1.0 + 0.05 * rng.standard_normal(shape)).astype(dtype)
    u = (0.05 * rng.standard_normal((3,) + shape)).astype(dtype)
    _assert_all_equal(*ways(lambda: equilibrium(rho, u)))
    _assert_all_equal(*ways(lambda: equilibrium(1.0, u)))
    out = np.empty((D3Q19.Q + 2,) + shape, dtype=dtype)
    _assert_all_equal(*ways(lambda: equilibrium(rho, u, out=out[1:-1])
                            .copy()))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("into", ["new", "mom", "force"])
def test_velocity_is_the_same_bits_at_every_width(ways, dtype, into):
    rng = np.random.default_rng(4)
    rho = (1.0 + 0.1 * rng.standard_normal(SHAPE)).astype(dtype)
    mom = (0.01 * rng.standard_normal((3,) + SHAPE)).astype(dtype)
    force = (1e-4 * rng.standard_normal((3,) + SHAPE)).astype(dtype)

    def run():
        m, f = mom.copy(), force.copy()
        out = {"new": None, "mom": m, "force": f}[into]
        return velocity_from_moments(rho, m, f, out=out)

    _assert_all_equal(*ways(run))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", ["moments", "phi", "full"])
def test_batched_gemm_is_the_per_block_gemm(dtype, op):
    """One ``np.matmul`` over the stacked block views of a strided ``f``
    panel gives the bits of one call per block, also written into
    strided views: a NumPy that dispatched the stacked call differently
    would fail here."""
    rng = np.random.default_rng(5)
    n, k, lo = 5 * PANEL + 77, 6, 3 * GEMM_COLS
    a = {"moments": _moments_operator(dtype),
         "phi": _operators(np.dtype(dtype), 1.25, 0.375)[0],
         "full": _operators(np.dtype(dtype), 1.25, 0.375)[1]}[op]
    f2 = rng.standard_normal((D3Q19.Q, n)).astype(dtype)
    x = f2[:a.shape[1], lo:lo + k * GEMM_COLS]
    batched = np.zeros((a.shape[0], n), dtype=dtype)
    one_by_one = np.zeros_like(batched)
    window = slice(lo, lo + k * GEMM_COLS)
    np.matmul(a, _blocks(x), out=_blocks(batched[:, window]))
    for c in range(0, k * GEMM_COLS, GEMM_COLS):
        np.matmul(a, x[:, c:c + GEMM_COLS],
                  out=one_by_one[:, lo + c:lo + c + GEMM_COLS])
    assert np.array_equal(batched, one_by_one)
    assert not batched[:, :lo].any() and not batched[:, window.stop:].any()
