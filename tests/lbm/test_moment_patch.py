"""The grid's moment cache, patched where ``f`` was rewritten.

A partial write through ``Grid.write_columns`` patches a current cache
from the columns it stored; any other write (``Grid.mark_f_modified``)
marks it stale, and the next read recomputes it in full.  The patched
cache must be *bitwise* what a full recompute gives, or a coupled run
would depend on who wrote ``f`` last.
"""

import numpy as np
import pytest

import repro.lbm.grid as grid_module
from repro.core import RefinedRegion, tau_fine_from_coarse
from repro.lbm import Grid, LBMSolver
from repro.lbm.collision import GEMM_COLS, moments, patch_moments


def _shell(shape):
    mask = np.zeros(shape, dtype=bool)
    for d in range(3):
        lo, hi = [slice(None)] * 3, [slice(None)] * 3
        lo[d], hi[d] = 0, shape[d] - 1
        mask[tuple(lo)] = mask[tuple(hi)] = True
    return np.flatnonzero(mask)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(7, 5, 6), (21, 22, 23)])
def test_patch_moments_bitwise_equals_full_recompute(shape, dtype, rng):
    f = rng.random((19,) + shape).astype(dtype)
    cache = np.empty((4,) + shape, dtype=dtype)
    moments(f, out=cache)
    some = rng.permutation(f[0].size)[: f[0].size // 3]
    for nodes in (_shell(shape), some, some[:1], some[:0]):
        # Shell of the larger lattice: full GEMM panels and a padded tail.
        columns = rng.random((19, len(nodes))).astype(dtype)
        f.reshape(19, -1)[:, nodes] = columns
        patch_moments(cache, nodes, columns)
        want_rho, want_mom = moments(f)
        assert np.array_equal(cache[0], want_rho)
        assert np.array_equal(cache[1:], want_mom)
    assert len(_shell((21, 22, 23))) > GEMM_COLS


def _count_calls(monkeypatch):
    """Full recomputes (``form_moments``) and patches the grid makes."""
    calls = {"form_moments": 0, "patch_moments": 0}
    for name in calls:
        real = getattr(grid_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(grid_module, name, counting)
    return calls


def _assert_cache_is_fresh(g):
    rho, mom = g.moments()
    want_rho, want_mom = moments(g.f)
    assert np.array_equal(rho, want_rho) and np.array_equal(mom, want_mom)


def _write(g, nodes, rng):
    g.write_columns(nodes, rng.random((19, len(nodes))))


def test_solver_patches_named_nodes_and_recomputes_otherwise(monkeypatch, rng):
    g = Grid((8, 9, 10), tau=0.8)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(g.shape))
    solver = LBMSolver(g, [])
    solver.step(2)
    calls = _count_calls(monkeypatch)
    assert g.current_moments() is None
    g.moments()
    assert calls == {"form_moments": 1, "patch_moments": 0}

    # Two partial writes in a row: two patches, no full pass.
    for nodes in (_shell(g.shape), np.array([3, 77, 401])):
        _write(g, nodes, rng)
        assert g.current_moments() is not None
    _assert_cache_is_fresh(g)
    assert calls == {"form_moments": 1, "patch_moments": 2}
    # Any other write: stale, then one full pass.
    g.f.reshape(19, -1)[:, :50] = rng.random((19, 50))
    g.mark_f_modified()
    assert g.current_moments() is None
    _assert_cache_is_fresh(g)
    assert calls == {"form_moments": 2, "patch_moments": 2}
    # The collide hands the current cache over and the stream invalidates.
    solver.step()
    assert g.current_moments() is None
    _assert_cache_is_fresh(g)
    assert calls == {"form_moments": 3, "patch_moments": 2}


def test_node_set_written_again_is_patched_once_from_its_latest_columns(rng):
    """A node set written twice (and another in between) before a read
    leaves the cache equal to a full recompute of ``f``."""
    g = Grid((8, 9, 10), tau=0.8)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(g.shape))
    g.moments()
    shell, few = _shell(g.shape), np.array([3, 77, 401])
    for nodes in (shell, few, shell, shell):
        _write(g, nodes, rng)
    _assert_cache_is_fresh(g)


def test_whole_write_after_a_partial_one_invalidates(monkeypatch, rng):
    g = Grid((8, 9, 10), tau=0.8)
    g.moments()
    calls = _count_calls(monkeypatch)
    _write(g, _shell(g.shape), rng)
    g.f *= 1.0 + 1e-3 * rng.standard_normal(g.f.shape)
    g.mark_f_modified()
    # a partial write onto a stale cache patches nothing
    _write(g, np.array([5]), rng)
    assert g.current_moments() is None
    _assert_cache_is_fresh(g)
    assert calls == {"form_moments": 1, "patch_moments": 1}


def test_write_columns_without_a_cache_stores_and_bumps_the_version(rng):
    g = Grid((4, 5, 6), tau=0.8)
    version = g.f_version
    nodes = np.array([0, 7, 119])
    columns = rng.random((19, 3))
    g.write_columns(nodes, columns)
    assert g.f_version == version + 1
    assert np.array_equal(g.f.reshape(19, -1)[:, nodes],
                          columns.astype(g.dtype))
    assert g._moments is None and g.current_moments() is None


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_write_columns_casts_the_columns_once(dtype, rng):
    """float64 columns are rounded to the lattice dtype once, before they
    are stored; the patch reads the stored values, so the cache is
    bitwise a full recompute of ``f``."""
    g = Grid((8, 9, 10), tau=0.8, dtype=dtype)
    g.moments()
    nodes = _shell(g.shape)
    columns = 1.0 + 1e-3 * rng.standard_normal((19, len(nodes)))
    g.write_columns(nodes, columns)
    assert np.array_equal(g.f.reshape(19, -1)[:, nodes],
                          columns.astype(dtype))
    _assert_cache_is_fresh(g)


class _ReadingSolver(LBMSolver):
    """What the FSI stepper does after every fine step: read the
    post-stream moments, which the next collide then reuses (patched
    where the ghost shell was imposed in between), or, with
    ``patch=False``, recomputes."""

    def __init__(self, grid, patch: bool):
        super().__init__(grid, [])
        self.patch = patch

    def step(self, n: int = 1) -> None:
        super().step(n)
        self.grid.moments()
        self.macroscopic()
        if not self.patch:
            self.grid.mark_f_modified()


def _coupled_run(steps, patch: bool):
    n, tau_c = 2, 0.9
    cg = Grid((12, 12, 12), tau=tau_c, spacing=float(n))
    fg = Grid((9, 9, 9), tau=tau_fine_from_coarse(tau_c, n, 1.0),
              origin=np.full(3, 3.0 * n), spacing=1.0)
    rng = np.random.default_rng(5)
    cg.init_equilibrium(1.0, 0.02 * rng.standard_normal((3,) + cg.shape))
    coarse, fine = _ReadingSolver(cg, patch), _ReadingSolver(fg, patch)
    rr = RefinedRegion(coarse, fine, n)
    rr.initialize_fine_from_coarse()
    for _ in range(steps):
        rr.step()
    return cg.f.copy(), fg.f.copy()


def test_coupled_run_is_bitwise_unchanged_by_patching(monkeypatch):
    """Ghost-shell imposes and the restriction write through
    ``write_columns``; a coupled run must not be able to tell (same bits
    as full recomputes)."""
    calls = _count_calls(monkeypatch)
    patched = _coupled_run(5, patch=True)
    # Every coarse step patches both lattices: the fine one at its θ = 1/2
    # and θ = 1 imposes, the coarse one where the restriction wrote.  The
    # θ = 0 impose is skipped after the first step and on the first one
    # lands before the fine lattice has a cache.
    assert calls["patch_moments"] == 5 * (2 + 1)
    patches = calls["patch_moments"]
    full = _coupled_run(5, patch=False)
    assert calls["patch_moments"] == patches
    assert np.array_equal(patched[0], full[0])
    assert np.array_equal(patched[1], full[1])
