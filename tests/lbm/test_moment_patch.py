"""The solver's moment cache, patched where ``f`` was rewritten.

A writer that names the nodes it touched
(``Grid.mark_f_modified(nodes=...)``) costs the solver a recompute of
those columns only.  The patched cache must be *bitwise* what a full
recompute gives, or a coupled run would depend on who wrote ``f`` last.
"""

import numpy as np
import pytest

import repro.lbm.solver as solver_module
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
    rho, mom = (a.copy() for a in moments(f))
    some = rng.permutation(f[0].size)[: f[0].size // 3]
    for k, nodes in enumerate((_shell(shape), some, some[:1], some[:0])):
        # Shell of the larger lattice: full GEMM panels and a padded tail.
        columns = rng.random((19, len(nodes))).astype(dtype)
        f.reshape(19, -1)[:, nodes] = columns
        # Gathered from f, or handed over by the writer.
        patch_moments(f, nodes, rho, mom, columns if k % 2 else None)
        want_rho, want_mom = moments(f)
        assert np.array_equal(rho, want_rho)
        assert np.array_equal(mom, want_mom)
    assert len(_shell((21, 22, 23))) > GEMM_COLS


def _count_calls(monkeypatch):
    calls = {"moments": 0, "patch_moments": 0}
    for name in calls:
        real = getattr(solver_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counting)
    return calls


def test_solver_patches_named_nodes_and_recomputes_otherwise(monkeypatch, rng):
    g = Grid((8, 9, 10), tau=0.8)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(g.shape))
    solver = LBMSolver(g, [])
    solver.step(2)
    calls = _count_calls(monkeypatch)
    solver.cached_moments()
    assert calls == {"moments": 1, "patch_moments": 0}

    def rewrite(nodes):
        g.f.reshape(19, -1)[:, nodes] = rng.random((19, len(nodes)))

    def assert_cache_is_fresh():
        rho, mom = solver.cached_moments()
        want_rho, want_mom = moments(g.f)
        assert np.array_equal(rho, want_rho) and np.array_equal(mom, want_mom)

    # Two partial writes in a row: two patches, no full pass.
    for nodes in (_shell(g.shape), np.array([3, 77, 401])):
        rewrite(nodes)
        g.mark_f_modified(nodes)
    assert_cache_is_fresh()
    assert calls == {"moments": 1, "patch_moments": 2}
    # Unnamed write: full pass, as before.
    rewrite(np.arange(50))
    g.mark_f_modified()
    assert_cache_is_fresh()
    assert calls == {"moments": 2, "patch_moments": 2}
    # A partial write after a whole-lattice one the cache has not seen.
    solver.step()
    rewrite(np.array([5]))
    g.mark_f_modified(np.array([5]))
    assert_cache_is_fresh()
    assert calls == {"moments": 3, "patch_moments": 2}
    # A version bumped behind the log's back cannot be patched over.
    rewrite(np.array([9]))
    g.f_version += 1
    g.mark_f_modified(np.array([10]))
    assert_cache_is_fresh()
    assert calls == {"moments": 4, "patch_moments": 2}
    solver.invalidate_macroscopic()
    assert_cache_is_fresh()
    assert calls == {"moments": 5, "patch_moments": 2}


def test_node_set_written_again_is_patched_once_from_its_latest_columns(
    monkeypatch, rng
):
    g = Grid((8, 9, 10), tau=0.8)
    g.init_equilibrium(1.0 + 0.01 * rng.standard_normal(g.shape))
    solver = LBMSolver(g, [])
    solver.cached_moments()
    calls = _count_calls(monkeypatch)
    shell, few = _shell(g.shape), np.array([3, 77, 401])

    def write(nodes):
        columns = rng.random((19, len(nodes))).astype(g.f.dtype)
        g.f.reshape(19, -1)[:, nodes] = columns
        g.mark_f_modified(nodes, columns)

    for nodes in (shell, few, shell, shell):
        write(nodes)
    rho, mom = solver.cached_moments()
    want_rho, want_mom = moments(g.f)
    assert np.array_equal(rho, want_rho) and np.array_equal(mom, want_mom)
    assert calls == {"moments": 0, "patch_moments": 2}


def test_patch_log_is_bounded(rng):
    g = Grid((4, 4, 4), tau=0.8)
    solver = LBMSolver(g, [])
    solver.cached_moments()
    for k in range(40):
        g.f.reshape(19, -1)[:, k] = rng.random(19)
        g.mark_f_modified(np.array([k]))
    assert len(g._f_patches) <= g._MAX_F_PATCHES
    rho, mom = solver.cached_moments()
    want_rho, want_mom = moments(g.f)
    assert np.array_equal(rho, want_rho) and np.array_equal(mom, want_mom)


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
        self.cached_moments()
        self.velocity()
        if not self.patch:
            self.invalidate_macroscopic()


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
    """Ghost-shell imposes and the restriction name their nodes and hand
    over the columns they wrote; a coupled run must not be able to tell
    (same bits as full recomputes)."""
    calls = _count_calls(monkeypatch)
    patched = _coupled_run(5, patch=True)
    # Every coarse step after the first patches both lattices: the fine
    # one before each of its n = 2 collides (the skipped θ = 0 impose
    # leaves the previous θ = 1 impose to patch), the coarse one where the
    # restriction wrote.  The first step has moments cached only before
    # its second fine collide.
    assert calls["patch_moments"] == 1 + 4 * (2 + 1)
    patches = calls["patch_moments"]
    full = _coupled_run(5, patch=False)
    assert calls["patch_moments"] == patches
    assert np.array_equal(patched[0], full[0])
    assert np.array_equal(patched[1], full[1])
