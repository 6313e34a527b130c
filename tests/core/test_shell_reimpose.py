"""The ghost shell imposed once per fine sub-step, bitwise as before.

A coupled step reuses the previous step's θ = 1 shell state and skips
its θ = 0 impose when neither the coarse state at the face nodes nor the
fine lattice changed in between; gathers and scatters go row by row; and
the grid patches its cached moments from the columns the impose just
wrote.  None of it may change a value: the earlier step
(:class:`~tests.core.reference_bodies.ReferenceRefinedRegion`, whose
writes mark the whole lattice modified, so every cached read recomputes
in full) is the oracle, run through the same writes between steps.
"""

import numpy as np
import pytest

import repro.core.apr as apr_module
from repro.core import (
    APRConfig,
    APRSimulation,
    RefinedRegion,
    WindowSpec,
    tau_fine_from_coarse,
)
from repro.lbm import BounceBackWalls, Grid, LBMSolver
from repro.lbm.collision import moments
from repro.membrane import make_ctc
from repro.telemetry import Telemetry, active
from repro.units import UnitSystem

from .reference_bodies import ReferenceRefinedRegion


class _ReadingSolver(LBMSolver):
    """Reads its post-stream moments after every step, as the FSI
    stepper does, so that the writes until the next collide patch the
    grid's cache."""

    def step(self, n: int = 1) -> None:
        super().step(n)
        self.grid.moments()
        self.macroscopic()


def _perturb(grid, rng):
    vel = 0.01 * rng.standard_normal((3,) + grid.shape)
    grid.init_equilibrium(1.0 + 0.01 * rng.standard_normal(grid.shape), vel)
    grid.f *= 1.0 + 0.01 * rng.standard_normal(grid.f.shape)
    grid.mark_f_modified()


def _region(case, n, region_class):
    """(coarse, fine, region) for a walled or a periodic window."""
    rng = np.random.default_rng(11 + n)
    tau_c = 0.9
    if case == "periodic":
        cshape, w, i0, periodic = (5, 9, 4), (5, 3, 4), (0, 3, 0), (0, 2)
    else:
        cshape, w, i0, periodic = (9, 8, 10), (3, 2, 4), (2, 3, 4), ()
    fshape = tuple(n * w[d] if d in periodic else n * w[d] + 1 for d in range(3))
    cg = Grid(cshape, tau=tau_c, spacing=float(n))
    fg = Grid(fshape, tau=tau_fine_from_coarse(tau_c, n, 0.6),
              origin=np.array(i0, dtype=float) * n, spacing=1.0)
    walls = []
    if case == "walled":
        _, y, z = np.meshgrid(*[np.arange(s) for s in fshape], indexing="ij")
        r2 = (y - fshape[1] / 2) ** 2 + (z - fshape[2] / 2) ** 2
        fg.solid[:] = r2 > (0.4 * min(fshape[1:])) ** 2
        walls = [BounceBackWalls(fg.solid)]
    cg.force[:] = 1e-4 * rng.standard_normal(cg.force.shape)
    coarse, fine = _ReadingSolver(cg, []), _ReadingSolver(fg, walls)
    rr = region_class(coarse, fine, n, periodic_axes=periodic)
    _perturb(cg, rng)
    rr.initialize_fine_from_coarse()
    return coarse, fine, rr


def _snapshot(coarse, fine):
    out = []
    for solver in (coarse, fine):
        rho, mom = solver.grid.moments()
        out += [solver.grid.f.copy(), rho.copy(), mom.copy()]
    return out


def _writes(coarse, fine):
    """Writes between coarse steps, by the step they precede."""
    cg, fg = coarse.grid, fine.grid
    rng = np.random.default_rng(0)
    scale = 1.0 + 1e-4 * rng.standard_normal(cg.f.shape)
    bump = 1e-5 * rng.standard_normal(cg.force.shape)
    restored = fg.f * (1.0 + 1e-4 * rng.standard_normal(fg.f.shape))

    def coarse_write():
        cg.f *= scale
        cg.mark_f_modified()

    def force_change():
        cg.force += bump  # no version bump

    def restore_fine():
        fg.f[:] = restored
        fg.mark_f_modified()

    return {2: coarse_write, 4: force_change, 6: restore_fine}


def _run(case, n, region_class, steps=9):
    coarse, fine, rr = _region(case, n, region_class)
    writes = _writes(coarse, fine)
    snapshots = []
    for k in range(steps):
        if k in writes:
            writes[k]()
        rr.step()
        snapshots.append(_snapshot(coarse, fine))
    return snapshots


def _assert_same(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        for a, b in zip(g, w):
            assert np.array_equal(a, b), f"after coarse step {k + 1}"


@pytest.mark.parametrize("case,n", [("walled", 2), ("walled", 4), ("periodic", 2)])
def test_coupled_steps_match_the_earlier_step_bitwise(case, n):
    want = _run(case, n, ReferenceRefinedRegion)
    got = _run(case, n, RefinedRegion)
    _assert_same(got, want)


def _apr_run():
    """A window with a CTC, stepped, moved onto the CTC, stepped again."""
    dx_c, tau_c, rho, nu_bulk = 2e-6, 1.0, 1025.0, 4e-3 / 1025.0
    units = UnitSystem(dx_c, (tau_c - 0.5) / 3.0 * dx_c**2 / nu_bulk, rho)
    cg = Grid((24,) * 3, tau=tau_c, spacing=dx_c)
    _perturb(cg, np.random.default_rng(3))
    spec = WindowSpec(proper_side=14e-6, onramp_width=3e-6,
                      insertion_width=2e-6)
    cfg = APRConfig(window_spec=spec, refinement=2, nu_bulk=nu_bulk,
                    nu_window=1.2e-3 / rho, hematocrit=None, seed=0)
    sim = APRSimulation(cfg, LBMSolver(cg, []), np.full(3, 23e-6), units)
    # The one move is the explicit one below: one RBC diameter of
    # clearance would trigger a move on every step of this small window.
    sim.tracker.needs_move = lambda ctc, window: False
    ctc = make_ctc(sim.window.center, global_id=sim.cells.allocate_id(),
                   subdivisions=1)
    sim.add_ctc(ctc)
    snapshots = []
    for k in range(6):
        if k == 3:
            ctc.translate(np.array([2 * dx_c, 0.0, 0.0]))
            sim.move_window()
        sim.step(1)
        snapshots.append(_snapshot(sim.coarse, sim.fine.solver))
    return snapshots, len(sim.move_reports)


def test_window_move_matches_the_earlier_step_bitwise(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(apr_module, "RefinedRegion", ReferenceRefinedRegion)
        want, moves_want = _apr_run()
    with active(Telemetry()) as tel:
        got, moves = _apr_run()
    assert moves == moves_want >= 1
    _assert_same(got, want)
    counts = {name: c.value for name, c in tel.metrics.counters.items()}
    # 6 coarse steps of n = 2: every step after the first on a placement
    # skips its θ = 0 impose, but not the first one after the move.
    skipped = counts["refinement.shell_reimposes_skipped"]
    assert skipped == 6 - 1 - moves
    assert counts["refinement.shell_imposes"] == 6 * 3 - skipped


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_patched_moments_come_from_the_stored_values(dtype):
    """The impose rounds the shell it stores to the lattice dtype once
    and patches the fine lattice's cached moments from those values, so
    the cache is bitwise a full recompute of ``f``."""
    rng = np.random.default_rng(8)
    n, tau_c = 2, 0.9
    cg = Grid((10, 10, 10), tau=tau_c, spacing=float(n), dtype=dtype)
    fg = Grid((9, 9, 9), tau=tau_fine_from_coarse(tau_c, n, 0.7),
              origin=np.full(3, 3.0 * n), spacing=1.0, dtype=dtype)
    coarse, fine = LBMSolver(cg, []), LBMSolver(fg, [])
    rr = RefinedRegion(coarse, fine, n)
    _perturb(cg, rng)
    rr.initialize_fine_from_coarse()
    rr.step(1)
    for theta in (0.0, 0.5, 1.0):
        fg.moments()
        rr._impose_ghosts(theta)
        cached = fg.current_moments()
        assert cached is not None
        want_rho, want_mom = moments(fg.f)
        assert np.array_equal(cached[0], want_rho)
        assert np.array_equal(cached[1], want_mom)
