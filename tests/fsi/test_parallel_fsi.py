"""FSI runtime: bitwise identity with the reference step composition.

The stepper's cell side must reproduce the literal step composition —
manager ``total_forces`` + spread/interpolate on a stencil built from
scratch — bit for bit, in vertex trajectories and fluid populations,
over the hot-path bench configuration.  The reference builds each step's
stencil with the stateless :func:`make_stencil`, not the runtime's
carried :class:`StencilBuilder`, so a bug in the runtime's persistent
stencil buffers or its carried re-indexing cannot cancel out of the
comparison.
"""

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.ibm import (
    interpolate_with_stencil,
    make_stencil,
    spread_with_stencil,
)
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation
from repro.parallel import resolve_fsi_backend
from repro.telemetry import Telemetry, active
from repro.units import UnitSystem

#: A small seeded cell-laden periodic lattice (24³, six RBCs).
SHAPE = (24, 24, 24)
N_CELLS = 6
SUBDIVISIONS = 2
SEED = 7
N_STEPS = 40


def build_stepper(n_cells=N_CELLS) -> FSIStepper:
    """Seeded cell-laden periodic lattice."""
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    grid = Grid(SHAPE, tau=1.0, origin=np.zeros(3), spacing=dx)
    manager = CellManager()
    rng = np.random.default_rng(SEED)
    extent = dx * (np.asarray(SHAPE) - 1)
    for _ in range(n_cells):
        center = extent * (0.25 + 0.5 * rng.random(3))
        manager.add(
            make_rbc(
                center,
                global_id=manager.allocate_id(),
                rotation=random_rotation(rng),
                subdivisions=SUBDIVISIONS,
            )
        )
    return FSIStepper(
        grid,
        units,
        manager,
        mode="wrap",
        body_force=np.array([500.0, 0.0, 0.0]),
    )


def _reference_step(st: FSIStepper) -> None:
    """One step of the literal reference composition."""
    g = st.grid
    g.force[:] = st.body_force_lattice[:, None, None, None]
    forces, verts, _cells = st.cells.total_forces()
    forces_lat = forces * st.units.force_to_lattice(1.0)
    stencil = make_stencil((verts - g.origin) / g.spacing, g.shape,
                           st.runtime.kernel, st.mode)
    spread_with_stencil(forces_lat, stencil, g.force)
    st.solver.step()
    v_lat = interpolate_with_stencil(st.solver.macroscopic()[1], stencil)
    st.cells.update_vertices(v_lat * st.units.dx)
    st.cells.set_velocities(v_lat * (st.units.dx / st.units.dt))


def _trajectory(st: FSIStepper, n_steps: int, stepper=None, every: int = 8):
    """Step ``n_steps`` and return (vertex snapshots, final f)."""
    snaps = []
    step = stepper if stepper is not None else lambda: st.step(1)
    for k in range(n_steps):
        step()
        if (k + 1) % every == 0 or k == n_steps - 1:
            verts, _, _ = st.cells.packed_vertices()
            snaps.append(verts.copy())
    return snaps, st.grid.f.copy()


@pytest.fixture(scope="module")
def reference_trajectory():
    st = build_stepper()
    return _trajectory(st, N_STEPS, stepper=lambda: _reference_step(st))


def test_stepper_bitwise_equal_to_reference(reference_trajectory):
    ref_snaps, ref_f = reference_trajectory
    snaps, f = _trajectory(build_stepper(), N_STEPS)
    assert len(snaps) == len(ref_snaps)
    for got, want in zip(snaps, ref_snaps):
        assert np.array_equal(got, want)
    assert np.array_equal(f, ref_f)


def test_population_change_midrun_stays_exact():
    """Adding a cell mid-run (stencil buffers resized) stays bitwise
    equal to the same schedule under the reference composition."""

    def extra_cell(st):
        dx = st.units.dx
        extent = dx * (np.asarray(SHAPE) - 1)
        rng = np.random.default_rng(123)
        return make_rbc(
            extent * (0.3 + 0.4 * rng.random(3)),
            global_id=st.cells.allocate_id(),
            rotation=random_rotation(rng),
            subdivisions=SUBDIVISIONS,
        )

    ref = build_stepper()
    for _ in range(6):
        _reference_step(ref)
    ref.cells.add(extra_cell(ref))
    for _ in range(6):
        _reference_step(ref)

    st = build_stepper()
    st.step(6)
    st.cells.add(extra_cell(st))
    st.step(6)
    verts, _, _ = st.cells.packed_vertices()
    assert np.array_equal(verts, ref.cells.packed_vertices()[0])
    assert np.array_equal(st.grid.f, ref.grid.f)


def test_shrunk_population_steps_in_the_stencil_pool():
    """Removing cells keeps the pooled stencil buffers — the smaller
    population takes their leading rows — and adding one back reuses
    them; the steps stay bitwise equal to the reference composition."""
    ref = build_stepper()
    st = build_stepper()
    st.step(3)
    pool = st.runtime._flat_pool
    n_markers = len(pool)
    for sim, step in ((ref, lambda: _reference_step(ref)),
                      (st, st.step)):
        if sim is ref:
            for _ in range(3):
                step()
        for gid in (1, 4):
            sim.cells.remove(gid)
        for _ in range(3):
            step()
        sim.cells.add(make_rbc(
            np.full(3, 8e-6), global_id=sim.cells.allocate_id(),
            subdivisions=SUBDIVISIONS,
        ))
        for _ in range(3):
            step()
    rt = st.runtime
    assert rt._flat_pool is pool and len(rt._flat) < n_markers
    assert rt._flat.base is pool and rt._w.base is rt._w_pool
    verts, _, _ = st.cells.packed_vertices()
    assert np.array_equal(verts, ref.cells.packed_vertices()[0])
    assert np.array_equal(st.grid.f, ref.grid.f)


# ----------------------------------------------------------------------
# Telemetry: per-phase fsi/* timers and the stencil repair counter.


def test_fsi_phase_timers_present():
    tel = Telemetry()
    st = build_stepper()
    with active(tel):
        st.step(2)
    summary = tel.summary()
    for path in ("forces/fsi/forces", "spread/fsi/stencil",
                 "spread/fsi/spread", "advect/fsi/interp"):
        assert path in summary["phases"], f"missing phase {path}"
        assert summary["phases"][path]["count"] == 2
    assert "fsi.workers" not in summary["gauges"]


def test_reindexed_rows_counted():
    """The first step writes every marker row of the flat-index buffer
    once, later steps only repair."""
    tel = Telemetry()
    st = build_stepper()
    n_markers = len(st.cells.packed_vertices()[0])
    with active(tel):
        st.step(1)
        assert tel.counter("ibm.stencil.rows_reindexed").value == n_markers
        st.step(3)
    repaired = tel.counter("ibm.stencil.rows_reindexed").value - n_markers
    assert 0 <= repaired < n_markers // 2


def test_lattice_forces_are_the_sum_and_product_in_the_pool():
    """``(forces + wall) * scale`` into the runtime's pooled buffer, the
    wall forces given for all rows or for some: the bits of the two new
    arrays it replaces, the manager's forces kept."""
    st = build_stepper()
    rt = st.runtime
    forces, _, _ = rt.total_forces(st.cells)
    before = forces.copy()
    wall = np.random.default_rng(1).standard_normal(forces.shape) * 1e-12
    scale = st.units.force_to_lattice(1.0)
    every = np.arange(len(forces))
    with_wall = rt.lattice_forces(forces, scale, wall, every)
    assert np.array_equal(with_wall, (before + wall) * scale)
    assert np.shares_memory(with_wall, rt._forces_pool)
    some = every[::7]
    partial = np.zeros_like(wall)
    partial[some] = wall[some]
    assert np.array_equal(rt.lattice_forces(forces, scale, wall[some], some),
                          (before + partial) * scale)
    assert np.array_equal(rt.lattice_forces(forces, scale), before * scale)
    assert np.array_equal(forces, before)


def test_runtime_requires_begin_step():
    st = build_stepper()
    rt = st.runtime
    rt.sync_population(st.cells)
    with pytest.raises(RuntimeError):
        rt.spread(np.zeros((1, 3)), st.grid.force)
    with pytest.raises(RuntimeError):
        rt.interpolate(st.grid.force)


# ----------------------------------------------------------------------
# Backend resolution: the cell side has one executor.


def test_resolve_fsi_backend_defaults():
    assert resolve_fsi_backend(None, None) == ("serial", 1)
    assert resolve_fsi_backend("serial", 1) == ("serial", 1)


def test_resolve_fsi_backend_env(monkeypatch):
    """A leftover ``REPRO_PARALLEL_*`` pair (the names were removed) picks
    no backend for the cell side either."""
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    assert resolve_fsi_backend(None, None) == ("serial", 1)


def test_resolve_fsi_backend_rejects_unknown():
    for backend, workers in [("processes", None), ("processes", 2),
                             ("threads", None), ("mpi", None), (None, 2),
                             ("serial", 3)]:
        with pytest.raises(ValueError, match="FSI process pool was removed"):
            resolve_fsi_backend(backend, workers)
