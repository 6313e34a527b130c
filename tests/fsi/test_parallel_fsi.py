"""Parallel FSI runtime: backend matrix bitwise-exactness and lifecycle.

The acceptance bar for the executor-backed FSI step is strict: every
backend (``serial`` / ``processes``) must reproduce the
*pre-runtime* serial stepper bit-for-bit — vertex trajectories and fluid
populations — over the hot-path bench configuration.  The reference here
is the literal pre-PR step composition (manager ``total_forces`` +
coupler spread/interpolate), not the new runtime, so a determinism bug in
the sharding cannot cancel out of the comparison.
"""

import gc

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.ibm import IBMCoupler
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation
from repro.parallel import BACKENDS, ParallelFSIRuntime, resolve_fsi_backend
from repro.telemetry import Telemetry, active
from repro.units import UnitSystem

#: A small seeded cell-laden periodic lattice (24³, six RBCs).
SHAPE = (24, 24, 24)
N_CELLS = 6
SUBDIVISIONS = 2
SEED = 7
N_STEPS = 40


def build_stepper(backend=None, workers=None, n_cells=N_CELLS) -> FSIStepper:
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
        backend=backend,
        workers=workers,
    )


def _reference_coupler(st: FSIStepper) -> IBMCoupler:
    """The single-process IBM coupler the runtime is compared against."""
    return IBMCoupler(st.grid, kernel=st.kernel, mode=st.mode)


def _reference_step(st: FSIStepper, coupler: IBMCoupler) -> None:
    """One step of the literal pre-runtime serial composition."""
    g = st.grid
    g.force[:] = st.body_force_lattice[:, None, None, None]
    forces, verts, _cells = st.cells.total_forces()
    forces_lat = forces * st.units.force_to_lattice(1.0)
    coupler.begin_step(verts)
    coupler.spread_forces(verts, forces_lat)
    st.solver.step()
    u = st.solver.velocity()
    v_lat = coupler.interpolate_velocity(verts, u)
    coupler.end_step()
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
    st = build_stepper(backend="serial")
    coupler = _reference_coupler(st)
    snaps, f = _trajectory(st, N_STEPS,
                           stepper=lambda: _reference_step(st, coupler))
    st.close()
    return snaps, f


# ----------------------------------------------------------------------
# Backend matrix: bitwise identity with the pre-runtime serial stepper.


@pytest.mark.parametrize(
    "backend,workers",
    [("serial", None), ("processes", 2), ("processes", 3)],
)
def test_backend_matrix_bitwise_equal_to_reference(
    backend, workers, reference_trajectory
):
    ref_snaps, ref_f = reference_trajectory
    with build_stepper(backend=backend, workers=workers) as st:
        snaps, f = _trajectory(st, N_STEPS)
    assert len(snaps) == len(ref_snaps)
    for got, want in zip(snaps, ref_snaps):
        assert np.array_equal(got, want)
    assert np.array_equal(f, ref_f)


@pytest.mark.parametrize("backend", BACKENDS)
def test_population_change_midrun_stays_exact(backend, reference_trajectory):
    """Adding a cell mid-run (shared-memory remap path) stays bitwise
    equal to the same schedule under the reference composition."""
    del reference_trajectory  # schedule differs; reference rebuilt below

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

    ref = build_stepper(backend="serial")
    coupler = _reference_coupler(ref)
    for _ in range(6):
        _reference_step(ref, coupler)
    ref.cells.add(extra_cell(ref))
    for _ in range(6):
        _reference_step(ref, coupler)
    ref_verts, _, _ = ref.cells.packed_vertices()
    ref_verts = ref_verts.copy()
    ref_f = ref.grid.f.copy()
    ref.close()

    with build_stepper(backend=backend, workers=2) as st:
        st.step(6)
        st.cells.add(extra_cell(st))
        st.step(6)
        verts, _, _ = st.cells.packed_vertices()
        assert np.array_equal(verts, ref_verts)
        assert np.array_equal(st.grid.f, ref_f)


# ----------------------------------------------------------------------
# Telemetry: per-phase fsi/* timers and the worker gauge, every backend.


@pytest.mark.parametrize("backend", BACKENDS)
def test_fsi_phase_timers_present(backend):
    tel = Telemetry()
    with build_stepper(backend=backend, workers=2) as st:
        with active(tel):
            st.step(2)
        expected_workers = st.n_workers
    phases = tel.summary()["phases"]
    for path in ("forces/fsi/forces", "spread/fsi/stencil",
                 "spread/fsi/spread", "advect/fsi/interp"):
        assert path in phases, f"missing phase {path}"
        assert phases[path]["count"] == 2
    assert tel.gauge("fsi.workers").value == expected_workers


@pytest.mark.parametrize("backend", BACKENDS)
def test_reindexed_rows_counted_across_workers(backend):
    """Every worker carries its own chunk of the flat-index buffer: the
    first step writes every marker row once, later steps only repair."""
    tel = Telemetry()
    with build_stepper(backend=backend, workers=2) as st:
        n_markers = len(st.cells.packed_vertices()[0])
        with active(tel):
            st.step(1)
            assert tel.counter("ibm.stencil.rows_reindexed").value == n_markers
            st.step(3)
    repaired = tel.counter("ibm.stencil.rows_reindexed").value - n_markers
    assert 0 <= repaired < n_markers // 2


# ----------------------------------------------------------------------
# Worker-pool and shared-memory lifecycle.


def test_process_pool_teardown_and_reentry():
    for _ in range(2):  # re-entry: a fresh pool after a full teardown
        st = build_stepper(backend="processes", workers=2)
        st.step(1)
        rt = st.runtime
        names = [shm.name for shm in rt._segments]
        procs = list(rt._procs)
        assert names and procs
        st.close()
        from multiprocessing import shared_memory

        for p in procs:
            assert not p.is_alive()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def test_finalizer_cleans_up_without_close():
    """Dropping an unclosed stepper must not leak workers or segments."""
    st = build_stepper(backend="processes", workers=2)
    st.step(1)
    rt = st.runtime
    names = [shm.name for shm in rt._segments]
    procs = list(rt._procs)
    assert names and procs
    del rt, st
    gc.collect()
    from multiprocessing import shared_memory

    for p in procs:
        p.join(timeout=5.0)
        assert not p.is_alive()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_many_short_fsi_runs_leak_nothing(recwarn):
    """Campaign-style reuse: repeated short cell-laden runs in one
    process must tear down every pool and segment deterministically."""
    import warnings
    from multiprocessing import shared_memory

    all_names: list[str] = []
    all_procs: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for i in range(4):
            backend = "processes" if i % 2 == 0 else "serial"
            st = build_stepper(backend=backend, workers=2, n_cells=2)
            try:
                st.step(1)
                rt = st.runtime
                all_names.extend(shm.name for shm in rt._segments)
                all_procs.extend(rt._procs)
            finally:
                st.close()
        gc.collect()
    for p in all_procs:
        assert not p.is_alive()
    for name in all_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    leak_warnings = [
        w for w in recwarn.list if "leak" in str(w.message).lower()
    ]
    assert leak_warnings == []


def test_close_is_idempotent_and_stepper_recovers():
    st = build_stepper(backend="processes", workers=2)
    st.step(1)
    st.close()
    st.close()
    # Stepping again lazily builds a fresh runtime.
    st.step(1)
    st.close()


def test_runtime_requires_begin_step():
    st = build_stepper(backend="serial")
    rt = st.runtime
    rt.sync_population(st.cells)
    with pytest.raises(RuntimeError):
        rt.spread(np.zeros((1, 3)), st.grid.force)
    with pytest.raises(RuntimeError):
        rt.interpolate(st.solver.velocity())
    st.close()


# ----------------------------------------------------------------------
# Backend resolution and environment plumbing.


def test_resolve_fsi_backend_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
    backend, workers = resolve_fsi_backend(None, None)
    assert backend == "serial"
    assert workers == 1


def test_resolve_fsi_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    assert resolve_fsi_backend(None, None) == ("processes", 3)
    # Explicit arguments win over the environment.
    assert resolve_fsi_backend("serial", 5) == ("serial", 1)
    assert resolve_fsi_backend("processes", 2) == ("processes", 2)
    # No rank cap (the lattice resolver has one), explicit counts clamp.
    assert resolve_fsi_backend("processes", 64) == ("processes", 64)
    assert resolve_fsi_backend("processes", 0) == ("processes", 1)
    for bad in ("two", "0", "-3"):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS"):
            resolve_fsi_backend(None, None)


def test_resolve_fsi_backend_rejects_unknown(monkeypatch):
    for backend in ("mpi", "threads"):  # threads: a name that used to exist
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_fsi_backend(backend, None)
        with pytest.raises(ValueError, match="unknown backend"):
            build_stepper(backend=backend)
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "threads")
    with pytest.raises(ValueError, match="unknown backend"):
        build_stepper()


def test_env_backend_reaches_stepper(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
    with build_stepper() as st:
        assert st.backend == "processes"
        assert st.n_workers == 2
        st.step(1)
        assert st.runtime.backend == "processes"


def test_runtime_is_lazy_for_cell_free_steppers():
    dx = 0.65e-6
    units = UnitSystem(dx, 1e-6, 1025.0)
    g = Grid((8, 8, 8), tau=1.0, origin=np.zeros(3), spacing=dx)
    st = FSIStepper(g, units, CellManager(), mode="wrap",
                    backend="processes", workers=2)
    st.step(2)  # no cells: no pool should ever be created
    assert st._runtime is None
    st.close()


def test_runtime_context_manager():
    st = build_stepper(backend="serial")
    with ParallelFSIRuntime(st.grid, mode="wrap") as rt:
        rt.sync_population(st.cells)
    st.close()
