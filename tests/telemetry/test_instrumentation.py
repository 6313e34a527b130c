"""Telemetry wiring through the simulation hot paths.

The key guarantees: an installed live backend observes the documented
phases/counters/events, and the default NullTelemetry backend records
nothing *and leaves simulation results bit-identical* — instrumentation
must never perturb physics.
"""

import numpy as np
import pytest

from repro.core import APRConfig, APRSimulation, WindowSpec
from repro.core.apr import HEALTH_SAMPLE_INTERVAL
from repro.fsi import CellManager, FSIStepper
from repro.lbm import Grid, LBMSolver
from repro.membrane import make_rbc
from repro.telemetry import NullTelemetry, Telemetry, active
from repro.units import UnitSystem

RHO = 1025.0
NU_BULK = 4e-3 / RHO
NU_PLASMA = 1.2e-3 / RHO


def _fsi_stepper(shape=(12, 12, 12)):
    dx = 0.65e-6
    nu = NU_PLASMA
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, RHO)
    g = Grid(shape, tau=1.0, origin=np.zeros(3), spacing=dx)
    cm = CellManager()
    center = dx * (np.array(shape) - 1) / 2.0
    cm.add(make_rbc(center, global_id=cm.allocate_id(), subdivisions=1))
    return FSIStepper(
        g, units, cm, mode="wrap", body_force=np.array([1000.0, 0.0, 0.0])
    )


def _apr_sim(box_cells=14, n=2):
    dx_c = 2e-6
    tau_c = 1.0
    dt_c = (tau_c - 0.5) / 3.0 * dx_c**2 / NU_BULK
    units = UnitSystem(dx_c, dt_c, RHO)
    cg = Grid((box_cells,) * 3, tau=tau_c, spacing=dx_c)
    coarse = LBMSolver(cg, [])
    spec = WindowSpec(
        proper_side=6e-6, onramp_width=1.5e-6, insertion_width=1.5e-6
    )
    cfg = APRConfig(
        window_spec=spec,
        refinement=n,
        nu_bulk=NU_BULK,
        nu_window=NU_PLASMA,
        hematocrit=None,
    )
    center = dx_c * (box_cells - 1) / 2.0 * np.ones(3)
    return APRSimulation(cfg, coarse, center, units)


def test_fsi_step_records_expected_phases():
    st = _fsi_stepper()
    tel = Telemetry()
    with active(tel):
        st.step(2)
    stats = tel.recorder.stats
    for path in ("forces", "spread", "collide_stream", "advect"):
        assert path in stats, path
        assert stats[path].count == 2
        assert stats[path].total > 0.0


def test_fsi_step_splits_advection_and_counts_carried_state():
    """``advect`` separates the moment sums (shared with the next collide
    through the grid's cache) from its own velocity pass, and the
    carried contact list / stencil rows report how often they were
    repaired: a run that rebuilds every step must be visible."""
    st = _fsi_stepper()
    n_markers = sum(len(c.vertices) for c in st.cells.cells)
    n_steps = 6
    tel = Telemetry()
    with active(tel):
        st.step(n_steps)
    stats = tel.recorder.stats
    for path in ("advect/moments", "advect/velocity", "advect/move"):
        assert stats[path].count == n_steps, path
    assert tel.counter("fsi.contact.rebuilds").value == 1
    assert tel.counter("fsi.contact.candidates").value == 0  # one cell
    assert tel.counter("fsi.contact.pairs").value == 0
    reindexed = tel.counter("ibm.stencil.rows_reindexed").value
    assert n_markers <= reindexed < 2 * n_markers  # one full build + repairs
    from repro.telemetry.report import render_summary, summarize

    text = render_summary(summarize(tel))
    for name in ("fsi.contact.rebuilds", "ibm.stencil.rows_reindexed"):
        assert name in text


def test_cell_manager_counters():
    tel = Telemetry()
    with active(tel):
        cm = CellManager()
        a = cm.add(make_rbc(np.zeros(3), global_id=cm.allocate_id(),
                            subdivisions=1))
        cm.add(make_rbc(np.array([10e-6, 0, 0]), global_id=cm.allocate_id(),
                        subdivisions=1))
        cm.remove(a.global_id)
    assert tel.counter("cells.inserted").value == 2
    assert tel.counter("cells.removed").value == 1


def test_apr_step_phases_nest_and_cover():
    sim = _apr_sim()
    tel = Telemetry()
    with active(tel):
        sim.step(4)
    summary = tel.summary()
    phases = summary["phases"]
    assert phases["step"]["count"] == 4
    for sub in (
        "step/coarse",
        "step/coarse/ghost_state",
        "step/fine",
        "step/interpolate",
        "step/restrict",
    ):
        assert sub in phases, sub
    # The coarse state goes onto the shell after the coarse advance, and
    # before it only on the first step: later steps start from the
    # previous step's end state, whose θ = 0 impose the shell already
    # holds.  The interpolate phase also times the skipped imposes.
    n = sim.coupling.n
    assert phases["step/coarse/ghost_state"]["count"] == 4 + 1
    assert phases["step/interpolate"]["count"] == (n + 1) * 4
    counters = summary["counters"]
    assert counters["refinement.shell_reimposes_skipped"]["value"] == 3
    assert counters["refinement.shell_imposes"]["value"] == n * 4 + 1
    # The instrumented children explain >= 90% of the step wall time
    # (the acceptance bar for the per-phase accounting).
    assert summary["phase_coverage"]["step"] >= 0.9


def test_coupling_build_phase_and_gauges():
    tel = Telemetry()
    with active(tel):
        sim = _apr_sim()
    summary = tel.summary()
    assert summary["phases"]["build_coupling"]["count"] == 1
    coupling = sim.coupling
    n_ghost = tel.gauge("refinement.ghost_nodes").value
    fshape = np.array(sim.fine.grid.shape)
    assert n_ghost == np.prod(fshape) - np.prod(fshape - 2)
    assert len(coupling._ghost_flat) == n_ghost
    assert len(np.unique(coupling._ghost_flat)) == n_ghost


def test_apr_diagnostics_sampled_on_cadence(tmp_path):
    sim = _apr_sim()
    tel = Telemetry(out_dir=tmp_path)
    every = HEALTH_SAMPLE_INTERVAL
    with active(tel):
        sim.step(2 * every + 1)
    tel.close()
    assert tel.gauge("health.window_density_deviation").n_samples == 2
    from repro.telemetry import read_events

    events = read_events(tmp_path / "events.jsonl")
    health = [e for e in events if e["type"] == "health"]
    assert [e["step"] for e in health] == [every, 2 * every]
    assert "window_hematocrit" in health[0]


def test_diagnostics_not_computed_when_disabled(monkeypatch):
    """The health_report sampling must not run under NullTelemetry."""
    sim = _apr_sim()
    called = []
    import repro.core.diagnostics as diag

    monkeypatch.setattr(
        diag, "health_report", lambda s: called.append(s) or {}
    )
    sim.step(HEALTH_SAMPLE_INTERVAL)  # null backend installed by default
    assert called == []


def test_null_backend_adds_no_events_and_preserves_results():
    """Acceptance: NullTelemetry records nothing and changes nothing."""
    st_null = _fsi_stepper()
    null = NullTelemetry()
    with active(null):
        st_null.step(3)
    assert null.events == []
    assert null.n_events == 0
    assert null.summary() == {}

    st_live = _fsi_stepper()
    with active(Telemetry()):
        st_live.step(3)

    # Bit-identical fluid state and cell shapes either way.
    np.testing.assert_array_equal(st_null.grid.f, st_live.grid.f)
    np.testing.assert_array_equal(
        st_null.cells.cells[0].vertices, st_live.cells.cells[0].vertices
    )


def test_null_backend_apr_results_match_live(tmp_path):
    sim_a = _apr_sim()
    sim_b = _apr_sim()
    sim_a.step(3)  # null (default)
    tel = Telemetry(out_dir=tmp_path)
    with active(tel):
        sim_b.step(3)
    tel.close()
    np.testing.assert_array_equal(sim_a.coarse.grid.f, sim_b.coarse.grid.f)
    np.testing.assert_array_equal(sim_a.fine.grid.f, sim_b.fine.grid.f)


def test_restriction_index_accessors_readonly():
    sim = _apr_sim()
    coarse_idx = sim.coupling.restriction_coarse_indices
    fine_idx = sim.coupling.restriction_fine_indices
    assert coarse_idx is not None and fine_idx is not None
    assert len(coarse_idx) == 3 and len(fine_idx) == 3
    assert len(coarse_idx[0]) == len(fine_idx[0])
    for arr in (*coarse_idx, *fine_idx):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_window_move_emits_event_and_counters(tmp_path):
    from repro.core.moving import WindowMover
    from repro.core.window import Window

    spec = WindowSpec(
        proper_side=10e-6, onramp_width=2e-6, insertion_width=2e-6
    )
    old = Window(center=np.zeros(3), spec=spec)
    new = old.moved_to(np.array([3e-6, 0.0, 0.0]))
    cm = CellManager()
    cm.add(make_rbc(np.zeros(3), global_id=cm.allocate_id(), subdivisions=1))
    tel = Telemetry()
    with active(tel):
        report = WindowMover().move_cells(cm, old, new)
    stats = tel.recorder.stats
    assert "capture" in stats and "fill" in stats
    assert tel.counter("window.cells_captured").value == report.n_captured
    assert tel.counter("window.cells_filled").value == report.n_filled
