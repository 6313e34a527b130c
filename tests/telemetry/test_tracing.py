"""Trace spans: recorder semantics, export, and cross-worker merging."""

import json

import numpy as np
import pytest

from repro.lbm import Grid, LBMSolver
from repro.parallel import DistributedLBMSolver
from repro.telemetry import Telemetry, active
from repro.telemetry.tracing import (
    Span,
    SpanRecorder,
    read_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# SpanRecorder


def test_nested_spans_record_parent_links():
    rec = SpanRecorder(FakeClock())
    with rec.span("step"):
        outer = rec.current_id
        with rec.span("step/spread"):
            inner = rec.current_id
    assert outer != inner
    spans = {sp.name: sp for sp in rec.spans}
    assert spans["step/spread"].parent_id == spans["step"].span_id
    assert spans["step"].parent_id is None
    # inner span closes first, so it lands first in the list
    assert [sp.name for sp in rec.spans] == ["step/spread", "step"]


def test_span_ids_are_unique_across_driver_and_merged():
    rec = SpanRecorder(FakeClock())
    with rec.span("a"):
        rec.add("w", 0.5, 0.9, parent_id=rec.current_id, rank=0)
    with rec.span("b"):
        pass
    ids = [sp.span_id for sp in rec.spans]
    assert len(ids) == len(set(ids)) == 3


def test_merged_span_keeps_external_interval():
    rec = SpanRecorder(FakeClock())
    sp = rec.add("worker", 10.0, 12.5, parent_id=None, rank=3,
                 category="worker")
    assert sp.t0 == 10.0
    assert sp.duration == pytest.approx(2.5)
    assert sp.rank == 3
    assert rec.as_dicts()[0]["rank"] == 3


def test_current_id_is_none_outside_spans():
    rec = SpanRecorder(FakeClock())
    assert rec.current_id is None
    with rec.span("x"):
        assert rec.current_id is not None
    assert rec.current_id is None


# ----------------------------------------------------------------------
# Chrome-trace export


def test_chrome_trace_layout():
    spans = [
        Span(span_id=1, parent_id=None, name="step", t0=2.0, t1=3.0),
        Span(span_id=2, parent_id=1, name="collide", t0=2.1, t1=2.4,
             rank=1, category="worker"),
    ]
    doc = to_chrome_trace(spans, meta={"run": "t"})
    ev = doc["traceEvents"]
    assert [e["ph"] for e in ev] == ["X", "X"]
    # timestamps rebased to the earliest span, in microseconds
    assert ev[0]["ts"] == pytest.approx(0.0)
    assert ev[0]["dur"] == pytest.approx(1e6)
    assert ev[1]["ts"] == pytest.approx(0.1e6)
    # driver on pid 0, rank r on pid r+1
    assert ev[0]["pid"] == 0
    assert ev[1]["pid"] == 2
    assert ev[1]["args"]["parent_id"] == 1
    assert doc["metadata"] == {"run": "t"}


def test_write_read_roundtrip(tmp_path):
    spans = [Span(span_id=1, parent_id=None, name="a", t0=0.0, t1=1.0)]
    path = write_chrome_trace(spans, tmp_path / "trace.json")
    doc = read_chrome_trace(path)
    assert doc["traceEvents"][0]["name"] == "a"
    assert not (tmp_path / "trace.json.tmp").exists()


# ----------------------------------------------------------------------
# Telemetry integration


def test_traced_phase_records_span_with_full_path():
    tel = Telemetry(trace=True)
    with tel.phase("step"):
        with tel.phase("spread"):
            pass
    names = [sp.name for sp in tel.tracer.spans]
    assert names == ["step/spread", "step"]
    # aggregate phase accounting still runs alongside the spans
    assert "step/spread" in tel.recorder.stats


def test_untraced_telemetry_has_no_tracer():
    tel = Telemetry()
    assert tel.tracer is None
    with tel.phase("step"):
        pass
    assert tel.summary()["phases"]["step"]["count"] == 1


def test_write_trace_to_out_dir(tmp_path):
    tel = Telemetry(out_dir=tmp_path, trace=True)
    with tel.phase("step"):
        pass
    path = tel.write_trace()
    assert path == tmp_path / "trace.json"
    assert len(read_chrome_trace(path)["traceEvents"]) == 1


# ----------------------------------------------------------------------
# Cross-worker propagation (the tentpole acceptance path)


def _init_distributed(shape, n_tasks, **kw):
    rng = np.random.default_rng(0)
    g = Grid(shape, tau=0.8)
    g.init_equilibrium(
        1.0 + 0.02 * rng.standard_normal(shape),
        0.03 * rng.standard_normal((3,) + shape),
    )
    d = DistributedLBMSolver(shape, tau=0.8, n_tasks=n_tasks, **kw)
    d.scatter(g.f.copy())
    return g, d


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_worker_spans_nest_under_driver_phases(backend):
    """Worker intervals merge as children of the driver's phase span."""
    tel = Telemetry(trace=True)
    with active(tel):
        g, d = _init_distributed((8, 8, 8), n_tasks=2, backend=backend,
                                 n_workers=2)
        with d:
            d.step(2)
    spans = tel.tracer.spans
    by_id = {sp.span_id: sp for sp in spans}
    workers = [sp for sp in spans if sp.category == "worker"]
    drivers = [sp for sp in spans if sp.rank is None]
    # 3 exec phases x 2 steps x 2 ranks of worker intervals
    assert len(workers) == 12
    assert {sp.rank for sp in workers} == {0, 1}
    for w in workers:
        parent = by_id[w.parent_id]
        assert parent.rank is None
        assert parent.name.startswith("dist/")
        # the worker interval is contained in its parent's interval
        # (same CLOCK_MONOTONIC across processes on Linux)
        assert parent.t0 <= w.t0
        assert w.t1 <= parent.t1
    assert len(drivers) == 6


def test_processes_trace_exports_merged_chrome_timeline(tmp_path):
    """Acceptance: processes-backend run -> one merged Chrome trace."""
    tel = Telemetry(out_dir=tmp_path, trace=True)
    with active(tel):
        g, d = _init_distributed((8, 8, 8), n_tasks=2, backend="processes",
                                 n_workers=2)
        ref = LBMSolver(g, [])
        with d:
            ref.step(2)
            d.step(2)
            # tracing must not perturb the numerics
            assert np.array_equal(d.gather(), g.f)
    path = tel.write_trace()
    doc = read_chrome_trace(path)
    events = doc["traceEvents"]
    driver = [e for e in events if e["pid"] == 0]
    worker = [e for e in events if e["pid"] > 0]
    assert driver and worker
    driver_ids = {e["args"]["span_id"] for e in driver}
    for e in worker:
        # every worker event names a driver span as its parent
        assert e["args"]["parent_id"] in driver_ids
    # worker tracks are pid = rank + 1
    assert {e["pid"] for e in worker} == {1, 2}


def test_tracing_off_sends_plain_phase_protocol():
    """With tracing off the executor protocol stays span-free."""
    tel = Telemetry()  # enabled, but no tracer
    with active(tel):
        g, d = _init_distributed((8, 8, 8), n_tasks=2, backend="processes",
                                 n_workers=2)
        with d:
            d.step(1)
    assert tel.tracer is None
    assert "dist/collide" in tel.recorder.stats


def test_fsi_stages_trace_as_driver_spans():
    """The cell side runs inline: its stages are driver spans, with no
    worker intervals to merge."""
    from repro.fsi import CellManager, FSIStepper
    from repro.membrane import make_rbc
    from repro.units import UnitSystem

    dx = 0.65e-6
    dt = (1.0 / 6.0) * dx**2 / (1.2e-3 / 1025.0)  # tau = 1 in plasma
    manager = CellManager()
    manager.add(make_rbc(np.full(3, 3.5 * dx), global_id=0, subdivisions=1))
    tel = Telemetry(trace=True)
    with active(tel):
        stepper = FSIStepper(
            Grid((8, 8, 8), tau=1.0, origin=np.zeros(3), spacing=dx),
            UnitSystem(dx, dt, 1025.0), manager, mode="wrap",
        )
        with tel.phase("step"):
            stepper.step(1)
    spans = tel.tracer.spans
    assert all(sp.rank is None and sp.category != "worker" for sp in spans)
    names = {sp.name for sp in spans}
    for stage in ("forces", "stencil", "spread", "interp"):
        assert any(n.endswith(f"fsi/{stage}") for n in names), stage


def test_trace_json_is_valid_json(tmp_path):
    tel = Telemetry(trace=True)
    with tel.phase("a"):
        pass
    path = write_chrome_trace(tel.tracer.spans, tmp_path / "t.json")
    json.loads(path.read_text())
