"""Telemetry / NullTelemetry backends, installation, summaries."""

import json

import pytest

from repro.telemetry import (
    NULL,
    NullTelemetry,
    Telemetry,
    active,
    get_telemetry,
    phase_coverage,
    read_events,
    render_summary,
    set_telemetry,
)


def test_default_backend_is_null():
    assert isinstance(get_telemetry(), NullTelemetry)
    assert not get_telemetry().enabled


def test_active_scopes_installation(tmp_path):
    tel = Telemetry(out_dir=tmp_path)
    before = get_telemetry()
    with active(tel) as installed:
        assert installed is tel
        assert get_telemetry() is tel
    assert get_telemetry() is before
    tel.close()


def test_active_restores_on_exception(tmp_path):
    tel = Telemetry(out_dir=tmp_path)
    with pytest.raises(RuntimeError):
        with active(tel):
            raise RuntimeError("boom")
    assert get_telemetry() is NULL
    tel.close()


def test_set_telemetry_none_restores_null():
    tel = Telemetry()
    set_telemetry(tel)
    assert get_telemetry() is tel
    set_telemetry(None)
    assert get_telemetry() is NULL


def test_events_written_to_jsonl(tmp_path):
    tel = Telemetry(out_dir=tmp_path)
    tel.event("run_start", experiment="tube")
    tel.event("health", step=10, ht=0.2)
    tel.close()
    events = read_events(tmp_path / "events.jsonl")
    assert [e["type"] for e in events] == ["run_start", "health"]
    assert events[0]["experiment"] == "tube"
    assert all("t" in e for e in events)
    assert tel.n_events == 2


def test_memory_events_without_out_dir():
    tel = Telemetry()
    tel.event("a")
    tel.event("b", x=1)
    assert [e["type"] for e in tel.events] == ["a", "b"]
    with pytest.raises(ValueError):
        tel.write_summary()


def test_summary_structure_and_file(tmp_path):
    tel = Telemetry(out_dir=tmp_path, meta={"experiment": "unit"})
    with tel.phase("step"):
        with tel.phase("fine"):
            pass
    tel.inc("cells.inserted", 3)
    tel.gauge("health.ht").set(0.21)
    tel.event("run_start")
    path = tel.write_summary()
    tel.close()
    with open(path) as fh:
        s = json.load(fh)
    assert s["meta"]["experiment"] == "unit"
    assert s["meta"]["n_events"] == 1
    assert set(s["phases"]) == {"step", "step/fine"}
    assert s["phases"]["step"]["count"] == 1
    assert s["counters"]["cells.inserted"]["value"] == 3
    assert s["gauges"]["health.ht"]["value"] == pytest.approx(0.21)
    assert "step" in s["phase_coverage"]


def test_phase_coverage_math():
    phases = {
        "step": {"total_s": 10.0},
        "step/a": {"total_s": 6.0},
        "step/b": {"total_s": 3.0},
        "step/a/inner": {"total_s": 5.0},
        "other": {"total_s": 1.0},
    }
    cov = phase_coverage(phases)
    assert cov["step"] == pytest.approx(0.9)
    assert cov["step/a"] == pytest.approx(5.0 / 6.0)
    assert "other" not in cov  # leaf: no children to cover it


def test_render_summary_mentions_phases_and_metrics():
    tel = Telemetry(meta={"experiment": "render"})
    with tel.phase("step"):
        pass
    tel.inc("cells.inserted")
    tel.gauge("ht").set(0.2)
    text = render_summary(tel.summary())
    assert "step" in text
    assert "cells.inserted" in text
    assert "ht" in text


def test_rank_balance_rollup_in_summary():
    from repro.telemetry.report import rank_balance

    tel = Telemetry()
    tel.record_rank_seconds("dist/collide", {0: 1.0, 1: 2.0})
    tel.record_rank_seconds("dist/collide", {0: 1.0, 1: 2.0})
    tel.record_rank_seconds("dist/halo", {0: 0.5, 1: 0.5})
    balance = rank_balance(tel.rank_seconds)
    assert balance["dist/collide"]["n_ranks"] == 2
    assert balance["dist/collide"]["max_s"] == pytest.approx(4.0)
    assert balance["dist/collide"]["mean_s"] == pytest.approx(3.0)
    assert balance["dist/collide"]["imbalance"] == pytest.approx(4 / 3)
    assert balance["dist/halo"]["imbalance"] == pytest.approx(1.0)
    # the rollup lands in summary() and its rendering
    s = tel.summary()
    assert s["rank_balance"]["dist/collide"]["imbalance"] == pytest.approx(
        4 / 3
    )
    text = render_summary(s)
    assert "rank balance" in text
    assert "dist/collide" in text


def test_rank_balance_absent_without_rank_data():
    tel = Telemetry()
    with tel.phase("step"):
        pass
    assert "rank_balance" not in tel.summary()


def test_rank_balance_fed_by_distributed_step():
    import numpy as np

    from repro.lbm import Grid
    from repro.parallel import DistributedLBMSolver
    from repro.telemetry import active

    shape = (8, 8, 8)
    g = Grid(shape, tau=0.8)
    g.init_equilibrium(np.ones(shape), np.zeros((3,) + shape))
    tel = Telemetry()
    with active(tel):
        with DistributedLBMSolver(shape, tau=0.8, n_tasks=2) as d:
            d.scatter(g.f.copy())
            d.step(2)
    balance = tel.summary()["rank_balance"]
    assert set(balance) == {"dist/collide", "dist/halo", "dist/stream"}
    assert balance["dist/collide"]["n_ranks"] == 2
    assert balance["dist/collide"]["imbalance"] >= 1.0


def test_null_telemetry_full_surface(tmp_path):
    tel = NullTelemetry()
    with tel.phase("anything"):
        pass
    tel.inc("c")
    tel.sample("g", 1.0)
    tel.event("e", x=1)
    assert tel.events == []
    assert tel.summary() == {}
    assert tel.write_summary() is None
    assert tel.render_summary() == "telemetry disabled"
    tel.counter("c").inc()
    tel.gauge("g").set(2.0)
    tel.flush()
    tel.close()
    tel.record_rank_seconds("p", {0: 1.0})
    assert tel.rank_seconds == {}
    assert tel.write_trace() is None
    assert tel.tracer is None
    # No files were created anywhere.
    assert list(tmp_path.iterdir()) == []


def test_concurrent_active_scopes_do_not_leak():
    """Interleaved ``active()`` scopes on many threads stay per-thread.

    The campaign scheduler runs inline jobs on threads that each do
    ``with active(tel)``; with one shared slot, scopes that exit out of
    order reinstall each other's (closed) backends.
    """
    import sys
    import threading

    n_threads, rounds = 8, 200
    start = threading.Barrier(n_threads)
    leaks: list[str] = []

    def job(k: int) -> None:
        mine = [Telemetry() for _ in range(2)]
        start.wait(timeout=30)
        for _ in range(rounds):
            if get_telemetry() is not NULL:
                leaks.append(f"thread {k}: foreign backend before enter")
            with active(mine[0]):
                with active(mine[1]):
                    if get_telemetry() is not mine[1]:
                        leaks.append(f"thread {k}: wrong inner backend")
                if get_telemetry() is not mine[0]:
                    leaks.append(f"thread {k}: wrong backend after inner exit")
        if get_telemetry() is not NULL:
            leaks.append(f"thread {k}: backend left installed")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert leaks == []
    assert get_telemetry() is NULL
