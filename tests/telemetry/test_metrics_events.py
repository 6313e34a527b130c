"""Counters/gauges and the JSONL event sink."""

import threading

import numpy as np
import pytest

from repro.telemetry.events import (
    EventSink,
    heal_truncated_tail,
    read_events,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    MetricRegistry,
)


def test_counter_increments():
    reg = MetricRegistry()
    c = reg.counter("cells.inserted")
    c.inc()
    c.add(4)
    assert c.value == 5
    # Same name -> same counter.
    assert reg.counter("cells.inserted") is c


def test_gauge_tracks_range():
    reg = MetricRegistry()
    g = reg.gauge("ht")
    g.set(0.2)
    g.set(0.1)
    g.set(0.3)
    assert g.value == pytest.approx(0.3)
    assert g.min == pytest.approx(0.1)
    assert g.max == pytest.approx(0.3)
    assert g.n_samples == 3


def test_registry_snapshot():
    reg = MetricRegistry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(1.5)
    d = reg.as_dict()
    assert d["counters"]["a"]["value"] == 2
    assert d["gauges"]["b"]["value"] == pytest.approx(1.5)


def test_null_metrics_are_inert():
    assert NULL_COUNTER.inc(100) == 0
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.set(3.0) == 0.0
    assert NULL_GAUGE.value == 0.0


def test_event_sink_jsonl_roundtrip(tmp_path):
    path = tmp_path / "sub" / "events.jsonl"
    sink = EventSink(path)
    sink.emit({"t": 0.0, "type": "run_start"})
    sink.emit({
        "t": 1.0,
        "type": "window_move",
        "displacement": np.array([1.0, 0.0, -2.0]),
        "n_filled": np.int64(7),
    })
    sink.close()
    events = read_events(path)
    assert [e["type"] for e in events] == ["run_start", "window_move"]
    assert events[1]["displacement"] == [1.0, 0.0, -2.0]
    assert events[1]["n_filled"] == 7


def test_event_sink_creates_file_lazily(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = EventSink(path)
    assert not path.exists()
    sink.emit({"type": "x"})
    sink.close()
    assert path.exists()


def test_events_survive_without_close(tmp_path):
    """Per-line flushing: a killed process keeps all emitted events."""
    path = tmp_path / "events.jsonl"
    sink = EventSink(path)
    for i in range(5):
        sink.emit({"type": "tick", "i": i})
    # no close/flush — simulate SIGKILL by just abandoning the handle;
    # the line-level flush must already have pushed every event out
    events = read_events(path)
    assert [e["i"] for e in events] == list(range(5))
    sink.close()


def test_truncated_final_line_is_dropped(tmp_path):
    """A mid-write kill corrupts at most the last line, which is skipped."""
    path = tmp_path / "events.jsonl"
    sink = EventSink(path)
    for i in range(4):
        sink.emit({"type": "tick", "i": i})
    sink.close()
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])  # chop into the final record
    events = read_events(path)
    assert [e["i"] for e in events] == [0, 1, 2]


def test_event_sink_concurrent_writers_produce_whole_lines(tmp_path):
    """Two threads sharing one sink never interleave mid-line."""
    path = tmp_path / "events.jsonl"
    sink = EventSink(path)
    n_per_thread = 200

    def writer(tid):
        for i in range(n_per_thread):
            sink.emit({"type": "tick", "tid": tid, "i": i})

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sink.close()
    events = read_events(path)  # raises on any torn/mixed line
    assert len(events) == 2 * n_per_thread
    for tid in (0, 1):
        seq = [e["i"] for e in events if e["tid"] == tid]
        # per-thread order is preserved by the lock
        assert seq == list(range(n_per_thread))


def test_event_sink_heals_torn_tail_before_appending(tmp_path):
    """Appending after a crash first truncates the torn final line."""
    path = tmp_path / "events.jsonl"
    path.write_text('{"type": "old", "i": 0}\n{"type": "to')  # no newline
    sink = EventSink(path)
    sink.emit({"type": "new", "i": 1})
    sink.close()
    events = read_events(path)
    assert [e["type"] for e in events] == ["old", "new"]


def test_heal_truncated_tail_cases(tmp_path):
    path = tmp_path / "x.jsonl"
    # missing file: no-op
    heal_truncated_tail(path)
    assert not path.exists()
    # newline-terminated file: untouched
    path.write_text('{"a": 1}\n')
    heal_truncated_tail(path)
    assert path.read_text() == '{"a": 1}\n'
    # torn tail: truncated back to the last full line
    path.write_text('{"a": 1}\n{"b"')
    heal_truncated_tail(path)
    assert path.read_text() == '{"a": 1}\n'
    # file that is one torn line: emptied
    path.write_text('{"never-finished')
    heal_truncated_tail(path)
    assert path.read_text() == ""


def test_mid_file_corruption_raises(tmp_path):
    """Interior corruption is a real problem and must not be masked."""
    path = tmp_path / "events.jsonl"
    lines = ['{"i": 0}', "{broken", '{"i": 2}']
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt JSONL"):
        read_events(path)


def test_summary_write_is_atomic(tmp_path, monkeypatch):
    """A kill mid-summary-write leaves the previous artifact intact."""
    import json
    import os

    from repro.telemetry.report import write_summary

    path = tmp_path / "summary.json"
    write_summary({"version": 1}, path)

    # simulate dying inside the dump: os.replace never runs
    real_replace = os.replace

    def exploding_replace(src, dst):
        raise KeyboardInterrupt("killed before publish")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(KeyboardInterrupt):
        write_summary({"version": 2}, path)
    monkeypatch.setattr(os, "replace", real_replace)

    # old artifact survives, no temp debris
    assert json.loads(path.read_text()) == {"version": 1}
    assert list(tmp_path.iterdir()) == [path]
