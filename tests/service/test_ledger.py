"""Run ledger: append-only JSONL, crash tolerance, state folding."""

from __future__ import annotations

from repro.service.ledger import Ledger, job_states, read_ledger


def _write_history(path):
    with Ledger(path) as led:
        led.append("campaign_start", name="c", n_jobs=2)
        led.append("submitted", job="a", experiment="shear_layers")
        led.append("submitted", job="b", experiment="shear_layers")
        led.append("started", job="a", attempt=1)
        led.append("crashed", job="a", attempt=1, wall_s=1.0,
                   error="exit code 1")
        led.append("retry_scheduled", job="a", attempt=2)
        led.append("started", job="b", attempt=1)
        led.append("completed", job="b", attempt=1, wall_s=2.0,
                   start_step=40)
        led.append("started", job="a", attempt=2)
        led.append("crashed", job="a", attempt=2, wall_s=1.5,
                   error="exit code 1")
        led.append("failed", job="a", attempts=2, error="exit code 1")


def test_fold_job_states(tmp_path):
    path = tmp_path / "ledger.jsonl"
    _write_history(path)
    records = read_ledger(path)
    assert records[0]["event"] == "campaign_start"
    assert all("ts" in r for r in records)

    states = job_states(records)
    a, b = states["a"], states["b"]
    assert a.status == "failed"
    assert a.attempts == 2
    assert a.wall_s == 2.5  # summed over attempts
    assert a.last_error == "exit code 1"
    assert b.status == "completed"
    assert b.start_step == 40
    assert b.wall_s == 2.0


def test_read_missing_ledger_is_empty(tmp_path):
    assert read_ledger(tmp_path / "nope.jsonl") == []


def test_truncated_final_line_is_tolerated(tmp_path):
    """A SIGKILL mid-append loses at most the line being written."""
    path = tmp_path / "ledger.jsonl"
    _write_history(path)
    n_full = len(read_ledger(path))
    # chop the file mid-way through its last record
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    records = read_ledger(path)
    assert len(records) == n_full - 1
    # the surviving prefix still folds (job a was mid-story)
    states = job_states(records)
    assert states["a"].status == "crashed"


def test_reopening_heals_truncated_tail(tmp_path):
    """Appending after a torn final line must not corrupt the file."""
    path = tmp_path / "ledger.jsonl"
    _write_history(path)
    n_full = len(read_ledger(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])  # kill mid-append
    with Ledger(path) as led:  # reopen (resume) and keep appending
        led.append("campaign_resume", name="c")
    records = read_ledger(path)  # would raise on mid-file corruption
    assert len(records) == n_full  # lost 1 torn line, gained 1 resume
    assert records[-1]["event"] == "campaign_resume"


def test_append_is_readable_before_close(tmp_path):
    """Each line is flushed: a concurrent reader sees every append."""
    path = tmp_path / "ledger.jsonl"
    led = Ledger(path)
    try:
        led.append("campaign_start", name="c")
        led.append("submitted", job="x")
        assert len(read_ledger(path)) == 2
    finally:
        led.close()
