"""Campaign run ledger: append-only JSONL of job status transitions.

The ledger is the campaign's source of truth for *what happened*: one
flushed line per transition (submitted, started, completed, crashed,
retry_scheduled, failed), so a SIGKILLed scheduler loses at
most the line being written — and :func:`repro.telemetry.read_events`
tolerates exactly that truncated trailing line.  ``campaign status`` and
``campaign resume`` both reconstruct state purely from this file plus
each job's ``result.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..telemetry.events import EventSink, heal_truncated_tail, read_events

#: Terminal job statuses; anything else means work remains.
TERMINAL = ("completed", "failed")


class Ledger:
    """Flushed, append-only JSONL writer for campaign transitions."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # The sink heals again at first append; healing eagerly here too
        # keeps read-before-write flows (resume, status) clean.
        heal_truncated_tail(self.path)
        self._sink = EventSink(self.path)

    def append(self, event: str, **fields) -> dict:
        record = {"ts": time.time(), "event": event, **fields}
        self._sink.emit(record)
        # The sink flushes Python buffers per line; fsync pushes the OS
        # cache too, so even a machine-level crash keeps the ledger.
        if self._sink._fh is not None:
            os.fsync(self._sink._fh.fileno())
        return record

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_ledger(path: str | Path) -> list[dict]:
    """All ledger records (empty when the ledger doesn't exist yet)."""
    path = Path(path)
    if not path.exists():
        return []
    return read_events(path)


@dataclass
class JobLedgerState:
    """One job's story as reconstructed from the ledger."""

    job_id: str
    status: str = "pending"
    attempts: int = 0
    start_step: int = 0  # step the latest attempt resumed from
    wall_s: float = 0.0  # summed attempt durations
    last_error: str | None = None


def job_states(records: list[dict]) -> dict[str, JobLedgerState]:
    """Fold ledger records into per-job states (insertion-ordered)."""
    states: dict[str, JobLedgerState] = {}
    for rec in records:
        job_id = rec.get("job")
        if job_id is None:
            continue  # campaign-level records
        st = states.setdefault(job_id, JobLedgerState(job_id))
        event = rec.get("event", "?")
        if event == "submitted":
            st.status = "pending"
        elif event == "started":
            st.status = "running"
            st.attempts = max(st.attempts, int(rec.get("attempt", 1)))
        elif event == "completed":
            st.status = "completed"
            st.start_step = int(rec.get("start_step", 0))
            st.wall_s += float(rec.get("wall_s", 0.0))
        elif event == "crashed":
            st.status = "crashed"
            st.wall_s += float(rec.get("wall_s", 0.0))
            if rec.get("error"):
                st.last_error = str(rec["error"])
        elif event == "retry_scheduled":
            st.status = "retry_wait"
        elif event == "failed":
            st.status = "failed"
            if rec.get("error"):
                st.last_error = str(rec["error"])
    return states
