"""Structured run events as append-only JSON Lines.

One event per line keeps the sink crash-tolerant (a truncated final line
loses one event, not the file) and streamable — a long cerebral campaign
can be watched with ``tail -f events.jsonl``.  NumPy scalars and small
arrays are serialized transparently.

:func:`atomic_write_json`, with the same NumPy handling, is the one
writer of every whole-document JSON artifact (summaries, traces, the
campaign service's files).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np


def _jsonable(obj):
    """JSON fallback: NumPy arrays and scalars as their Python values,
    anything else (paths included) as its ``str``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return str(obj)


def atomic_write_json(path: str | Path, obj, indent: int = 2,
                      sort_keys: bool = True) -> Path:
    """Write ``obj`` as JSON (plus a final newline) atomically.

    Temp file + ``os.replace``: a writer killed mid-write never leaves a
    truncated document behind — readers see the previous complete file
    or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=indent, sort_keys=sort_keys,
                      default=_jsonable)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def heal_truncated_tail(path: str | Path) -> None:
    """Drop a partial final line left by a killed writer.

    Appending after a torn line would otherwise weld two records into
    one corrupt *mid-file* line, which readers rightly refuse.  A file
    that doesn't exist, is empty, or ends in a newline is left alone.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        # walk back to the last newline and truncate after it
        data = path.read_bytes()
        cut = data.rfind(b"\n") + 1
        fh.truncate(cut)


class EventSink:
    """Line-flushed JSONL writer; the file is created on the first event.

    Every event is written as one ``write`` call and flushed to the OS
    immediately, so a SIGKILLed job loses at most the event being
    serialized when the signal landed — never previously emitted lines —
    and ``tail -f`` followers see events as they happen.

    Writes are thread-safe: serialization happens outside the lock, but
    open-on-first-event, the write and the flush hold it, so threads
    emitting into one sink can never interleave partial lines.  Opening
    heals a torn tail first — the same discipline the service ledger
    applies — so appending to a killed run's stream stays safe.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        line = json.dumps(record, default=_jsonable) + "\n"
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                heal_truncated_tail(self.path)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_events(path: str | Path) -> list[dict]:
    """Load every event from a JSONL file (skipping blank lines).

    A malformed *final* line — the signature a writer was killed mid-write
    — is silently dropped, so ledgers and event streams from crashed jobs
    stay readable.  Corruption anywhere else still raises, since that
    indicates a real problem rather than an interrupted append.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i, ln) for i, ln in enumerate(lines) if ln]
    out: list[dict] = []
    for pos, (lineno, line) in enumerate(lines):
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            if pos == len(lines) - 1:
                break  # truncated trailing write from a killed process
            raise ValueError(
                f"{path}:{lineno + 1}: corrupt JSONL line in mid-file"
            ) from None
    return out

