"""Small filesystem helpers shared across the campaign service.

Every artifact the service writes must survive a SIGKILL at any byte:
JSON documents go through :func:`repro.telemetry.events.atomic_write_json`
(readers see the old complete file or the new one, never a truncation),
and the JSONL ledger appends one flushed line per record.
"""

from __future__ import annotations

import json
from pathlib import Path


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_lines(path: str | Path, n: int = 12, max_bytes: int = 16384) -> str:
    """Last ``n`` lines of a (log) file, bounded to ``max_bytes``."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            fh.seek(max(0, size - max_bytes))
            data = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(data.splitlines()[-n:])
