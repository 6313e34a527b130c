"""Structured trace spans and the Chrome-trace/Perfetto exporter.

A *span* is one wall-clock interval with identity: a span id, a parent
span id, the phase path it timed, and the rank (or worker ordinal) that
executed it.  Spans are the per-occurrence complement to the aggregated
:class:`~repro.telemetry.timers.PhaseStat` accounting — the summary says
*how much* time ``dist/collide`` took over a run; the trace says *when*
each call happened and on *which* worker, which is what load-imbalance
and barrier-stall questions actually need.

Cross-worker propagation: the decomposed lattice's executor
(:mod:`repro.parallel.executor`) ships the driver's current span id to
its workers through the existing Pipe/shared-memory command protocol;
workers stamp their intervals on the same clock (``time.perf_counter``
is system-wide ``CLOCK_MONOTONIC`` on Linux, so child-process
timestamps are directly comparable) and the driver merges the returned
intervals into one run timeline via :meth:`SpanRecorder.add`.

Export is the Chrome trace-event JSON format (``"X"`` complete events),
loadable by ``chrome://tracing`` and https://ui.perfetto.dev — see
``docs/observability.md`` for the walkthrough.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .events import atomic_write_json

#: ``pid`` used for driver-side (non-worker) spans in the exported trace.
DRIVER_PID = 0


@dataclass
class Span:
    """One completed wall-clock interval with trace identity."""

    span_id: int
    parent_id: int | None
    name: str
    t0: float  # start, seconds on the monotonic clock
    t1: float  # end, same clock
    rank: int | None = None  # worker/rank ordinal; None => driver
    category: str = ""
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        d = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "rank": self.rank,
        }
        if self.category:
            d["category"] = self.category
        if self.args:
            d["args"] = dict(self.args)
        return d


class _SpanContext:
    """Context manager for one driver-side span (created per call)."""

    __slots__ = ("_rec", "_name", "_category", "_args", "span_id", "_t0")

    def __init__(self, rec: "SpanRecorder", name: str, category: str,
                 args: dict | None):
        self._rec = rec
        self._name = name
        self._category = category
        self._args = args
        self.span_id = 0

    def __enter__(self) -> "_SpanContext":
        rec = self._rec
        self.span_id = rec._next_id
        rec._next_id += 1
        rec._stack.append(self.span_id)
        self._t0 = rec._clock()
        return self

    def __exit__(self, *exc) -> bool:
        rec = self._rec
        t1 = rec._clock()
        rec._stack.pop()
        rec.spans.append(
            Span(
                span_id=self.span_id,
                parent_id=rec._stack[-1] if rec._stack else None,
                name=self._name,
                t0=self._t0,
                t1=t1,
                rank=None,
                category=self._category,
                args=self._args or {},
            )
        )
        return False


class SpanRecorder:
    """Collects one process's span timeline (plus merged worker spans).

    Span ids are unique within one recorder; worker-side intervals get
    their ids assigned at merge time (:meth:`add`), so the driver remains
    the single id authority and parent links never collide.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self._next_id = 1
        self._stack: list[int] = []  # open driver-side span ids

    @property
    def current_id(self) -> int | None:
        """Id of the innermost open driver span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, category: str = "",
             args: dict | None = None) -> _SpanContext:
        """Context manager recording one driver-side span."""
        return _SpanContext(self, name, category, args)

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        parent_id: int | None = None,
        rank: int | None = None,
        category: str = "",
        **args,
    ) -> Span:
        """Merge one externally-timed interval (e.g. a worker's) in."""
        sp = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            t0=t0,
            t1=t1,
            rank=rank,
            category=category,
            args=args,
        )
        self._next_id += 1
        self.spans.append(sp)
        return sp

    def as_dicts(self) -> list[dict]:
        return [sp.as_dict() for sp in self.spans]

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# Chrome-trace / Perfetto export


def to_chrome_trace(spans: list[Span], meta: dict | None = None) -> dict:
    """Spans as a Chrome trace-event document (``"X"`` complete events).

    Driver spans land on ``pid 0`` / ``tid 0``; a worker span lands on
    ``pid = rank + 1`` so Perfetto draws one track per rank.  The span
    and parent ids ride along in ``args`` — time containment gives the
    visual nesting, the ids give the exact edges a test (or a query in
    Perfetto's SQL view) can assert on.
    """
    events = []
    t_base = min((sp.t0 for sp in spans), default=0.0)
    for sp in spans:
        args = {"span_id": sp.span_id}
        if sp.parent_id is not None:
            args["parent_id"] = sp.parent_id
        args.update(sp.args)
        pid = DRIVER_PID if sp.rank is None else sp.rank + 1
        events.append(
            {
                "name": sp.name,
                "cat": sp.category or "phase",
                "ph": "X",
                "ts": (sp.t0 - t_base) * 1e6,  # microseconds
                "dur": max(sp.t1 - sp.t0, 0.0) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": dict(meta or {}),
    }
    return doc


def write_chrome_trace(
    spans: list[Span], path: str | Path, meta: dict | None = None
) -> Path:
    """Atomically write the Chrome-trace JSON for ``spans``."""
    return atomic_write_json(path, to_chrome_trace(spans, meta), indent=1,
                             sort_keys=False)


def read_chrome_trace(path: str | Path) -> dict:
    """Load a trace document written by :func:`write_chrome_trace`."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
