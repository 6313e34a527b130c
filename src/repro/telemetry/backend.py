"""Telemetry backends and the context-local installation point.

:class:`Telemetry` is the live backend: phases, metrics and events all
feed it, and it can persist an ``events.jsonl`` stream plus an
aggregated ``summary.json``.  :class:`NullTelemetry` implements the same
surface as no-ops, so instrumented hot paths cost a dict lookup and an
empty context manager when telemetry is off — and nothing else.

Instrumented library code never takes a telemetry argument; it calls
:func:`get_telemetry` at use time.  Callers opt in either permanently
(:func:`set_telemetry`) or scoped (:func:`active`)::

    tel = Telemetry(out_dir="out/")
    with active(tel):
        sim.step(100)
    tel.write_summary()

The installed backend lives in a :class:`contextvars.ContextVar`: every
thread starts from the null backend and installs its own, so concurrent
threads cannot leave a stale backend behind for one another.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from pathlib import Path

from .events import EventSink
from .metrics import NULL_COUNTER, NULL_GAUGE, Counter, Gauge, MetricRegistry
from .report import render_summary, summarize, write_summary
from .timers import NULL_PHASE, PhaseRecorder, _NullPhase, _PhaseContext
from .tracing import SpanRecorder, write_chrome_trace


class _TracedPhase:
    """Phase context that also records a span on the active tracer.

    The span is named by the *full* slash-joined phase path (computed at
    entry, when the recorder stack already holds the enclosing phases),
    so trace names match the summary's phase paths exactly.
    """

    __slots__ = ("_phase", "_span", "_tel", "_name")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel = tel
        self._name = name
        self._phase = tel.recorder.phase(name)
        self._span = None

    def __enter__(self) -> "_TracedPhase":
        self._phase.__enter__()
        path = self._tel.recorder.current_path
        self._span = self._tel.tracer.span(path)
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._span.__exit__(*exc)
        self._phase.__exit__(*exc)
        return False


class Telemetry:
    """Live instrumentation backend.

    Parameters
    ----------
    out_dir:
        Directory for ``events.jsonl`` and ``summary.json``.  ``None``
        keeps events in memory (``.events``) — useful for tests and for
        summary-only profiling.
    clock:
        Monotonic clock; injectable for deterministic tests.
    meta:
        Free-form key/values recorded in the summary's ``meta`` block
        (experiment name, configuration, ...).
    trace:
        Record per-occurrence :class:`~repro.telemetry.tracing.Span`
        timelines (including merged worker spans) in addition to the
        aggregated phase stats; export with :meth:`write_trace`.
    """

    enabled = True

    def __init__(
        self,
        out_dir: str | Path | None = None,
        clock=time.perf_counter,
        meta: dict | None = None,
        trace: bool = False,
    ):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._clock = clock
        self._t_start = clock()
        self.recorder = PhaseRecorder(clock)
        self.metrics = MetricRegistry()
        self.tracer: SpanRecorder | None = (
            SpanRecorder(clock) if trace else None
        )
        self.meta = dict(meta or {})
        self.n_events = 0
        #: Cumulative per-rank wall seconds by phase path, fed by the
        #: parallel runtimes (``record_rank_seconds``); the summary's
        #: rank-balance rollup derives from this.
        self.rank_seconds: dict[str, dict[int, float]] = {}
        self._sink: EventSink | None = None
        self._memory_events: list[dict] = []
        if self.out_dir is not None:
            self._sink = EventSink(self.out_dir / "events.jsonl")

    # -- timing --------------------------------------------------------
    def phase(self, name: str) -> _PhaseContext | _TracedPhase:
        """Context manager timing a (possibly nested) named phase."""
        if self.tracer is not None:
            return _TracedPhase(self, name)
        return self.recorder.phase(name)

    def record_rank_seconds(
        self, phase: str, seconds_by_rank: dict[int, float]
    ) -> None:
        """Accumulate per-rank wall seconds for one barriered phase."""
        acc = self.rank_seconds.setdefault(phase, {})
        for rank, dt in seconds_by_rank.items():
            acc[rank] = acc.get(rank, 0.0) + dt

    def uptime(self) -> float:
        """Seconds on the monotonic clock since this backend was created."""
        return self._clock() - self._t_start

    # -- metrics -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def inc(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def sample(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    # -- events --------------------------------------------------------
    def event(self, type_: str, **fields) -> None:
        record = {"t": round(self.uptime(), 9), "type": type_, **fields}
        self.n_events += 1
        if self._sink is not None:
            self._sink.emit(record)
        else:
            self._memory_events.append(record)

    @property
    def events(self) -> list[dict]:
        """In-memory events (only populated when ``out_dir`` is None)."""
        return list(self._memory_events)

    # -- summary / lifecycle -------------------------------------------
    def summary(self) -> dict:
        return summarize(self)

    def write_summary(self, path: str | Path | None = None) -> Path:
        if path is None:
            if self.out_dir is None:
                raise ValueError("no out_dir configured; pass an explicit path")
            path = self.out_dir / "summary.json"
        return write_summary(self.summary(), path)

    def render_summary(self) -> str:
        return render_summary(self.summary())

    def write_trace(self, path: str | Path | None = None) -> Path:
        """Export the recorded spans as Chrome-trace/Perfetto JSON."""
        if self.tracer is None:
            raise ValueError("tracing is off; construct Telemetry(trace=True)")
        if path is None:
            if self.out_dir is None:
                raise ValueError("no out_dir configured; pass an explicit path")
            path = self.out_dir / "trace.json"
        return write_chrome_trace(self.tracer.spans, path, meta=self.meta)

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullTelemetry:
    """No-op backend: identical surface, zero side effects, zero files."""

    enabled = False
    meta: dict = {}
    n_events = 0
    out_dir = None
    tracer = None
    rank_seconds: dict = {}

    def phase(self, name: str) -> _NullPhase:
        return NULL_PHASE

    def record_rank_seconds(self, phase: str, seconds_by_rank) -> None:
        pass

    def uptime(self) -> float:
        return 0.0

    def counter(self, name: str):
        return NULL_COUNTER

    def gauge(self, name: str):
        return NULL_GAUGE

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass

    def event(self, type_: str, **fields) -> None:
        pass

    @property
    def events(self) -> list[dict]:
        return []

    def summary(self) -> dict:
        return {}

    def write_summary(self, path=None) -> None:
        return None

    def write_trace(self, path=None) -> None:
        return None

    def render_summary(self) -> str:
        return "telemetry disabled"

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL = NullTelemetry()
_current: contextvars.ContextVar[Telemetry | NullTelemetry] = (
    contextvars.ContextVar("repro_telemetry", default=NULL)
)


def get_telemetry() -> Telemetry | NullTelemetry:
    """The backend installed in this context (NullTelemetry by default)."""
    return _current.get()


def set_telemetry(tel: Telemetry | NullTelemetry | None):
    """Install ``tel`` in this context; ``None`` restores the null backend."""
    tel = tel if tel is not None else NULL
    _current.set(tel)
    return tel


@contextlib.contextmanager
def active(tel: Telemetry | NullTelemetry):
    """Scoped installation: restores the previous backend on exit."""
    token = _current.set(tel)
    try:
        yield tel
    finally:
        _current.reset(token)
