"""Telemetry: phase timers, counters/gauges, and structured run events.

The instrumentation layer behind APR campaign observability:

* :class:`Timer` / ``phase()`` — monotonic-clock wall-time accounting
  with nested-phase support (``"step/fine/spread"`` paths);
* :class:`Counter` / :class:`Gauge` — process-local metrics (cell
  churn, window moves, diagnostic samples);
* ``events.jsonl`` — append-only structured event stream per run;
* ``summary.json`` — end-of-run aggregate (per-phase total/mean/max,
  call counts, phase coverage, metric finals);
* :class:`NullTelemetry` — the default no-op backend, so instrumented
  hot paths are free when telemetry is off.

Usage::

    from repro.telemetry import Telemetry, active

    tel = Telemetry(out_dir="out/")
    with active(tel):
        sim.step(100)          # library code records phases/metrics
    tel.write_summary()
    print(tel.render_summary())

See ``docs/observability.md`` for the event schema and how to read a
run summary.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": (
        "NULL",
        "NullTelemetry",
        "Telemetry",
        "active",
        "get_telemetry",
        "set_telemetry",
    ),
    ".events": (
        "EventSink",
        "heal_truncated_tail",
        "read_events",
        "tail_events",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "MetricRegistry",
        "prometheus_text",
        "sanitize_metric_name",
    ),
    ".report": (
        "phase_coverage",
        "rank_balance",
        "render_summary",
        "summarize",
        "write_summary",
    ),
    ".server": (
        "ServeHandle",
        "StatusSnapshotter",
        "TelemetryServer",
        "build_status",
        "metrics_text",
        "read_endpoint_file",
        "serve_status",
        "write_endpoint_file",
    ),
    ".timers": ("PhaseRecorder", "PhaseStat", "Timer"),
    ".tracing": (
        "Span",
        "SpanRecorder",
        "read_chrome_trace",
        "to_chrome_trace",
        "write_chrome_trace",
    ),
})
