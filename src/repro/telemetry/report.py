"""End-of-run summaries: aggregation, JSON artifact, console rendering.

A summary collects per-phase wall-time statistics (total / mean / max /
call count), phase *coverage* (what fraction of each parent phase its
instrumented children account for — the gap is untimed code), final
counter values, and final gauge samples.  ``write_summary`` produces the
machine-readable baseline artifact future performance PRs diff against;
``render_summary`` pretty-prints the same data as an indented tree.
"""

from __future__ import annotations

from pathlib import Path

from .events import atomic_write_json
from .timers import PATH_SEP


def phase_children(phases: dict[str, dict]) -> dict[str, list[str]]:
    """Map each phase path to its direct children (present in ``phases``)."""
    out: dict[str, list[str]] = {path: [] for path in phases}
    for path in phases:
        if PATH_SEP in path:
            parent = path.rsplit(PATH_SEP, 1)[0]
            if parent in out:
                out[parent].append(path)
    return out


def phase_coverage(phases: dict[str, dict]) -> dict[str, float]:
    """Fraction of each parent phase's wall time timed by its children.

    Only parents with at least one instrumented child appear.  A value
    near 1.0 means the breakdown accounts for essentially all of the
    parent's time; a low value flags untimed work inside that phase.
    """
    cov: dict[str, float] = {}
    for parent, children in phase_children(phases).items():
        if not children:
            continue
        total = phases[parent]["total_s"]
        child_sum = sum(phases[c]["total_s"] for c in children)
        cov[parent] = child_sum / total if total > 0 else 0.0
    return cov


def rank_balance(rank_seconds: dict[str, dict[int, float]]) -> dict:
    """Per-phase ``max/mean`` load-imbalance rollup from per-rank seconds.

    ``imbalance`` is the max-to-mean ratio of cumulative per-rank wall
    time inside one barriered phase: 1.0 is perfect balance, and the
    excess over 1.0 is the fraction of the phase the busiest rank spends
    while its siblings idle at the barrier — the quantity the paper's
    load-balance discussion (and Fig. 7's strong-scaling rolloff) turns
    on.
    """
    out: dict[str, dict] = {}
    for phase, per_rank in sorted(rank_seconds.items()):
        if not per_rank:
            continue
        vals = list(per_rank.values())
        mean = sum(vals) / len(vals)
        mx = max(vals)
        out[phase] = {
            "n_ranks": len(vals),
            "max_s": mx,
            "mean_s": mean,
            "imbalance": mx / mean if mean > 0 else 1.0,
        }
    return out


def summarize(telemetry) -> dict:
    """Build the aggregated summary dict for a live Telemetry backend."""
    phases = telemetry.recorder.as_dict()
    metrics = telemetry.metrics.as_dict()
    meta = {
        "wall_s": telemetry.uptime(),
        "n_events": telemetry.n_events,
        **telemetry.meta,
    }
    if telemetry.tracer is not None:
        meta["n_spans"] = len(telemetry.tracer)
    summary = {
        "meta": meta,
        "phases": phases,
        "phase_coverage": phase_coverage(phases),
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
    }
    if telemetry.rank_seconds:
        summary["rank_balance"] = rank_balance(telemetry.rank_seconds)
    return summary


def write_summary(summary: dict, path: str | Path) -> Path:
    """Atomically persist a summary: temp file + ``os.replace``.

    A job killed mid-write can therefore never leave a truncated
    ``summary.json`` behind — readers see either the previous complete
    artifact or the new one.
    """
    return atomic_write_json(path, summary)


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:8.3f}s"
    return f"{s * 1e3:7.2f}ms"


def render_summary(summary: dict) -> str:
    """Human-readable phase tree + metrics for the console."""
    lines: list[str] = []
    meta = summary.get("meta", {})
    lines.append(f"telemetry summary — wall {meta.get('wall_s', 0.0):.3f}s, "
                 f"{meta.get('n_events', 0)} events")
    phases = summary.get("phases", {})
    coverage = summary.get("phase_coverage", {})
    if phases:
        lines.append("")
        lines.append(f"  {'phase':<36} {'total':>10} {'count':>7} "
                     f"{'mean':>10} {'max':>10}  cover")
        for path in sorted(phases):
            st = phases[path]
            depth = path.count(PATH_SEP)
            name = "  " * depth + path.rsplit(PATH_SEP, 1)[-1]
            cov = coverage.get(path)
            cov_s = f"{cov * 100:4.0f}%" if cov is not None else "     "
            lines.append(
                f"  {name:<36} {_fmt_seconds(st['total_s']):>10} "
                f"{st['count']:>7d} {_fmt_seconds(st['mean_s']):>10} "
                f"{_fmt_seconds(st['max_s']):>10}  {cov_s}"
            )
    balance = summary.get("rank_balance", {})
    if balance:
        lines.append("")
        lines.append("  rank balance (max/mean per barriered phase):")
        lines.append(
            f"    {'phase':<34} {'ranks':>5} {'max':>10} {'mean':>10}  imbal"
        )
        for phase in sorted(balance):
            b = balance[phase]
            lines.append(
                f"    {phase:<34} {b['n_ranks']:>5d} "
                f"{_fmt_seconds(b['max_s']):>10} "
                f"{_fmt_seconds(b['mean_s']):>10}  {b['imbalance']:.2f}x"
            )
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<40} {counters[name]['value']}")
    gauges = summary.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("  gauges (final [min, max] over n samples):")
        for name in sorted(gauges):
            g = gauges[name]
            lines.append(
                f"    {name:<40} {g['value']:.6g} "
                f"[{g['min']:.6g}, {g['max']:.6g}] over {g['n_samples']}"
            )
    return "\n".join(lines)
