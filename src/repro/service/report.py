"""Aggregate campaign reports: ledger + results + telemetry rollups.

``build_report`` folds three artifact layers into one document:

* the run **ledger** (``ledger.jsonl``) for per-job attempt counts,
  statuses, wall times and resume steps;
* each job's **result.json** for the experiment summary the run
  returned;
* each job's **telemetry summary** for per-phase wall-time, rolled up
  campaign-wide (total seconds and call counts per phase path) so one
  glance shows where the campaign actually spent its time.

The report is written atomically (``report.json``) and rendered for the
console by ``render_report``.
"""

from __future__ import annotations

from pathlib import Path

from ..telemetry.events import atomic_write_json
from .ledger import TERMINAL, job_states, read_ledger
from .util import read_json
from .worker import (
    LEDGER_FILENAME,
    REPORT_FILENAME,
    RESULT_FILENAME,
    job_dir,
    load_campaign_manifest,
)


def _campaign_window(records: list[dict]) -> tuple[float | None, float]:
    """(start_ts, wall_s) from campaign-level ledger records."""
    start = None
    wall = 0.0
    for rec in records:
        if rec.get("event") in ("campaign_start", "campaign_resume"):
            if start is None:
                start = rec.get("ts")
        elif rec.get("event") == "campaign_end":
            wall += float(rec.get("wall_s", 0.0))
    return start, wall


def _phase_rollup(campaign_dir: Path, job_ids: list[str]) -> dict:
    """Sum per-phase totals/counts across every job's telemetry summary."""
    rollup: dict[str, dict] = {}
    for job_id in job_ids:
        summary_path = job_dir(campaign_dir, job_id) / "telemetry" / "summary.json"
        if not summary_path.exists():
            continue
        try:
            phases = read_json(summary_path).get("phases", {})
        except ValueError:
            continue  # torn write from a killed attempt; skip it
        for path, st in phases.items():
            agg = rollup.setdefault(
                path, {"total_s": 0.0, "count": 0, "max_s": 0.0, "n_jobs": 0}
            )
            agg["total_s"] += float(st.get("total_s", 0.0))
            agg["count"] += int(st.get("count", 0))
            agg["max_s"] = max(agg["max_s"], float(st.get("max_s", 0.0)))
            agg["n_jobs"] += 1
    return rollup


def build_report(campaign_dir: str | Path) -> dict:
    """Aggregate everything the campaign produced into one dict."""
    campaign_dir = Path(campaign_dir)
    manifest = load_campaign_manifest(campaign_dir)
    records = read_ledger(campaign_dir / LEDGER_FILENAME)
    states = job_states(records)
    start_ts, wall_s = _campaign_window(records)

    jobs: dict[str, dict] = {}
    for spec in manifest.jobs:
        st = states.get(spec.job_id)
        entry: dict = {
            "experiment": spec.experiment,
            "status": st.status if st is not None else "pending",
            "attempts": st.attempts if st is not None else 0,
            "wall_s": round(st.wall_s, 3) if st is not None else 0.0,
            "start_step": st.start_step if st is not None else 0,
        }
        if st is not None and st.last_error:
            entry["last_error"] = st.last_error
        result_path = job_dir(campaign_dir, spec.job_id) / RESULT_FILENAME
        if result_path.exists():
            try:
                result = read_json(result_path)
            except ValueError:
                result = {}
            # A result.json outlives the ledger of the run that wrote it
            # (e.g. status after resume) — trust it as completion proof.
            entry["status"] = "completed"
            entry["n_checkpoints"] = result.get("n_checkpoints", 0)
            entry["summary"] = result.get("summary")
        jobs[spec.job_id] = entry

    statuses = [j["status"] for j in jobs.values()]
    n_completed = statuses.count("completed")
    n_failed = statuses.count("failed")
    n_retries = sum(
        1 for rec in records if rec.get("event") == "retry_scheduled"
    )
    counts = {
        "jobs": len(jobs),
        "completed": n_completed,
        "failed": n_failed,
        "pending": sum(1 for s in statuses if s not in TERMINAL),
        "retries": n_retries,
        "attempts": sum(j["attempts"] for j in jobs.values()),
    }
    return {
        "campaign": manifest.name,
        "started_ts": start_ts,
        "wall_s": round(wall_s, 3),
        "counts": counts,
        "throughput_jobs_per_min": (
            round(n_completed / (wall_s / 60.0), 3) if wall_s > 0 else None
        ),
        "jobs": jobs,
        "phase_rollup": _phase_rollup(campaign_dir, list(jobs)),
    }


def write_report(campaign_dir: str | Path, report: dict) -> Path:
    return atomic_write_json(Path(campaign_dir) / REPORT_FILENAME, report)


def _fmt_s(s: float) -> str:
    return f"{s:.2f}s" if s < 120 else f"{s / 60.0:.1f}min"


def render_report(report: dict) -> str:
    """Console view: status table, counts, top phase rollups."""
    lines: list[str] = []
    counts = report.get("counts", {})
    lines.append(
        f"campaign {report.get('campaign', '?')!r}: "
        f"{counts.get('completed', 0)}/{counts.get('jobs', 0)} completed, "
        f"{counts.get('failed', 0)} failed, "
        f"{counts.get('retries', 0)} retries, "
        f"wall {_fmt_s(report.get('wall_s') or 0.0)}"
    )
    thr = report.get("throughput_jobs_per_min")
    if thr is not None:
        lines.append(f"  throughput: {thr} completed jobs/min")
    jobs = report.get("jobs", {})
    if jobs:
        lines.append("")
        lines.append(
            f"  {'job':<24} {'experiment':<18} {'status':<11} "
            f"{'att':>3} {'wall':>9} {'from step':>9}"
        )
        for job_id, j in jobs.items():
            lines.append(
                f"  {job_id:<24} {j.get('experiment', '?'):<18} "
                f"{j.get('status', '?'):<11} {j.get('attempts', 0):>3} "
                f"{_fmt_s(j.get('wall_s', 0.0)):>9} "
                f"{j.get('start_step', 0):>9}"
            )
            if j.get("last_error") and j.get("status") != "completed":
                lines.append(f"      last error: {j['last_error']}")
    rollup = report.get("phase_rollup", {})
    if rollup:
        top = sorted(
            rollup.items(), key=lambda kv: -kv[1]["total_s"]
        )[:10]
        lines.append("")
        lines.append("  phase rollup (campaign-wide, top 10 by total time):")
        lines.append(
            f"    {'phase':<34} {'total':>9} {'count':>8} {'jobs':>5}"
        )
        for path, st in top:
            lines.append(
                f"    {path:<34} {_fmt_s(st['total_s']):>9} "
                f"{st['count']:>8} {st['n_jobs']:>5}"
            )
    return "\n".join(lines)
