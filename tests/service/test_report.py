"""Aggregate report: counts, per-job detail, phase rollups, rendering."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    CampaignManifest,
    CampaignRunner,
    JobSpec,
    build_report,
    render_report,
)
from repro.service.util import read_json
from repro.service.worker import REPORT_FILENAME, job_dir


@pytest.fixture(scope="module")
def mixed_campaign(tmp_path_factory, testjobs):
    """One run shared by the tests below: a completed and a failed job."""
    manifest = CampaignManifest(
        name="reporty",
        max_parallel=2,
        jobs=[
            JobSpec(job_id="ok-1", experiment=f"python:{testjobs}:run_ok"),
            JobSpec(job_id="bad-1", experiment=f"python:{testjobs}:run_crash"),
        ],
    )
    camp = tmp_path_factory.mktemp("reporty") / "camp"
    return camp, CampaignRunner(manifest, camp).run()


def test_report_counts_and_persistence(mixed_campaign):
    camp, report = mixed_campaign
    counts = report["counts"]
    assert counts == {
        "jobs": 2,
        "completed": 1,
        "failed": 1,
        "pending": 0,
        "retries": 1,
        "attempts": 3,
    }
    assert report["campaign"] == "reporty"
    assert report["wall_s"] > 0
    assert report["throughput_jobs_per_min"] > 0
    # the persisted artifact matches what run() returned
    on_disk = read_json(camp / REPORT_FILENAME)
    assert on_disk == json.loads(json.dumps(report))
    # rebuilding from artifacts alone agrees (status-command path)
    rebuilt = build_report(camp)
    assert rebuilt["counts"] == counts
    assert rebuilt["jobs"]["bad-1"]["last_error"]


def test_report_includes_phase_rollup(mixed_campaign):
    camp, _ = mixed_campaign
    # synthetic jobs produce no repro phases, but the telemetry summary
    # exists; fabricate a phase file to prove the rollup sums across jobs
    for job, total in (("ok-1", 1.5), ("bad-1", 0.5)):
        tdir = job_dir(camp, job) / "telemetry"
        tdir.mkdir(parents=True, exist_ok=True)
        (tdir / "summary.json").write_text(
            json.dumps(
                {
                    "phases": {
                        "collide": {
                            "total_s": total,
                            "count": 10,
                            "max_s": total / 2,
                        }
                    }
                }
            )
        )
    rebuilt = build_report(camp)
    roll = rebuilt["phase_rollup"]["collide"]
    assert roll["total_s"] == 2.0
    assert roll["count"] == 20
    assert roll["n_jobs"] == 2
    assert roll["max_s"] == 0.75


def test_render_report_is_human_readable(mixed_campaign):
    _, report = mixed_campaign
    text = render_report(report)
    assert "reporty" in text
    assert "ok-1" in text
    assert "bad-1" in text
    assert "failed" in text
    assert "last error" in text
