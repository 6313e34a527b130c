"""Scheduler failure paths: retries, sibling isolation, kill + resume.

These tests drive the real ``CampaignRunner`` — including worker
subprocesses — against synthetic jobs from the ``testjobs`` fixture.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import (
    CampaignManifest,
    CampaignRunner,
    JobSpec,
    read_ledger,
)
from repro.service.ledger import job_states
from repro.service.worker import LEDGER_FILENAME, RESULT_FILENAME, job_dir
from repro.service.util import read_json


def _events(camp_dir, job):
    return [
        r["event"]
        for r in read_ledger(camp_dir / LEDGER_FILENAME)
        if r.get("job") == job
    ]


def test_crashing_job_fails_without_blocking_siblings(tmp_path, testjobs):
    """A job that crashes retries its configured count, is marked failed
    in the ledger, and its sibling still completes."""
    manifest = CampaignManifest(
        name="crashy",
        max_parallel=2,
        retry_backoff_s=0.05,
        jobs=[
            JobSpec(
                job_id="bad",
                experiment=f"python:{testjobs}:run_crash",
                max_attempts=3,
            ),
            JobSpec(
                job_id="good",
                experiment=f"python:{testjobs}:run_ok",
                steps=3,
                max_attempts=1,
            ),
        ],
    )
    camp = tmp_path / "camp"
    report = CampaignRunner(manifest, camp, poll_interval=0.02).run()

    assert report["counts"]["completed"] == 1
    assert report["counts"]["failed"] == 1
    assert report["counts"]["retries"] == 2  # attempts 2 and 3
    assert report["jobs"]["bad"]["status"] == "failed"
    assert report["jobs"]["bad"]["attempts"] == 3
    assert report["jobs"]["good"]["status"] == "completed"
    # the sibling's result landed on disk
    result = read_json(job_dir(camp, "good") / RESULT_FILENAME)
    assert result["summary"]["seen_steps"] == 3
    # ledger story: 3 starts, 3 crashes, 2 retries, 1 failed
    ev = _events(camp, "bad")
    assert ev.count("started") == 3
    assert ev.count("crashed") == 3
    assert ev.count("retry_scheduled") == 2
    assert ev[-1] == "failed"
    # crash capture includes the subprocess traceback tail
    crashes = [
        r
        for r in read_ledger(camp / LEDGER_FILENAME)
        if r.get("event") == "crashed"
    ]
    assert any("deliberate crash" in (r.get("log_tail") or "") for r in crashes)


def test_retry_recovers_transient_failure(tmp_path, testjobs):
    marker = tmp_path / "attempted.marker"
    manifest = CampaignManifest(
        name="flaky",
        retry_backoff_s=0.05,
        jobs=[
            JobSpec(
                job_id="flaky",
                experiment=f"python:{testjobs}:run_crash_once",
                params={"marker": str(marker)},
                max_attempts=2,
            )
        ],
    )
    report = CampaignRunner(
        manifest, tmp_path / "camp", poll_interval=0.02
    ).run()
    assert report["counts"]["failed"] == 0
    assert report["jobs"]["flaky"]["status"] == "completed"
    assert report["jobs"]["flaky"]["attempts"] == 2
    assert report["jobs"]["flaky"]["summary"] == {"recovered": True}


def test_timeout_kills_and_fails(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="timeouts",
        retry_backoff_s=0.01,
        jobs=[
            JobSpec(
                job_id="sleepy",
                experiment=f"python:{testjobs}:run_slow",
                params={"dt": 0.2},
                steps=200,  # 40s of sleeping vs a 1.5s budget
                timeout_s=1.5,
                max_attempts=1,
            )
        ],
    )
    t0 = time.monotonic()
    report = CampaignRunner(
        manifest, tmp_path / "camp", poll_interval=0.02
    ).run()
    assert time.monotonic() - t0 < 20.0  # killed, not awaited
    assert report["jobs"]["sleepy"]["status"] == "failed"
    assert "timeout" in report["jobs"]["sleepy"]["last_error"]
    ev = _events(tmp_path / "camp", "sleepy")
    assert "timeout" in ev


def test_priority_orders_admission(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="prio",
        max_parallel=1,
        jobs=[
            JobSpec(
                job_id="low",
                experiment=f"python:{testjobs}:run_ok",
                priority=0,
                max_attempts=1,
            ),
            JobSpec(
                job_id="high",
                experiment=f"python:{testjobs}:run_ok",
                priority=5,
                max_attempts=1,
            ),
        ],
    )
    camp = tmp_path / "camp"
    CampaignRunner(manifest, camp, poll_interval=0.01).run()
    starts = [
        r["job"]
        for r in read_ledger(camp / LEDGER_FILENAME)
        if r["event"] == "started"
    ]
    assert starts == ["high", "low"]


def test_crash_retries_then_sibling_runs_one_at_a_time(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="serial-crash",
        max_parallel=1,
        jobs=[
            JobSpec(
                job_id="crashy",
                experiment=f"python:{testjobs}:run_crash",
                max_attempts=2,
            ),
            JobSpec(
                job_id="fine",
                experiment=f"python:{testjobs}:run_ok",
                max_attempts=1,
            ),
        ],
        retry_backoff_s=0.01,
    )
    report = CampaignRunner(
        manifest, tmp_path / "camp", poll_interval=0.01
    ).run()
    assert report["jobs"]["crashy"]["status"] == "failed"
    assert report["jobs"]["crashy"]["last_error"] == "exit code 1"
    # the worker's traceback reaches the ledger through the log tail
    crashes = [
        r
        for r in read_ledger(tmp_path / "camp" / LEDGER_FILENAME)
        if r.get("event") == "crashed"
    ]
    assert len(crashes) == 2
    assert all("RuntimeError" in r["log_tail"] for r in crashes)
    assert report["jobs"]["fine"]["status"] == "completed"


@pytest.mark.slow
def test_sigkill_then_resume_continues_from_checkpoints(tmp_path, testjobs):
    """Killing the whole campaign mid-flight and resuming completes the
    remaining jobs from their checkpoint shards — never from step 0."""
    manifest_toml = f"""\
name = "killable"
max_parallel = 2

[[jobs]]
id = "fast"
experiment = "python:{testjobs}:run_ok"
max_attempts = 1

[[jobs]]
id = "slow-a"
experiment = "python:{testjobs}:run_slow"
steps = 120
checkpoint_every = 5
max_attempts = 1
[jobs.params]
dt = 0.05

[[jobs]]
id = "slow-b"
experiment = "python:{testjobs}:run_slow"
steps = 120
checkpoint_every = 5
max_attempts = 1
[jobs.params]
dt = 0.05
"""
    mpath = tmp_path / "killable.toml"
    mpath.write_text(manifest_toml)
    camp = tmp_path / "camp"

    import repro

    src_root = str(os.path.dirname(os.path.dirname(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            str(mpath), "--out", str(camp),
        ],
        env=env,
        start_new_session=True,  # its own process group => killable fleet
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # wait for both slow jobs to have real checkpoints on disk
        deadline = time.monotonic() + 60.0
        ck_a = job_dir(camp, "slow-a") / "checkpoint.npz"
        ck_b = job_dir(camp, "slow-b") / "checkpoint.npz"
        while time.monotonic() < deadline:
            if ck_a.exists() and ck_b.exists():
                break
            if proc.poll() is not None:
                pytest.fail("campaign finished before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("checkpoints never appeared")
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    finally:
        proc.wait(timeout=10)

    # the kill left work behind: slow jobs have no result.json yet
    assert not (job_dir(camp, "slow-a") / RESULT_FILENAME).exists()
    assert not (job_dir(camp, "slow-b") / RESULT_FILENAME).exists()

    from repro.service.worker import load_campaign_manifest

    manifest = load_campaign_manifest(camp)
    report = CampaignRunner(manifest, camp, poll_interval=0.02).run(
        resume=True
    )
    assert report["counts"]["failed"] == 0
    assert report["counts"]["completed"] == 3
    for job in ("slow-a", "slow-b"):
        result = read_json(job_dir(camp, job) / RESULT_FILENAME)
        # zero re-run-from-step-0 jobs: both resumed mid-stream
        assert result["start_step"] > 0
        assert result["summary"]["resumed_from"] == result["start_step"]
    # a job that finished before the kill must be skipped, not re-run
    records = read_ledger(camp / LEDGER_FILENAME)
    resume_ts = next(
        r["ts"] for r in records if r.get("event") == "campaign_resume"
    )
    skipped = {
        r["job"] for r in records if r.get("event") == "skipped_completed"
    }
    restarted = {
        r["job"]
        for r in records
        if r.get("event") == "started" and r["ts"] >= resume_ts
    }
    assert not (skipped & restarted)


def test_resume_skips_completed_jobs(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="resume-skip",
        jobs=[
            JobSpec(
                job_id="only",
                experiment=f"python:{testjobs}:run_ok",
                max_attempts=1,
            )
        ],
    )
    camp = tmp_path / "camp"
    CampaignRunner(manifest, camp, poll_interval=0.01).run()
    report = CampaignRunner(manifest, camp, poll_interval=0.01).run(
        resume=True
    )
    assert report["jobs"]["only"]["status"] == "completed"
    ev = _events(camp, "only")
    assert "skipped_completed" in ev
    # exactly one real execution across both runs
    assert ev.count("started") == 1


def test_worker_env_isolation(tmp_path, testjobs):
    """backend/workers knobs reach the worker subprocess environment."""
    manifest = CampaignManifest(
        name="envcheck",
        jobs=[
            JobSpec(
                job_id="probe",
                experiment=f"python:{testjobs}:run_env_probe",
                backend="processes",
                workers=3,
                max_attempts=1,
            )
        ],
    )
    camp = tmp_path / "camp"
    report = CampaignRunner(manifest, camp, poll_interval=0.02).run()
    summary = report["jobs"]["probe"]["summary"]
    assert summary["backend"] == "processes"
    assert summary["workers"] == "3"
    assert summary["pid"] != os.getpid()  # really ran out-of-process
