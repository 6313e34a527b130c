"""Scheduler failure paths: the one retry, sibling isolation, kill + resume.

These tests drive the real ``CampaignRunner`` — including worker
subprocesses — against synthetic jobs from the ``testjobs`` fixture.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.service import (
    CampaignManifest,
    CampaignRunner,
    JobSpec,
    read_ledger,
)
from repro.service.scheduler import MAX_ATTEMPTS
from repro.service.worker import LEDGER_FILENAME, RESULT_FILENAME, job_dir
from repro.service.util import read_json

from .conftest import wait_for


def _events(camp_dir, job):
    return [
        r["event"]
        for r in read_ledger(camp_dir / LEDGER_FILENAME)
        if r.get("job") == job
    ]


def test_crashing_job_fails_without_blocking_siblings(tmp_path, testjobs):
    """A job that crashes is re-run once, is marked failed in the ledger,
    and its sibling still completes in its own process."""
    manifest = CampaignManifest(
        name="crashy",
        max_parallel=2,
        jobs=[
            JobSpec(job_id="bad", experiment=f"python:{testjobs}:run_crash"),
            JobSpec(
                job_id="good",
                experiment=f"python:{testjobs}:run_ok",
                steps=3,
            ),
        ],
    )
    camp = tmp_path / "camp"
    report = CampaignRunner(manifest, camp).run()

    assert MAX_ATTEMPTS == 2
    assert report["counts"]["completed"] == 1
    assert report["counts"]["failed"] == 1
    assert report["counts"]["retries"] == 1
    assert report["jobs"]["bad"]["status"] == "failed"
    assert report["jobs"]["bad"]["attempts"] == 2
    assert report["jobs"]["good"]["status"] == "completed"
    # the sibling's result landed on disk, written by a worker process
    result = read_json(job_dir(camp, "good") / RESULT_FILENAME)
    assert result["summary"]["seen_steps"] == 3
    assert result["summary"]["pid"] != os.getpid()
    # ledger story: 2 starts, 2 crashes, 1 retry, 1 failed
    ev = _events(camp, "bad")
    assert ev.count("started") == 2
    assert ev.count("crashed") == 2
    assert ev.count("retry_scheduled") == 1
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
        jobs=[
            JobSpec(
                job_id="flaky",
                experiment=f"python:{testjobs}:run_crash_once",
                params={"marker": str(marker)},
            )
        ],
    )
    report = CampaignRunner(manifest, tmp_path / "camp").run()
    assert report["counts"]["failed"] == 0
    assert report["jobs"]["flaky"]["status"] == "completed"
    assert report["jobs"]["flaky"]["attempts"] == 2
    assert report["jobs"]["flaky"]["summary"] == {"recovered": True}


def test_jobs_are_admitted_in_manifest_order(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="order",
        max_parallel=1,
        jobs=[
            JobSpec(job_id=job_id, experiment=f"python:{testjobs}:run_ok")
            for job_id in ("b", "a")
        ],
    )
    camp = tmp_path / "camp"
    CampaignRunner(manifest, camp).run()
    starts = [
        r["job"]
        for r in read_ledger(camp / LEDGER_FILENAME)
        if r["event"] == "started"
    ]
    assert starts == ["b", "a"]


def test_crash_retries_then_sibling_runs_one_at_a_time(tmp_path, testjobs):
    """One slot: the retry goes ahead of the job not yet started."""
    manifest = CampaignManifest(
        name="serial-crash",
        max_parallel=1,
        jobs=[
            JobSpec(job_id="crashy", experiment=f"python:{testjobs}:run_crash"),
            JobSpec(job_id="fine", experiment=f"python:{testjobs}:run_ok"),
        ],
    )
    camp = tmp_path / "camp"
    report = CampaignRunner(manifest, camp).run()
    assert report["jobs"]["crashy"]["status"] == "failed"
    assert report["jobs"]["crashy"]["last_error"] == "exit code 1"
    # the worker's traceback reaches the ledger through the log tail
    records = read_ledger(camp / LEDGER_FILENAME)
    crashes = [r for r in records if r.get("event") == "crashed"]
    assert len(crashes) == 2
    assert all("RuntimeError" in r["log_tail"] for r in crashes)
    starts = [r["job"] for r in records if r.get("event") == "started"]
    assert starts == ["crashy", "crashy", "fine"]
    assert report["jobs"]["fine"]["status"] == "completed"


@pytest.mark.slow
def test_sigkill_then_resume_continues_from_checkpoints(tmp_path, testjobs):
    """Killing the whole campaign mid-flight and resuming completes the
    remaining jobs from their checkpoint shards — never from step 0."""
    gates = {job: tmp_path / job for job in ("slow-a", "slow-b")}
    jobs = "".join(
        f"""
[[jobs]]
id = "{job}"
experiment = "python:{testjobs}:run_gated"
steps = 10
checkpoint_every = 5
[jobs.params]
hold = 5
gate = "{gate}"
"""
        for job, gate in gates.items()
    )
    mpath = tmp_path / "killable.toml"
    mpath.write_text(f"""\
name = "killable"
max_parallel = 2

[[jobs]]
id = "fast"
experiment = "python:{testjobs}:run_ok"
{jobs}""")
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
        # both gated jobs hold at step 5, after saving their step-5 shard
        for gate in gates.values():
            wait_for(gate.with_name(gate.name + ".held"), proc)
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    finally:
        proc.wait(timeout=10)

    # the kill left work behind: the gated jobs have no result.json yet
    for job in gates:
        assert (job_dir(camp, job) / "checkpoint.npz").exists()
        assert not (job_dir(camp, job) / RESULT_FILENAME).exists()
    for gate in gates.values():
        gate.with_name(gate.name + ".release").touch()

    from repro.service.worker import load_campaign_manifest

    manifest = load_campaign_manifest(camp)
    report = CampaignRunner(manifest, camp).run(resume=True)
    assert report["counts"]["failed"] == 0
    assert report["counts"]["completed"] == 3
    for job in gates:
        result = read_json(job_dir(camp, job) / RESULT_FILENAME)
        # zero re-run-from-step-0 jobs: both resumed mid-stream
        assert result["start_step"] == 5
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
    assert skipped == {"fast"}
    assert restarted == set(gates)


def test_resume_skips_completed_jobs(tmp_path, testjobs):
    manifest = CampaignManifest(
        name="resume-skip",
        jobs=[JobSpec(job_id="only", experiment=f"python:{testjobs}:run_ok")],
    )
    camp = tmp_path / "camp"
    CampaignRunner(manifest, camp).run()
    report = CampaignRunner(manifest, camp).run(resume=True)
    assert report["jobs"]["only"]["status"] == "completed"
    ev = _events(camp, "only")
    assert "skipped_completed" in ev
    # exactly one real execution across both runs
    assert ev.count("started") == 1
