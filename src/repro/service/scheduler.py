"""Campaign scheduler: bounded parallelism, one retry, resume.

:class:`CampaignRunner` runs a validated manifest's jobs to completion:

* **admission** — jobs are admitted in manifest order, at most
  ``max_parallel`` at once;
* **isolation** — each attempt runs in its own subprocess (``python -m
  repro campaign _worker``) with its own telemetry directory and RNG
  seed; a crashing job takes down only itself;
* **robustness** — crash capture (exit code + log tail into the
  ledger), and a crashed attempt is re-admitted at once, up to
  :data:`MAX_ATTEMPTS` attempts per job; a job that checkpointed before
  dying resumes from its shard, not step 0;
* **observability** — every transition is one fsync'd JSONL ledger
  line, the only status source: ``campaign status`` folds it (plus the
  result files) into the same report the end of the campaign writes as
  ``report.json`` (:mod:`repro.service.report`).

``resume=True`` re-admits exactly the jobs without a ``result.json`` —
completed work is never re-run, and partially-run jobs restart from
their last checkpoint shard via the worker's normal resume path.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .ledger import Ledger
from .manifest import CampaignManifest, JobSpec
from .report import build_report, write_report
from .worker import (
    CHECKPOINT_FILENAME,
    LEDGER_FILENAME,
    MANIFEST_FILENAME,
    RESULT_FILENAME,
    job_dir,
)
from .util import read_json, tail_lines

#: Attempts per job: a crashed attempt is re-run once, from its
#: checkpoint shard when it saved one.
MAX_ATTEMPTS = 2

#: Seconds between polls of the running workers.
POLL_INTERVAL_S = 0.05


@dataclass
class _Attempt:
    """One in-flight job attempt."""

    spec: JobSpec
    attempt: int
    started: float
    proc: subprocess.Popen
    log_path: Path
    error: str | None = None


class CampaignRunner:
    """Schedules one campaign to completion (or exhaustion of retries)."""

    def __init__(self, manifest: CampaignManifest, out_dir: str | Path):
        manifest.validate()
        self.manifest = manifest
        self.out_dir = Path(out_dir)
        self.ledger_path = self.out_dir / LEDGER_FILENAME

    def _completed(self, job_id: str) -> bool:
        return (job_dir(self.out_dir, job_id) / RESULT_FILENAME).exists()

    def run(self, resume: bool = False) -> dict:
        """Run the campaign; returns the aggregate report dict."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest.save(self.out_dir / MANIFEST_FILENAME)
        ledger = Ledger(self.ledger_path)
        ledger.append(
            "campaign_resume" if resume else "campaign_start",
            name=self.manifest.name,
            n_jobs=len(self.manifest.jobs),
            max_parallel=self.manifest.max_parallel,
        )
        t_start = time.monotonic()

        ready: list[tuple[JobSpec, int]] = []  # (spec, attempt number)
        for spec in self.manifest.jobs:
            if resume and self._completed(spec.job_id):
                ledger.append("skipped_completed", job=spec.job_id)
                continue
            ready.append((spec, 1))
            ledger.append(
                "submitted",
                job=spec.job_id,
                experiment=spec.experiment,
                resumable=(
                    job_dir(self.out_dir, spec.job_id) / CHECKPOINT_FILENAME
                ).exists(),
            )

        running: list[_Attempt] = []
        n_failed = n_completed = 0

        try:
            while ready or running:
                while ready and len(running) < self.manifest.max_parallel:
                    running.append(self._launch(ledger, *ready.pop(0)))
                still: list[_Attempt] = []
                retries: list[tuple[JobSpec, int]] = []
                for att in running:
                    outcome = self._poll(ledger, att)
                    if outcome is None:
                        still.append(att)
                    elif outcome:
                        n_completed += 1
                    elif att.attempt < MAX_ATTEMPTS:
                        ledger.append(
                            "retry_scheduled",
                            job=att.spec.job_id,
                            attempt=att.attempt + 1,
                        )
                        retries.append((att.spec, att.attempt + 1))
                    else:
                        ledger.append(
                            "failed",
                            job=att.spec.job_id,
                            attempts=att.attempt,
                            error=att.error,
                        )
                        n_failed += 1
                running = still
                # A retry holds a checkpoint worth finishing: it goes
                # ahead of the jobs not yet started.
                ready = retries + ready
                if running:
                    time.sleep(POLL_INTERVAL_S)
            ledger.append(
                "campaign_end",
                name=self.manifest.name,
                wall_s=time.monotonic() - t_start,
                completed=n_completed,
                failed=n_failed,
            )
        finally:
            ledger.close()
        report = build_report(self.out_dir)
        write_report(self.out_dir, report)
        return report

    # -- attempt management --------------------------------------------
    def _launch(self, ledger: Ledger, spec: JobSpec, attempt: int) -> _Attempt:
        now = time.monotonic()
        jdir = job_dir(self.out_dir, spec.job_id)
        jdir.mkdir(parents=True, exist_ok=True)
        log_path = jdir / f"attempt-{attempt}.log"
        env = dict(os.environ)
        # Workers import repro from the same tree the scheduler runs.
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [src_root, env.get("PYTHONPATH")] if p
        )
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "campaign", "_worker",
                    "--dir", str(self.out_dir),
                    "--job", spec.job_id,
                    "--attempt", str(attempt),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        att = _Attempt(spec=spec, attempt=attempt, started=now, proc=proc,
                       log_path=log_path)
        ledger.append(
            "started",
            job=spec.job_id,
            attempt=attempt,
            pid=proc.pid,
        )
        return att

    def _poll(self, ledger: Ledger, att: _Attempt) -> bool | None:
        """Check one attempt; record its transition when it ends.

        Returns None while it runs, else whether it completed.
        """
        rc = att.proc.poll()
        if rc is None:
            return None
        now = time.monotonic()
        if rc == 0:
            start_step = 0
            result_path = (
                job_dir(self.out_dir, att.spec.job_id) / RESULT_FILENAME
            )
            try:
                start_step = int(read_json(result_path).get("start_step", 0))
            except (OSError, ValueError):
                pass
            ledger.append(
                "completed",
                job=att.spec.job_id,
                attempt=att.attempt,
                wall_s=now - att.started,
                start_step=start_step,
            )
            return True
        att.error = f"exit code {rc}"
        ledger.append(
            "crashed",
            job=att.spec.job_id,
            attempt=att.attempt,
            exit_code=rc,
            wall_s=now - att.started,
            error=att.error,
            log_tail=tail_lines(att.log_path),
        )
        return False
