"""Campaign scheduler: bounded parallelism, timeouts, retries, resume.

:class:`CampaignRunner` turns a validated manifest into a fleet of job
attempts:

* **admission control** — at most ``max_parallel`` jobs run at once;
  ready jobs are admitted by descending ``priority`` (manifest order
  breaks ties), so cheap smoke jobs can be pushed ahead of long sweeps;
* **isolation** — each attempt runs in its own subprocess (``python -m
  repro campaign _worker``) with its own telemetry directory and RNG
  seed; a crashing job takes down only itself;
* **robustness** — per-attempt wall-clock timeouts (terminate, then
  kill), crash capture (exit code + log tail into the ledger), and
  retry with exponential backoff up to ``max_attempts``; a job that
  checkpointed before dying resumes from its shard, not step 0;
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

#: Backoff growth is capped so a flaky long campaign keeps probing.
MAX_BACKOFF_S = 30.0


@dataclass
class _Attempt:
    """One in-flight job attempt."""

    spec: JobSpec
    attempt: int
    started: float
    deadline: float | None
    proc: subprocess.Popen
    log_path: Path
    error: str | None = None


class CampaignRunner:
    """Schedules one campaign to completion (or exhaustion of retries)."""

    def __init__(
        self,
        manifest: CampaignManifest,
        out_dir: str | Path,
        poll_interval: float = 0.05,
    ):
        manifest.validate()
        self.manifest = manifest
        self.out_dir = Path(out_dir)
        self.poll_interval = float(poll_interval)
        self.ledger_path = self.out_dir / LEDGER_FILENAME

    # -- setup ---------------------------------------------------------
    def prepare(self) -> None:
        """Create the campaign directory and persist the manifest copy."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest.save(self.out_dir / MANIFEST_FILENAME)

    def _completed(self, job_id: str) -> bool:
        return (job_dir(self.out_dir, job_id) / RESULT_FILENAME).exists()

    # -- main loop -----------------------------------------------------
    def run(self, resume: bool = False) -> dict:
        """Run the campaign; returns the aggregate report dict."""
        self.prepare()
        ledger = Ledger(self.ledger_path)
        ledger.append(
            "campaign_resume" if resume else "campaign_start",
            name=self.manifest.name,
            n_jobs=len(self.manifest.jobs),
            max_parallel=self.manifest.max_parallel,
        )
        t_start = time.monotonic()

        ready: list[JobSpec] = []
        for order, spec in enumerate(self.manifest.jobs):
            if resume and self._completed(spec.job_id):
                ledger.append("skipped_completed", job=spec.job_id)
                continue
            ready.append(spec)
            ledger.append(
                "submitted",
                job=spec.job_id,
                experiment=spec.experiment,
                priority=spec.priority,
                resumable=(
                    job_dir(self.out_dir, spec.job_id) / CHECKPOINT_FILENAME
                ).exists(),
            )
        # Admission order: priority first, manifest order as tiebreak.
        order_index = {s.job_id: i for i, s in enumerate(self.manifest.jobs)}
        ready.sort(key=lambda s: (-s.priority, order_index[s.job_id]))

        attempts_done: dict[str, int] = {s.job_id: 0 for s in ready}
        waiting: list[tuple[float, JobSpec]] = []  # (not_before, spec)
        running: list[_Attempt] = []
        failed: list[str] = []
        completed: list[str] = []

        try:
            while ready or waiting or running:
                now = time.monotonic()
                # Promote cooled-down retries ahead of fresh admissions:
                # they already hold checkpoints worth finishing.
                due = [w for w in waiting if w[0] <= now]
                if due:
                    waiting = [w for w in waiting if w[0] > now]
                    ready = [w[1] for w in due] + ready
                while ready and len(running) < self.manifest.max_parallel:
                    spec = ready.pop(0)
                    running.append(
                        self._launch(ledger, spec, attempts_done)
                    )
                still: list[_Attempt] = []
                for att in running:
                    outcome = self._poll(ledger, att)
                    if outcome is None:
                        still.append(att)
                    elif outcome == "completed":
                        completed.append(att.spec.job_id)
                    else:  # crashed / timeout -> retry or fail
                        n = attempts_done[att.spec.job_id]
                        if n < att.spec.max_attempts:
                            delay = min(
                                self.manifest.retry_backoff_s
                                * 2.0 ** (n - 1),
                                MAX_BACKOFF_S,
                            )
                            ledger.append(
                                "retry_scheduled",
                                job=att.spec.job_id,
                                attempt=n + 1,
                                delay_s=round(delay, 3),
                            )
                            waiting.append(
                                (time.monotonic() + delay, att.spec)
                            )
                        else:
                            ledger.append(
                                "failed",
                                job=att.spec.job_id,
                                attempts=n,
                                error=att.error,
                            )
                            failed.append(att.spec.job_id)
                running = still
                if running or waiting:
                    time.sleep(self.poll_interval)
            wall_s = time.monotonic() - t_start
            ledger.append(
                "campaign_end",
                name=self.manifest.name,
                wall_s=wall_s,
                completed=len(completed),
                failed=len(failed),
            )
        finally:
            ledger.close()
        report = build_report(self.out_dir)
        write_report(self.out_dir, report)
        return report

    # -- attempt management --------------------------------------------
    def _launch(
        self,
        ledger: Ledger,
        spec: JobSpec,
        attempts_done: dict[str, int],
    ) -> _Attempt:
        attempt = attempts_done[spec.job_id] + 1
        attempts_done[spec.job_id] = attempt
        now = time.monotonic()
        deadline = None if spec.timeout_s is None else now + spec.timeout_s
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
        att = _Attempt(spec=spec, attempt=attempt, started=now,
                       deadline=deadline, proc=proc, log_path=log_path)
        ledger.append(
            "started",
            job=spec.job_id,
            attempt=attempt,
            pid=proc.pid,
        )
        return att

    def _poll(self, ledger: Ledger, att: _Attempt) -> str | None:
        """Check one attempt; record its transition when it ends.

        Returns None while running, else "completed"/"crashed"/"timeout".
        """
        now = time.monotonic()
        rc = att.proc.poll()
        if rc is None:
            if att.deadline is not None and now > att.deadline:
                self._kill(att.proc)
                att.error = f"timeout after {att.spec.timeout_s}s"
                ledger.append(
                    "timeout",
                    job=att.spec.job_id,
                    attempt=att.attempt,
                    timeout_s=att.spec.timeout_s,
                    wall_s=now - att.started,
                    error=att.error,
                )
                return "timeout"
            return None
        if rc == 0:
            return self._record_completed(ledger, att, now)
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
        return "crashed"

    def _record_completed(
        self, ledger: Ledger, att: _Attempt, now: float
    ) -> str:
        start_step = 0
        result_path = job_dir(self.out_dir, att.spec.job_id) / RESULT_FILENAME
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
        return "completed"

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass


def run_campaign(
    manifest: CampaignManifest,
    out_dir: str | Path,
    resume: bool = False,
) -> dict:
    """Convenience wrapper: schedule ``manifest`` into ``out_dir``."""
    return CampaignRunner(manifest, out_dir).run(resume=resume)
