"""Job worker: runs exactly one campaign job in the current process.

The scheduler launches this through ``python -m repro campaign _worker``,
one subprocess per attempt, so a crash takes down only its own job.

Per-job isolation:

* **telemetry** — each job writes its own ``jobs/<id>/telemetry/``
  stream + summary; nothing is shared with siblings;
* **RNG seeds** — a job gets a stable per-job seed derived from the
  campaign and job names (unless its params set ``seed``), so sibling
  jobs never share RBC placements and re-running a campaign reproduces
  it.

On success the worker atomically writes ``jobs/<id>/result.json``; its
presence is the scheduler's (and ``campaign resume``'s) completion
marker, so a kill between "work finished" and "result recorded" just
reruns the tail of the job from its last checkpoint.
"""

from __future__ import annotations

import time
import zlib
from pathlib import Path

from ..telemetry.events import atomic_write_json
from .checkpointing import JobCheckpointer
from .manifest import CampaignManifest, JobSpec, load_manifest
from .registry import load_runner, resolve

#: Normalized manifest copy the scheduler persists inside the campaign
#: directory; workers and ``resume``/``status`` all read this, never the
#: user's original file (which may have moved).
MANIFEST_FILENAME = "manifest.json"
LEDGER_FILENAME = "ledger.jsonl"
REPORT_FILENAME = "report.json"
RESULT_FILENAME = "result.json"
CHECKPOINT_FILENAME = "checkpoint.npz"


def job_dir(campaign_dir: str | Path, job_id: str) -> Path:
    return Path(campaign_dir) / "jobs" / job_id


def load_campaign_manifest(campaign_dir: str | Path) -> CampaignManifest:
    """The campaign's persisted manifest; a malformed one raises
    ``ValueError`` with the file's path in front (``load_manifest``)."""
    return load_manifest(Path(campaign_dir) / MANIFEST_FILENAME)


def derive_seed(campaign_name: str, job_id: str) -> int:
    """Stable per-job RNG seed: reproducible, distinct across siblings."""
    return zlib.crc32(f"{campaign_name}/{job_id}".encode())


def build_job_params(manifest: CampaignManifest, spec: JobSpec) -> dict:
    """Merge the spec's budget/seed knobs into its experiment params."""
    entry = resolve(spec.experiment)
    params = dict(spec.params)
    if spec.steps is not None:
        params.setdefault(entry.steps_param, spec.steps)
    if entry.accepts_seed:
        params.setdefault("seed", derive_seed(manifest.name, spec.job_id))
    return params


def run_job(
    campaign_dir: str | Path,
    job_id: str,
    attempt: int = 1,
) -> dict:
    """Execute one job attempt; returns (and persists) the result record."""
    campaign_dir = Path(campaign_dir)
    manifest = load_campaign_manifest(campaign_dir)
    spec = manifest.job(job_id)
    entry = resolve(spec.experiment)
    jdir = job_dir(campaign_dir, job_id)
    jdir.mkdir(parents=True, exist_ok=True)

    checkpointer = None
    if spec.checkpoint_every > 0 or (jdir / CHECKPOINT_FILENAME).exists():
        checkpointer = JobCheckpointer(
            jdir / CHECKPOINT_FILENAME, every=spec.checkpoint_every
        )

    params = build_job_params(manifest, spec)
    runner = load_runner(entry)

    from ..telemetry import Telemetry, active

    tel = Telemetry(
        out_dir=jdir / "telemetry",
        meta={
            "campaign": manifest.name,
            "job": job_id,
            "attempt": attempt,
            "experiment": spec.experiment,
        },
    )
    t0 = time.perf_counter()
    with tel, active(tel):
        tel.event("job_start", job=job_id, attempt=attempt,
                  experiment=spec.experiment)
        summary = runner(params, checkpointer=checkpointer)
        wall_s = time.perf_counter() - t0
        tel.event("job_end", job=job_id, attempt=attempt, wall_s=wall_s)
        tel.write_summary()

    result = {
        "job_id": job_id,
        "experiment": spec.experiment,
        "attempt": attempt,
        "status": "completed",
        "start_step": (
            0
            if checkpointer is None or checkpointer.resumed_from is None
            else int(checkpointer.resumed_from)
        ),
        "n_checkpoints": 0 if checkpointer is None else checkpointer.n_saves,
        "wall_s": wall_s,
        "params": params,
        "summary": summary,
    }
    atomic_write_json(jdir / RESULT_FILENAME, result)
    return result


def main(argv: list[str] | None = None) -> int:
    """``python -m repro campaign _worker`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro campaign _worker")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--attempt", type=int, default=1)
    args = parser.parse_args(argv)
    result = run_job(args.dir, args.job, attempt=args.attempt)
    print(
        f"[{result['job_id']}] attempt {result['attempt']} completed in "
        f"{result['wall_s']:.2f}s (resumed from step {result['start_step']})"
    )
    return 0
