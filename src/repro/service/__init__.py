"""repro.service — campaign runner for fleets of concurrent simulations.

Declares campaigns in TOML/JSON manifests (:mod:`.manifest`), schedules
them with bounded parallelism, retries and timeouts (:mod:`.scheduler`),
isolates each job's process/telemetry/seed (:mod:`.worker`), shards
checkpoints for kill-and-resume (:mod:`.checkpointing`), and streams an
append-only run ledger plus an aggregate report (:mod:`.ledger`,
:mod:`.report`).  The CLI surface is ``python -m repro campaign
run|status|resume``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpointing": ("JobCheckpointer",),
    ".ledger": ("Ledger", "JobLedgerState", "job_states", "read_ledger"),
    ".manifest": (
        "CampaignManifest",
        "JobSpec",
        "load_manifest",
        "manifest_from_dict",
    ),
    ".registry": ("EXPERIMENTS", "resolve"),
    ".report": ("build_report", "render_report", "write_report"),
    ".scheduler": ("CampaignRunner", "run_campaign"),
    ".status": ("campaign_status", "fetch_live_status", "render_status"),
    ".worker": ("derive_seed", "job_dir", "run_job"),
})
