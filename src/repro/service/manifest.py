"""Campaign manifests: declarative descriptions of many-simulation runs.

A manifest is a TOML or JSON document declaring a campaign as a list of
jobs, each naming an experiment plus overrides::

    name = "validation"
    max_parallel = 2

    [defaults]
    checkpoint_every = 500

    [[jobs]]
    id = "e2-tube-ht20"
    experiment = "tube_window"
    steps = 18000
    [jobs.params]
    hematocrit = 0.20

    [[jobs]]
    id = "e1-shear-lam050-n2"
    experiment = "shear_layers"
    steps = 1500
    [jobs.params]
    lam = 0.5
    n = 2                # passed through verbatim: must be a parameter
                         # the experiment accepts

Fields in ``[defaults]`` apply to every job that does not set them
itself.  Jobs run in manifest order.  ``load_manifest`` validates the
document eagerly (unknown keys or experiments, duplicate or unsafe job
ids, bad counts) so a typo fails at admission rather than forty minutes
into a campaign.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..telemetry.events import atomic_write_json
from .registry import resolve
from .util import read_json

#: Job fields ``[defaults]`` may set.
_DEFAULTABLE = ("checkpoint_every",)

#: Keys a manifest's top level may carry.
_TOP_LEVEL = ("name", "max_parallel", "defaults", "jobs")


@dataclass
class JobSpec:
    """One schedulable simulation inside a campaign."""

    job_id: str
    experiment: str
    params: dict = field(default_factory=dict)
    #: Step budget mapped onto the experiment's steps parameter
    #: (``steps_per_stop`` for the upper-body sweep, ``steps`` elsewhere).
    steps: int | None = None
    checkpoint_every: int = 0  # steps between checkpoint shards

    def validate(self) -> None:
        if not self.job_id or not all(
            ch.isalnum() or ch in "._-" for ch in self.job_id
        ):
            raise ValueError(
                f"job id {self.job_id!r} must be non-empty and use only "
                "[A-Za-z0-9._-] (it becomes a directory name)"
            )
        resolve(self.experiment)  # raises on unknown names
        if not isinstance(self.params, dict):
            raise ValueError(f"job {self.job_id}: params must be a table/dict")
        if self.checkpoint_every < 0:
            raise ValueError(f"job {self.job_id}: checkpoint_every must be >= 0")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"job {self.job_id}: steps must be >= 1")


@dataclass
class CampaignManifest:
    """A named list of jobs and how many may run at once."""

    name: str
    jobs: list[JobSpec]
    max_parallel: int = 2

    def validate(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if not self.jobs:
            raise ValueError("campaign has no jobs")
        seen: set[str] = set()
        for job in self.jobs:
            job.validate()
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)

    def job(self, job_id: str) -> JobSpec:
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(job_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_parallel": self.max_parallel,
            "jobs": [asdict(j) for j in self.jobs],
        }

    def save(self, path: str | Path) -> Path:
        """Persist the normalized manifest (JSON, atomic)."""
        return atomic_write_json(path, self.to_dict())


def manifest_from_dict(doc: dict) -> CampaignManifest:
    """Build and validate a manifest from a parsed TOML/JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("manifest root must be a table/object")
    unknown_top = set(doc) - set(_TOP_LEVEL)
    if unknown_top:
        raise ValueError(
            f"unknown key(s) {sorted(unknown_top)}; "
            f"allowed: {sorted(_TOP_LEVEL)}"
        )
    defaults = doc.get("defaults", {})
    unknown_defaults = set(defaults) - set(_DEFAULTABLE)
    if unknown_defaults:
        raise ValueError(
            f"unknown [defaults] key(s) {sorted(unknown_defaults)}; "
            f"allowed: {sorted(_DEFAULTABLE)}"
        )
    known = {f for f in JobSpec.__dataclass_fields__ if f != "job_id"}
    jobs: list[JobSpec] = []
    for i, j in enumerate(doc.get("jobs", [])):
        if not isinstance(j, dict):
            raise ValueError(f"jobs[{i}] must be a table/object")
        j = dict(j)
        job_id = j.pop("id", j.pop("job_id", None))
        experiment = j.pop("experiment", None)
        if job_id is None or experiment is None:
            raise ValueError(f"jobs[{i}]: 'id' and 'experiment' are required")
        merged = {**defaults, **j}
        unknown = set(merged) - known
        if unknown:
            raise ValueError(
                f"job {job_id}: unknown key(s) {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        jobs.append(JobSpec(job_id=str(job_id), experiment=str(experiment),
                            **merged))
    manifest = CampaignManifest(
        name=str(doc.get("name", "campaign")),
        jobs=jobs,
        max_parallel=int(doc.get("max_parallel", 2)),
    )
    manifest.validate()
    return manifest


def load_manifest(path: str | Path) -> CampaignManifest:
    """Parse and validate a ``.toml`` or ``.json`` manifest file.

    A syntax error, a value of the wrong type and an invalid manifest
    all raise ``ValueError`` with the file's path in front of the
    message.
    """
    path = Path(path)
    try:
        if path.suffix.lower() == ".toml":
            import tomllib

            with open(path, "rb") as fh:
                doc = tomllib.load(fh)
        else:
            doc = read_json(path)
        return manifest_from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
