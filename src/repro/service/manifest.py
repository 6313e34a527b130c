"""Campaign manifests: declarative descriptions of many-simulation runs.

A manifest is a TOML or JSON document declaring a campaign as a list of
jobs, each naming an experiment plus overrides::

    name = "hct-sweep"
    max_parallel = 2

    [defaults]
    max_attempts = 3
    checkpoint_every = 20

    [[jobs]]
    id = "tube-ht20"
    experiment = "tube_window"
    steps = 120
    priority = 10
    [jobs.params]
    hematocrit = 0.20

    [[jobs]]
    id = "shear-l05-n2"
    experiment = "shear_layers"
    steps = 400
    [jobs.params]
    lam = 0.5
    ratio = 2            # note: passed through verbatim — must be a
                         # parameter the experiment accepts ("n" here)

Fields in ``[defaults]`` apply to every job that does not set them
itself.  ``load_manifest`` validates the document eagerly (unknown
experiments, duplicate or unsafe job ids, bad counts) so a typo fails at
admission rather than forty minutes into a sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .registry import resolve
from .util import atomic_write_json, read_json

#: Job fields ``[defaults]`` may set.
_DEFAULTABLE = (
    "max_attempts",
    "timeout_s",
    "checkpoint_every",
    "priority",
)


#: Job fields that older manifests carry -> (the values that name what
#: every job now does, and are dropped on load; why any other fails).
#: Every persisted ``manifest.json`` of those releases has all three.
_RETIRED = {
    "isolation": (
        (None, "process"),
        "inline isolation was removed and every job runs in its own "
        "worker subprocess",
    ),
    "backend": (
        (None, "serial"),
        "the FSI process pool was removed and every job runs serial",
    ),
    "workers": (
        (None, 1),
        "the FSI process pool was removed and every job runs serial",
    ),
}


@dataclass
class JobSpec:
    """One schedulable simulation inside a campaign."""

    job_id: str
    experiment: str
    params: dict = field(default_factory=dict)
    #: Step budget mapped onto the experiment's steps parameter
    #: (``steps_per_stop`` for the upper-body sweep, ``steps`` elsewhere).
    steps: int | None = None
    priority: int = 0  # higher runs earlier
    max_attempts: int = 2
    timeout_s: float | None = None  # wall-clock kill per attempt
    checkpoint_every: int = 0  # steps between checkpoint shards
    seed: int | None = None  # explicit RNG seed (default: derived per job)

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
        if self.max_attempts < 1:
            raise ValueError(f"job {self.job_id}: max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"job {self.job_id}: timeout_s must be > 0")
        if self.checkpoint_every < 0:
            raise ValueError(f"job {self.job_id}: checkpoint_every must be >= 0")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"job {self.job_id}: steps must be >= 1")


@dataclass
class CampaignManifest:
    """A named list of jobs plus campaign-wide scheduling knobs."""

    name: str
    jobs: list[JobSpec]
    max_parallel: int = 2
    #: First retry waits this long; subsequent retries double it
    #: (capped by the scheduler).
    retry_backoff_s: float = 0.5

    def validate(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
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
            "retry_backoff_s": self.retry_backoff_s,
            "jobs": [asdict(j) for j in self.jobs],
        }

    def save(self, path: str | Path) -> Path:
        """Persist the normalized manifest (JSON, atomic)."""
        return atomic_write_json(path, self.to_dict())


def manifest_from_dict(doc: dict) -> CampaignManifest:
    """Build and validate a manifest from a parsed TOML/JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("manifest root must be a table/object")
    defaults = doc.get("defaults", {})
    unknown_defaults = set(defaults) - {*_DEFAULTABLE, *_RETIRED}
    if unknown_defaults:
        raise ValueError(
            f"unknown [defaults] key(s) {sorted(unknown_defaults)}; "
            f"allowed: {sorted(_DEFAULTABLE)}"
        )
    jobs: list[JobSpec] = []
    for i, j in enumerate(doc.get("jobs", [])):
        if not isinstance(j, dict):
            raise ValueError(f"jobs[{i}] must be a table/object")
        j = dict(j)
        job_id = j.pop("id", j.pop("job_id", None))
        experiment = j.pop("experiment", None)
        if job_id is None or experiment is None:
            raise ValueError(f"jobs[{i}]: 'id' and 'experiment' are required")
        merged = {**{k: v for k, v in defaults.items()}, **j}
        for key, (allowed, why) in _RETIRED.items():
            value = merged.pop(key, None)
            if value not in allowed:
                raise ValueError(
                    f"job {job_id}: {key} {value!r} is not supported; {why}"
                )
        known = {f for f in JobSpec.__dataclass_fields__ if f != "job_id"}
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
        retry_backoff_s=float(doc.get("retry_backoff_s", 0.5)),
    )
    manifest.validate()
    return manifest


def load_manifest(path: str | Path) -> CampaignManifest:
    """Parse a ``.toml`` or ``.json`` manifest file."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        import tomllib

        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    else:
        doc = read_json(path)
    try:
        return manifest_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
