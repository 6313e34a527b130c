"""Manifest parsing, defaults merging, and eager validation."""

from __future__ import annotations

import json

import pytest

from repro.service.manifest import (
    CampaignManifest,
    JobSpec,
    load_manifest,
    manifest_from_dict,
)

TOML_DOC = """\
name = "sweep"
max_parallel = 3
retry_backoff_s = 0.25

[defaults]
backend = "processes"
workers = 2
max_attempts = 3
checkpoint_every = 25

[[jobs]]
id = "tube-ht20"
experiment = "tube_window"
steps = 120
priority = 10
[jobs.params]
hematocrit = 0.20

[[jobs]]
id = "shear-a"
experiment = "shear"
steps = 400
max_attempts = 1
backend = "serial"
[jobs.params]
lam = 0.5
n = 2
"""


def test_toml_round_trip(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text(TOML_DOC)
    m = load_manifest(path)
    assert m.name == "sweep"
    assert m.max_parallel == 3
    assert m.retry_backoff_s == 0.25
    assert [j.job_id for j in m.jobs] == ["tube-ht20", "shear-a"]
    tube = m.job("tube-ht20")
    # defaults merged in
    assert tube.backend == "processes"
    assert tube.workers == 2
    assert tube.max_attempts == 3
    assert tube.checkpoint_every == 25
    assert tube.params == {"hematocrit": 0.20}
    assert tube.priority == 10
    # per-job overrides beat defaults
    shear = m.job("shear-a")
    assert shear.backend == "serial"
    assert shear.max_attempts == 1
    assert shear.experiment == "shear"  # alias kept verbatim; resolve() maps


def test_json_manifest_and_normalized_save(tmp_path):
    doc = {
        "name": "jsoncamp",
        "jobs": [{"id": "a", "experiment": "hotpath", "steps": 5}],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    assert m.jobs[0].steps == 5
    # normalized save -> reload is stable
    out = tmp_path / "normalized.json"
    m.save(out)
    m2 = manifest_from_dict(json.loads(out.read_text()))
    assert m2.to_dict() == m.to_dict()


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"name": "x", "jobs": []}, "no jobs"),
        (
            {"name": "x", "jobs": [{"id": "a", "experiment": "nope"}]},
            "unknown experiment",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "hotpath"},
                    {"id": "a", "experiment": "hotpath"},
                ],
            },
            "duplicate job id",
        ),
        (
            {"name": "x", "jobs": [{"id": "a/b", "experiment": "hotpath"}]},
            "job id",
        ),
        (
            {
                "name": "x",
                "jobs": [{"id": "a", "experiment": "hotpath", "bogus": 1}],
            },
            "unknown key",
        ),
        (
            {
                "name": "x",
                "defaults": {"steps": 10},
                "jobs": [{"id": "a", "experiment": "hotpath"}],
            },
            r"unknown \[defaults\] key",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "hotpath", "max_attempts": 0}
                ],
            },
            "max_attempts",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "hotpath", "isolation": "vm"}
                ],
            },
            "isolation",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "hotpath", "timeout_s": -1}
                ],
            },
            "timeout_s",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "hotpath", "isolation": "inline"}
                ],
            },
            "inline isolation was removed",
        ),
    ],
)
def test_validation_errors(doc, match):
    with pytest.raises(ValueError, match=match):
        manifest_from_dict(doc)


def test_load_manifest_prefixes_path_on_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "jobs": []}))
    with pytest.raises(ValueError, match="bad.json"):
        load_manifest(path)


def test_python_spec_experiments_allowed():
    m = manifest_from_dict(
        {
            "name": "x",
            "jobs": [
                {"id": "dyn", "experiment": "python:some.module:run"}
            ],
        }
    )
    assert m.jobs[0].experiment == "python:some.module:run"


@pytest.mark.parametrize("where", ["job", "defaults"])
def test_isolation_process_from_older_manifests_is_dropped(where):
    job = {"id": "a", "experiment": "hotpath"}
    doc = {"name": "x", "jobs": [job]}
    if where == "job":
        job["isolation"] = "process"
    else:
        doc["defaults"] = {"isolation": "process"}
    m = manifest_from_dict(doc)
    assert "isolation" not in m.to_dict()["jobs"][0]


def test_jobspec_defaults():
    spec = JobSpec(job_id="j", experiment="hotpath")
    spec.validate()
    assert spec.max_attempts == 2
    assert spec.checkpoint_every == 0
    m = CampaignManifest(name="c", jobs=[spec])
    m.validate()
    assert m.max_parallel == 2
