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

[defaults]
checkpoint_every = 25

[[jobs]]
id = "tube-ht20"
experiment = "tube_window"
steps = 120
[jobs.params]
hematocrit = 0.20

[[jobs]]
id = "shear-a"
experiment = "shear_layers"
steps = 400
checkpoint_every = 100
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
    assert [j.job_id for j in m.jobs] == ["tube-ht20", "shear-a"]
    tube = m.job("tube-ht20")
    # defaults merged in
    assert tube.checkpoint_every == 25
    assert tube.params == {"hematocrit": 0.20}
    # per-job overrides beat defaults
    shear = m.job("shear-a")
    assert shear.checkpoint_every == 100
    assert shear.steps == 400


def test_json_manifest_and_normalized_save(tmp_path):
    doc = {
        "name": "jsoncamp",
        "jobs": [{"id": "a", "experiment": "shear_layers", "steps": 5}],
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
                    {"id": "a", "experiment": "shear_layers"},
                    {"id": "a", "experiment": "shear_layers"},
                ],
            },
            "duplicate job id",
        ),
        (
            {"name": "x", "jobs": [{"id": "a/b", "experiment": "shear_layers"}]},
            "job id",
        ),
        (
            {
                "name": "x",
                "jobs": [{"id": "a", "experiment": "shear_layers", "bogus": 1}],
            },
            "unknown key",
        ),
        (
            {
                "name": "x",
                "defaults": {"steps": 10},
                "jobs": [{"id": "a", "experiment": "shear_layers"}],
            },
            r"unknown \[defaults\] key",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "shear_layers", "max_attempts": 0}
                ],
            },
            "max_attempts",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "shear_layers", "isolation": "vm"}
                ],
            },
            "isolation",
        ),
        (
            {
                "name": "x",
                "jobs": [
                    {"id": "a", "experiment": "shear_layers", "timeout_s": -1}
                ],
            },
            "timeout_s",
        ),
        # keys of earlier releases: knobs that became fixed (two
        # attempts, manifest-order admission) or were dropped
        *(
            (
                {
                    "name": "x",
                    "jobs": [{"id": "a", "experiment": "shear_layers",
                              key: None}],
                },
                f"unknown key.*'{key}'",
            )
            for key in ("priority", "seed", "backend", "workers")
        ),
        (
            {
                "name": "x",
                "retry_backoff_s": 0.5,
                "jobs": [{"id": "a", "experiment": "shear_layers"}],
            },
            "unknown key.*'retry_backoff_s'",
        ),
        (
            {"name": "x", "jobs": [{"id": "a", "experiment": "shear"}]},
            "unknown experiment 'shear'",
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
    # a syntax error names the file too
    path = tmp_path / "broken.toml"
    path.write_text('name = "x"\n[[jobs]\n')
    with pytest.raises(ValueError, match="broken.toml"):
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


def test_jobspec_defaults():
    spec = JobSpec(job_id="j", experiment="shear_layers")
    spec.validate()
    assert spec.steps is None
    assert spec.checkpoint_every == 0
    m = CampaignManifest(name="c", jobs=[spec])
    m.validate()
    assert m.max_parallel == 2
